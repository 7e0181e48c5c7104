/**
 * @file
 * Work-stealing thread pool for the simulation engine.
 *
 * Each worker owns a deque: it pushes and pops its own work LIFO (hot
 * caches) and steals FIFO from the other workers when it runs dry (the
 * oldest -- usually largest -- task migrates).  The pool is built for
 * the coarse-grained shards the SimEngine submits (thousands of Monte
 * Carlo trials or one whole mix simulation per task), so the queues
 * share one mutex; at that granularity contention is unmeasurable and
 * the single-lock design removes a whole class of lock-order bugs.
 *
 * A pool with zero workers is valid and useful: every task runs inline
 * on the thread that waits for it, which is how the deterministic
 * single-threaded reference mode works.
 */

#ifndef ARCC_ENGINE_THREAD_POOL_HH
#define ARCC_ENGINE_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace arcc
{

/**
 * The pool.  Construction spawns the workers; destruction completes
 * every queued task, then joins.
 */
class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /**
     * @param workers  worker-thread count; 0 means no workers (tasks
     *                 run inline in wait loops), negative means one
     *                 worker per hardware thread.
     */
    explicit ThreadPool(int workers = -1);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker-thread count (0 for the inline pool). */
    int workers() const { return static_cast<int>(threads_.size()); }

    /** Queue one task.  Never blocks; never runs the task inline. */
    void submit(Task task);

    /**
     * Steal and run one queued task on the calling thread.
     * @return false when every queue was empty.
     *
     * Threads that wait for a task group call this in their wait loop,
     * so the waiter works instead of idling and a zero-worker pool
     * still makes progress.
     */
    bool tryRunOneTask();

    /** @return the machine's hardware thread count (at least 1). */
    static int hardwareThreads();

  private:
    void workerMain(std::size_t self);

    /** Pop from own back / steal from another front.  Lock held. */
    bool popLocked(std::size_t self, Task &out);

    std::mutex mutex_;
    std::condition_variable workReady_;
    /** queues_[i] feeds worker i; queues_.back() is the submit inbox
     *  drained by everyone (it is the only queue of an inline pool). */
    std::vector<std::deque<Task>> queues_;
    std::vector<std::thread> threads_;
    std::size_t nextQueue_ = 0;
    bool stopping_ = false;
};

} // namespace arcc

#endif // ARCC_ENGINE_THREAD_POOL_HH
