/**
 * @file
 * Work-stealing thread pool implementation.
 */

#include "engine/thread_pool.hh"

#include "common/logging.hh"

namespace arcc
{

int
ThreadPool::hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int workers)
{
    if (workers < 0)
        workers = hardwareThreads();
    // One deque per worker plus the shared submit inbox.
    queues_.resize(static_cast<std::size_t>(workers) + 1);
    threads_.reserve(workers);
    for (int i = 0; i < workers; ++i)
        threads_.emplace_back(&ThreadPool::workerMain, this,
                              static_cast<std::size_t>(i));
}

ThreadPool::~ThreadPool()
{
    // Drain whatever is still queued -- a submitted task may be the
    // only thing holding a waiter's completion count.
    while (tryRunOneTask()) {
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::submit(Task task)
{
    ARCC_ASSERT(task);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ARCC_ASSERT(!stopping_);
        // Round-robin across the worker deques so steals stay rare;
        // an inline pool only has the shared inbox.
        std::size_t q = threads_.empty()
                            ? queues_.size() - 1
                            : nextQueue_++ % threads_.size();
        queues_[q].push_back(std::move(task));
    }
    workReady_.notify_one();
}

bool
ThreadPool::popLocked(std::size_t self, Task &out)
{
    // Own queue first, newest task first (LIFO keeps caches hot).
    if (self < queues_.size() && !queues_[self].empty()) {
        out = std::move(queues_[self].back());
        queues_[self].pop_back();
        return true;
    }
    // Steal the oldest task of the busiest victim (FIFO).
    std::size_t victim = queues_.size();
    for (std::size_t q = 0; q < queues_.size(); ++q) {
        if (q == self || queues_[q].empty())
            continue;
        if (victim == queues_.size() ||
            queues_[q].size() > queues_[victim].size())
            victim = q;
    }
    if (victim == queues_.size())
        return false;
    out = std::move(queues_[victim].front());
    queues_[victim].pop_front();
    return true;
}

bool
ThreadPool::tryRunOneTask()
{
    Task task;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // External threads have no own queue; index past the end makes
        // popLocked treat every queue as a steal victim.
        if (!popLocked(queues_.size(), task))
            return false;
    }
    task();
    return true;
}

void
ThreadPool::workerMain(std::size_t self)
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock, [&] {
                return stopping_ || popLocked(self, task);
            });
            if (!task && stopping_)
                return;
        }
        task();
    }
}

} // namespace arcc
