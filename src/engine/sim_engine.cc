/**
 * @file
 * SimEngine implementation.
 */

#include "engine/sim_engine.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "common/logging.hh"
#include "common/parse_num.hh"

namespace arcc
{

namespace
{

/** Sanity cap on the executor count: far above any machine this runs
 *  on, low enough that a mistyped "ARCC_THREADS=40000" cannot OOM the
 *  process spawning stacks. */
constexpr int kMaxThreads = 1024;

/**
 * Thread count from ARCC_THREADS, or 0 when unset / empty.
 *
 * A set-but-invalid value is fatal, not a warning: the variable sizes
 * every engine in the process, and the old atoi() path silently
 * degraded "ARCC_THREADS=8cores" or "-4" to the hardware default --
 * exactly the silent-zero coercion a long-running service cannot
 * afford.  tests/test_engine.cc pins the fatal paths.
 */
int
envThreads()
{
    const char *env = std::getenv("ARCC_THREADS");
    if (!env || *env == '\0')
        return 0;
    const std::uint64_t n = parseU64("ARCC_THREADS", env);
    if (n < 1 || n > kMaxThreads)
        fatal("ARCC_THREADS=%s: need a thread count in [1, %d]", env,
              kMaxThreads);
    return static_cast<int>(n);
}

} // anonymous namespace

/**
 * One forEachShard call.  The body and the shard geometry are fixed
 * before the call is listed; executors claim shards through `next`,
 * and the engine's mutex guards `holders`, `error` and `nextOpen`.
 */
struct SimEngine::Call
{
    const std::function<void(const ShardRange &)> &body;
    const std::uint64_t items;
    const std::uint64_t shardSize;
    const std::uint64_t shards;
    /** Next shard to claim; none is left once it reaches `shards`. */
    std::atomic<std::uint64_t> next{0};
    /** Workers that took this call off the list and may still claim
     *  or run its shards. */
    int holders = 0;
    std::exception_ptr error = nullptr;
    /** Signalled when the last holder lets go. */
    std::condition_variable released{};
    /** The next call in the engine's FIFO of open calls. */
    Call *nextOpen = nullptr;
};

SimEngine::SimEngine() : SimEngine(Options{}) {}

SimEngine::SimEngine(const Options &options)
{
    int threads = options.threads;
    if (threads == 0)
        threads = envThreads();
    if (threads == 0)
        threads = static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()));
    ARCC_ASSERT(threads >= 1);
    // The calling thread is an executor too.
    workers_.reserve(threads - 1);
    try {
        for (int i = 1; i < threads; ++i)
            workers_.emplace_back(&SimEngine::workerMain, this);
    } catch (...) {
        stopWorkers(); // a joinable std::thread must not be destroyed.
        throw;
    }
}

SimEngine::~SimEngine()
{
    stopWorkers();
}

void
SimEngine::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

SimEngine &
SimEngine::global()
{
    static SimEngine engine;
    return engine;
}

void
SimEngine::forEachShard(std::uint64_t items, std::uint64_t shardSize,
                        const std::function<void(const ShardRange &)>
                            &body) const
{
    ARCC_ASSERT(shardSize > 0);
    const std::uint64_t shards = shardCount(items, shardSize);
    if (shards == 0)
        return;

    Call call{body, items, shardSize, shards};
    // The caller claims shards too, so at most shards - 1 workers can
    // help; with none (one shard, or a 1-executor engine) the call is
    // a plain loop in ascending shard order.
    const std::uint64_t helpers =
        std::min<std::uint64_t>(shards - 1, workers_.size());
    if (helpers > 0) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            Call **tail = &open_;
            while (*tail)
                tail = &(*tail)->nextOpen;
            *tail = &call;
        }
        for (std::uint64_t i = 0; i < helpers; ++i)
            workReady_.notify_one();
    }
    runShards(call);
    if (helpers > 0) {
        // Every shard is claimed: unlist the call, then wait for the
        // workers still running its shards to let go of it.
        std::unique_lock<std::mutex> lock(mutex_);
        Call **link = &open_;
        while (*link != &call)
            link = &(*link)->nextOpen;
        *link = call.nextOpen;
        call.released.wait(lock, [&] { return call.holders == 0; });
    }

    if (call.error)
        std::rethrow_exception(call.error);
}

void
SimEngine::runShards(Call &call) const
{
    try {
        for (;;) {
            const std::uint64_t s =
                call.next.fetch_add(1, std::memory_order_relaxed);
            if (s >= call.shards)
                return;
            call.body({s * call.shardSize,
                       std::min(call.items, (s + 1) * call.shardSize),
                       s});
        }
    } catch (...) {
        // Keep the first error and cancel every unclaimed shard.
        std::lock_guard<std::mutex> lock(mutex_);
        if (!call.error)
            call.error = std::current_exception();
        call.next.store(call.shards, std::memory_order_relaxed);
    }
}

SimEngine::Call *
SimEngine::openCall() const
{
    for (Call *call = open_; call; call = call->nextOpen)
        if (call->next.load(std::memory_order_relaxed) < call->shards)
            return call;
    return nullptr;
}

void
SimEngine::workerMain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        // Keep the call the wait saw: its last shard may be claimed
        // before the wait returns, but it stays listed, and so alive,
        // until its caller takes the lock to unlist it.
        Call *call = nullptr;
        workReady_.wait(lock, [&] {
            return (call = openCall()) != nullptr || stopping_;
        });
        if (!call)
            return;
        ++call->holders;
        lock.unlock();
        runShards(*call);
        lock.lock();
        // Notified under the lock: the caller may destroy the call as
        // soon as the lock is free.
        if (--call->holders == 0)
            call->released.notify_one();
    }
}

} // namespace arcc
