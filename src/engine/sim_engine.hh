/**
 * @file
 * SimEngine: deterministic sharded execution for the Monte Carlo
 * engines and the bench scenario sweeps.
 *
 * The engine splits N independent items (Monte Carlo trials, (mix,
 * scenario) simulation jobs, scrub page ranges) into fixed-size
 * shards and runs the shards on a work-stealing thread pool.
 * Determinism is a design invariant, not an accident:
 *
 *  - shard boundaries depend only on the item count and the shard
 *    size, never on the worker count, so the floating-point reduction
 *    tree is identical on 1 thread and on 64;
 *  - per-shard results land in a slot indexed by shard number and are
 *    folded in shard order on the calling thread;
 *  - stochastic trials draw their generator from Rng::stream(seed,
 *    trial), a pure function of the trial index.
 *
 * Together these make an N-worker run bit-identical to a 1-worker run
 * of the same configuration.  tests/test_engine.cc enforces this.
 *
 * The calling thread participates: while a sharded call is in flight
 * it executes queued shards itself, so a zero-worker engine is simply
 * a deterministic sequential loop and nested sharded calls cannot
 * deadlock the pool -- a shard body may itself call into an engine
 * (tests/test_engine.cc pins this).
 *
 * docs/ARCHITECTURE.md documents the shard-reduce contract every
 * user of this engine honours.
 */

#ifndef ARCC_ENGINE_SIM_ENGINE_HH
#define ARCC_ENGINE_SIM_ENGINE_HH

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/thread_pool.hh"

namespace arcc
{

/** One contiguous run of item indices, [begin, end). */
struct ShardRange
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    /** Shard number, dense from 0; indexes the reduction slots. */
    std::uint64_t index = 0;
};

/**
 * The engine.  Cheap to construct around an existing pool; the
 * process-wide instance is SimEngine::global().
 */
class SimEngine
{
  public:
    struct Options
    {
        /**
         * Total executor count including the calling thread: 1 runs
         * everything inline, N uses N-1 pool workers plus the caller.
         * 0 picks the ARCC_THREADS environment variable, falling back
         * to the hardware thread count.
         */
        int threads = 0;
    };

    /** Engine with default options (ARCC_THREADS / the hardware). */
    SimEngine();
    explicit SimEngine(const Options &options);

    /**
     * The process-wide engine, sized from ARCC_THREADS / the hardware
     * on first use.  Every simulation entry point that takes an
     * optional engine uses this one when handed nullptr.
     */
    static SimEngine &global();

    /** Executor count (pool workers + the calling thread). */
    int threads() const { return pool_.workers() + 1; }

    /**
     * Run body(shard) for every fixed-size shard of [0, items) and
     * wait.  The first exception thrown by a body is rethrown here
     * after every shard has finished or been cancelled; the engine
     * stays usable afterwards.
     *
     * @param shardSize  items per shard (the last shard is short);
     *                   must not depend on the thread count or
     *                   determinism is lost.
     */
    void forEachShard(std::uint64_t items, std::uint64_t shardSize,
                      const std::function<void(const ShardRange &)>
                          &body) const;

    /** One item per shard: body(i) for i in [0, items). */
    void
    forEachIndex(std::uint64_t items,
                 const std::function<void(std::uint64_t)> &body) const
    {
        forEachShard(items, 1, [&](const ShardRange &r) {
            body(r.begin);
        });
    }

    /**
     * The shard-reduce pattern every deterministic parallel kernel in
     * the library is built on: `map(shard)` produces one partial per
     * shard (in parallel, any completion order), then `merge` receives
     * *all* partials as one vector indexed by shard number and combines
     * them on the calling thread.  Because the merge sees the partials
     * in shard order -- an order fixed by (items, shardSize) alone --
     * the result is bit-identical at any thread count.
     *
     * Batch APIs that need the whole partial vector at once (e.g. a
     * per-job result list, or a report merge that concatenates page
     * lists) use this directly; simple accumulations use mapReduce.
     *
     * The Partial type (Map's result) must be default-constructible
     * and movable.
     */
    template <class Map, class Merge>
    auto
    reduceShards(std::uint64_t items, std::uint64_t shardSize,
                 Map &&map, Merge &&merge) const
    {
        using Partial = std::decay_t<
            std::invoke_result_t<Map &, const ShardRange &>>;
        std::vector<Partial> partials(shardCount(items, shardSize));
        forEachShard(items, shardSize, [&](const ShardRange &r) {
            partials[r.index] = map(r);
        });
        return merge(std::move(partials));
    }

    /**
     * Deterministic sharded map-reduce: `map(shard)` produces one
     * partial per shard (in parallel), `fold(accumulator, partial)`
     * combines them *in shard order* on the calling thread.
     */
    template <class Partial, class Map, class Fold>
    Partial
    mapReduce(std::uint64_t items, std::uint64_t shardSize,
              Partial init, Map &&map, Fold &&fold) const
    {
        return reduceShards(
            items, shardSize, std::forward<Map>(map),
            [&](std::vector<Partial> &&partials) {
                for (Partial &p : partials)
                    fold(init, std::move(p));
                return std::move(init);
            });
    }

    /** Shards forEachShard will produce for (items, shardSize). */
    static std::uint64_t
    shardCount(std::uint64_t items, std::uint64_t shardSize)
    {
        return shardSize == 0 ? 0
                              : (items + shardSize - 1) / shardSize;
    }

    /**
     * Default trial-count shard size: coarse enough that queue and
     * slot overheads vanish, fine enough that 8 workers load-balance a
     * 10000-trial fleet.  Callers may override but must keep their
     * choice independent of the thread count.
     */
    static constexpr std::uint64_t kDefaultShard = 64;

    ThreadPool &pool() { return pool_; }

  private:
    mutable ThreadPool pool_;
};

} // namespace arcc

#endif // ARCC_ENGINE_SIM_ENGINE_HH
