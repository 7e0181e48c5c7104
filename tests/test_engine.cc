/**
 * @file
 * Tests for the parallel simulation engine: splittable / jump-ahead
 * RNG streams, the work-stealing thread pool, deterministic sharding,
 * and bit-identical Monte Carlo results across thread counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "cpu/system_sim.hh"
#include "dram/dram_params.hh"
#include "engine/sim_engine.hh"
#include "engine/thread_pool.hh"
#include "faults/lifetime_mc.hh"

namespace arcc
{
namespace
{

// --- RNG streams -------------------------------------------------------

TEST(RngStream, PureFunctionOfSeedAndIndex)
{
    Rng a = Rng::stream(42, 7);
    Rng b = Rng::stream(42, 7);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngStream, OrderIndependentUnlikeFork)
{
    // fork() makes stream c depend on the c-1 forks before it;
    // stream() must not.  Drawing stream 5 before stream 2 gives the
    // same sequences as the other way around.
    Rng early = Rng::stream(9, 5);
    Rng late2 = Rng::stream(9, 2);
    Rng early2 = Rng::stream(9, 2);
    Rng late = Rng::stream(9, 5);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(early.next(), late.next());
        EXPECT_EQ(early2.next(), late2.next());
    }
}

TEST(RngStream, NeighbouringStreamsAreUncorrelated)
{
    // Cheap independence smoke test: pairwise-distinct outputs and a
    // balanced bit mix across 4 adjacent streams.
    const int draws = 1024;
    std::set<std::uint64_t> seen;
    for (std::uint64_t s = 0; s < 4; ++s) {
        Rng r = Rng::stream(1234, s);
        int ones = 0;
        for (int i = 0; i < draws; ++i) {
            std::uint64_t x = r.next();
            seen.insert(x);
            ones += __builtin_popcountll(x);
        }
        // 64 * 1024 bits, expect ~50% ones (binomial sigma ~0.2%).
        EXPECT_NEAR(ones / (64.0 * draws), 0.5, 0.01);
    }
    EXPECT_EQ(seen.size(), 4u * draws);
}

TEST(RngJump, CommutesWithStepping)
{
    // The state transition and the jump are both linear maps over
    // GF(2), so they commute: step^3(jump(s)) == jump(step^3(s)).
    // This exercises every bit of the jump polynomial arithmetic.
    Rng a(77), b(77);
    a.next();
    a.next();
    a.next();
    a.jump();
    b.jump();
    b.next();
    b.next();
    b.next();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());

    Rng c(77), d(77);
    c.next();
    c.longJump();
    d.longJump();
    d.next();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(c.next(), d.next());
}

TEST(RngJump, JumpAndLongJumpLandInDistinctRegions)
{
    Rng base(5), j(5), lj(5);
    j.jump();
    lj.longJump();
    bool all_equal = true;
    for (int i = 0; i < 64; ++i) {
        std::uint64_t x = base.next(), y = j.next(), z = lj.next();
        if (x != y || x != z || y != z)
            all_equal = false;
    }
    EXPECT_FALSE(all_equal);
}

// --- thread pool -------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(4);
        for (int i = 0; i < 100; ++i)
            pool.submit([&] { ++count; });
        // Destructor completes whatever is still queued.
    }
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroWorkerPoolRunsTasksInWaitLoops)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workers(), 0);
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i)
        pool.submit([&] { ++count; });
    EXPECT_EQ(count.load(), 0); // nothing runs until someone waits.
    while (pool.tryRunOneTask()) {
    }
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1);
}

// --- SimEngine sharding ------------------------------------------------

TEST(SimEngine, ThreadCountsComeOut)
{
    SimEngine one(SimEngine::Options{1});
    EXPECT_EQ(one.threads(), 1);
    EXPECT_EQ(one.pool().workers(), 0);
    SimEngine eight(SimEngine::Options{8});
    EXPECT_EQ(eight.threads(), 8);
}

TEST(SimEngine, ForEachShardCoversEveryItemExactlyOnce)
{
    SimEngine engine(SimEngine::Options{4});
    const std::uint64_t items = 1003; // deliberately not a multiple.
    std::vector<std::atomic<int>> hits(items);
    engine.forEachShard(items, 17, [&](const ShardRange &r) {
        EXPECT_EQ(r.begin, r.index * 17);
        for (std::uint64_t i = r.begin; i < r.end; ++i)
            ++hits[i];
    });
    for (std::uint64_t i = 0; i < items; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "item " << i;
}

TEST(SimEngine, MapReduceSumsInShardOrder)
{
    for (int threads : {1, 8}) {
        SimEngine engine(SimEngine::Options{threads});
        std::uint64_t total = engine.mapReduce(
            1000, 64, std::uint64_t{0},
            [](const ShardRange &r) {
                std::uint64_t s = 0;
                for (std::uint64_t i = r.begin; i < r.end; ++i)
                    s += i;
                return s;
            },
            [](std::uint64_t &acc, std::uint64_t &&p) { acc += p; });
        EXPECT_EQ(total, 1000ull * 999 / 2);
    }
}

TEST(SimEngine, ExceptionsPropagateAndEngineStaysUsable)
{
    SimEngine engine(SimEngine::Options{4});
    EXPECT_THROW(
        engine.forEachShard(100, 8,
                            [&](const ShardRange &r) {
                                if (r.index == 5)
                                    throw std::runtime_error("boom");
                            }),
        std::runtime_error);

    // A failed sweep must not poison the pool.
    std::atomic<int> ran{0};
    engine.forEachShard(100, 8, [&](const ShardRange &) { ++ran; });
    EXPECT_EQ(ran.load(), 13); // ceil(100 / 8).
}

TEST(SimEngine, NestedShardedCallsDoNotDeadlock)
{
    SimEngine engine(SimEngine::Options{2});
    std::atomic<int> inner{0};
    engine.forEachIndex(4, [&](std::uint64_t) {
        engine.forEachIndex(4, [&](std::uint64_t) { ++inner; });
    });
    EXPECT_EQ(inner.load(), 16);
}

// --- ARCC_THREADS validation -------------------------------------------

/** RAII guard: set ARCC_THREADS for one test, restore on exit. */
class ArccThreadsGuard
{
  public:
    explicit ArccThreadsGuard(const char *value)
    {
        if (const char *old = ::getenv("ARCC_THREADS")) {
            had_ = true;
            old_ = old;
        }
        ::setenv("ARCC_THREADS", value, 1);
    }

    ~ArccThreadsGuard()
    {
        if (had_)
            ::setenv("ARCC_THREADS", old_.c_str(), 1);
        else
            ::unsetenv("ARCC_THREADS");
    }

  private:
    bool had_ = false;
    std::string old_;
};

TEST(SimEngineEnv, ValidThreadCountSizesTheEngine)
{
    ArccThreadsGuard guard("3");
    SimEngine engine(SimEngine::Options{0}); // 0 = consult the env.
    EXPECT_EQ(engine.threads(), 3);
}

TEST(SimEngineEnv, ExplicitOptionsIgnoreTheEnv)
{
    ArccThreadsGuard guard("3");
    SimEngine engine(SimEngine::Options{2});
    EXPECT_EQ(engine.threads(), 2);
}

// Regression: SimEngine used to read ARCC_THREADS with std::atoi and
// silently fall back to the hardware count on garbage -- the variable
// that sizes every engine in the process deserves a loud failure.
TEST(SimEngineEnvDeath, GarbageThreadCountIsFatal)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ArccThreadsGuard guard("8cores");
    EXPECT_DEATH({ SimEngine engine(SimEngine::Options{0}); },
                 "ARCC_THREADS.*8cores");
}

TEST(SimEngineEnvDeath, NegativeThreadCountIsFatal)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ArccThreadsGuard guard("-4");
    EXPECT_DEATH({ SimEngine engine(SimEngine::Options{0}); },
                 "ARCC_THREADS.*negative");
}

TEST(SimEngineEnvDeath, ZeroThreadsIsFatal)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ArccThreadsGuard guard("0");
    EXPECT_DEATH({ SimEngine engine(SimEngine::Options{0}); },
                 "ARCC_THREADS.*thread count");
}

TEST(SimEngineEnvDeath, AbsurdThreadCountIsFatal)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ArccThreadsGuard guard("40000");
    EXPECT_DEATH({ SimEngine engine(SimEngine::Options{0}); },
                 "ARCC_THREADS.*thread count");
}

// Regression: fatal() used to std::exit, which runs the global
// engine's destructor -- and that joins the very worker calling
// fatal(), so the process could abort (exit 134) instead of exit 1.
TEST(SimEngineDeath, FatalOnAGlobalEngineWorkerExitsOne)
{
    // threadsafe: the child re-runs this test from the top, so the
    // global engine it builds is its own, sized by the guard.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ArccThreadsGuard guard("4");
    EXPECT_EXIT(
        {
            const std::thread::id caller = std::this_thread::get_id();
            SimEngine::global().forEachIndex(2, [&](std::uint64_t) {
                // The caller never finishes its index, so the other
                // one runs on a worker -- and fails there.
                while (std::this_thread::get_id() == caller)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                fatal("bad input seen on an engine worker");
            });
        },
        ::testing::ExitedWithCode(1), "bad input seen on an engine worker");
}

// --- determinism across thread counts ----------------------------------

TEST(SimEngine, LifetimeMcIsBitIdenticalAcrossThreadCounts)
{
    LifetimeMcConfig cfg;
    cfg.channels = 2000;
    cfg.gridPerYear = 2;

    SimEngine one(SimEngine::Options{1});
    SimEngine eight(SimEngine::Options{8});
    LifetimeMc serial(cfg, &one);
    LifetimeMc parallel(cfg, &eight);

    AffectedCurve a = serial.affectedFraction();
    AffectedCurve b = parallel.affectedFraction();
    ASSERT_EQ(a.avgFraction.size(), b.avgFraction.size());
    for (std::size_t i = 0; i < a.avgFraction.size(); ++i)
        EXPECT_EQ(a.avgFraction[i], b.avgFraction[i]) << "point " << i;

    PerTypeOverhead overhead{};
    for (FaultType t : allFaultTypes())
        overhead[static_cast<int>(t)] = 0.25;
    std::vector<double> oa =
        serial.cumulativeOverheadByYear(overhead, 1.0);
    std::vector<double> ob =
        parallel.cumulativeOverheadByYear(overhead, 1.0);
    EXPECT_EQ(oa, ob);
}

TEST(SimEngine, MixBatchMatchesSequentialSimulateMix)
{
    SystemConfig cfg;
    cfg.mem = arccConfig();
    cfg.instrsPerCore = 20000; // keep the test quick.
    cfg.seed = 20130223;

    std::vector<MixJob> jobs;
    jobs.push_back({table73Mixes()[0], cfg, {}});
    jobs.push_back({table73Mixes()[1], cfg,
                    PageUpgradeOracle::forScenario(
                        PageUpgradeOracle::Scenario::Lane, cfg.mem)});
    jobs.push_back({table73Mixes()[2], cfg,
                    PageUpgradeOracle::forScenario(
                        PageUpgradeOracle::Scenario::Bank, cfg.mem)});

    SimEngine eight(SimEngine::Options{8});
    std::vector<SimResult> batch = simulateMixBatch(jobs, &eight);
    ASSERT_EQ(batch.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        SimResult ref =
            simulateMix(jobs[j].mix, jobs[j].config, jobs[j].oracle);
        EXPECT_EQ(batch[j].ipcSum, ref.ipcSum) << "job " << j;
        EXPECT_EQ(batch[j].avgPowerMw, ref.avgPowerMw) << "job " << j;
        EXPECT_EQ(batch[j].memReads, ref.memReads) << "job " << j;
    }
}

} // namespace
} // namespace arcc
