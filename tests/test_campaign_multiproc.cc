/**
 * @file
 * Multi-process campaign scale-out tests: the WorkerPlan partition,
 * cross-worker digest equality against the pinned golden at every
 * worker and thread count, SIGKILL-one-worker resume-then-merge
 * equality, a merge-order/associativity property fuzz over random
 * contiguous trial-range splits, and the fatal paths that keep a
 * merge from ever silently folding the wrong fleet.
 *
 * The spec here is tests/test_determinism.cc's campaignSpec() -- same
 * fleet, same seed -- so the merged digests are pinned against the
 * same golden 0xa0c045902c858d77 as its single-process run.  (CI's
 * arcc_campaign smokes pin a larger fleet's digest,
 * 37ac86cc083cbf53.)
 *
 * Every engine in this file is a small *local* engine except the one
 * global-engine golden test kept last: the SIGKILL test fork()s, and
 * a forked child must never inherit an engine whose workers, and any
 * lock they held, stayed in the parent.
 * Death-test suites are named *DeathTest so gtest runs them first.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/campaign.hh"
#include "campaign/checkpoint.hh"
#include "engine/sim_engine.hh"

namespace arcc
{
namespace
{

/** The golden campaign digest for multiprocSpec(), pinned by
 *  CampaignDeterminism.GoldenDigestOnTheGlobalEngine. */
constexpr std::uint64_t kGoldenDigest = 0xa0c045902c858d77ULL;

std::string
tempPath(const std::string &tag)
{
    return (std::filesystem::temp_directory_path() /
            ("arcc_test_multiproc." + tag + "." +
             std::to_string(::getpid())))
        .string();
}

/** Removes a worker-log fleet (base.w0, base.w1, ...) on teardown. */
struct TempFleet
{
    explicit TempFleet(std::string b) : base(std::move(b)) {}
    ~TempFleet()
    {
        for (std::uint32_t id = 0; id < 64; ++id)
            std::remove(workerCheckpointPath(base, id).c_str());
    }
    std::string base;
};

/** Same fleet as test_determinism.cc's campaignSpec(). */
CampaignSpec
multiprocSpec()
{
    CampaignSpec spec;
    spec.channels = 2048;
    spec.epochTrials = 256;
    spec.shardTrials = 64;
    spec.seed = 20130223;
    return spec;
}

/** Build worker `id`'s slice in-process on `engine`. */
CampaignWorkerSlice
runSlice(const CampaignSpec &spec, const WorkerPlan &plan,
         std::uint32_t id, SimEngine &engine)
{
    CampaignDriver driver(spec, &engine);
    return workerSlice(spec, plan, id, driver.runWorker(plan, id));
}

/** A hand-built slice over an arbitrary contiguous range, for the
 *  merge fuzz (ranges there are not WorkerPlan ranges). */
CampaignWorkerSlice
madeSlice(const CampaignSpec &spec, const CampaignDriver &driver,
          std::uint32_t id, std::uint32_t count, std::uint64_t begin,
          std::uint64_t end)
{
    CampaignWorkerSlice s;
    s.workerId = id;
    s.workerCount = count;
    s.beginTrial = begin;
    s.endTrial = end;
    s.configHash = spec.configHash();
    s.seed = spec.seed;
    s.aggregate = driver.runTrials(begin, end);
    s.source = "slice#" + std::to_string(id);
    return s;
}

/** Deterministic 64-bit generator for the fuzz (splitmix64). */
struct FuzzRng
{
    std::uint64_t state;
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// --- fatal paths first (death-test suites run before the rest) ---------

TEST(WorkerPlanDeathTest, ZeroWorkersAndBadIdsAreFatal)
{
    const CampaignSpec spec = multiprocSpec();
    EXPECT_EXIT(WorkerPlan(spec, 0), ::testing::ExitedWithCode(1),
                "zero workers");
    const WorkerPlan plan(spec, 4);
    EXPECT_EXIT(plan.range(4), ::testing::ExitedWithCode(1),
                "out of range");
}

TEST(MergeDeathTest, EmptySliceListIsFatal)
{
    const CampaignSpec spec = multiprocSpec();
    EXPECT_EXIT(mergeCampaigns(spec, {}),
                ::testing::ExitedWithCode(1), "no worker slices");
}

TEST(MergeDeathTest, DuplicateWorkerIdsAreFatal)
{
    SimEngine engine(SimEngine::Options{1});
    const CampaignSpec spec = multiprocSpec();
    const WorkerPlan plan(spec, 2);
    std::vector<CampaignWorkerSlice> slices = {
        runSlice(spec, plan, 0, engine),
        runSlice(spec, plan, 0, engine)};
    EXPECT_EXIT(mergeCampaigns(spec, std::move(slices)),
                ::testing::ExitedWithCode(1), "duplicate worker id");
}

TEST(MergeDeathTest, CoverageGapsAndOverlapsAreFatal)
{
    SimEngine engine(SimEngine::Options{1});
    const CampaignSpec spec = multiprocSpec();
    CampaignDriver driver(spec, &engine);
    const std::uint64_t n = spec.channels;

    {
        // Gap: [0, 512) + [1024, 2048) misses [512, 1024).
        std::vector<CampaignWorkerSlice> slices = {
            madeSlice(spec, driver, 0, 2, 0, 512),
            madeSlice(spec, driver, 1, 2, 1024, n)};
        EXPECT_EXIT(mergeCampaigns(spec, std::move(slices)),
                    ::testing::ExitedWithCode(1), "gap in trial");
    }
    {
        // Overlap: [0, 1024) + [512, 2048) double-counts [512, 1024).
        std::vector<CampaignWorkerSlice> slices = {
            madeSlice(spec, driver, 0, 2, 0, 1024),
            madeSlice(spec, driver, 1, 2, 512, n)};
        EXPECT_EXIT(mergeCampaigns(spec, std::move(slices)),
                    ::testing::ExitedWithCode(1), "overlapping");
    }
    {
        // Short fleet: coverage ends before spec.channels.
        std::vector<CampaignWorkerSlice> slices = {
            madeSlice(spec, driver, 0, 1, 0, 1024)};
        slices[0].endTrial = 1024;
        EXPECT_EXIT(mergeCampaigns(spec, std::move(slices)),
                    ::testing::ExitedWithCode(1), "incomplete fleet");
    }
}

TEST(MergeDeathTest, MixedExperimentsAndFleetsAreFatal)
{
    SimEngine engine(SimEngine::Options{1});
    const CampaignSpec spec = multiprocSpec();
    const WorkerPlan plan(spec, 2);

    {
        // Stale configHash: slice from a different experiment.
        std::vector<CampaignWorkerSlice> slices = {
            runSlice(spec, plan, 0, engine),
            runSlice(spec, plan, 1, engine)};
        slices[1].configHash ^= 1;
        EXPECT_EXIT(mergeCampaigns(spec, std::move(slices)),
                    ::testing::ExitedWithCode(1), "stale or mixed");
    }
    {
        // Mixed fleet: a 3-worker slice offered to a 2-slice merge.
        std::vector<CampaignWorkerSlice> slices = {
            runSlice(spec, plan, 0, engine),
            runSlice(spec, plan, 1, engine)};
        slices[1].workerCount = 3;
        EXPECT_EXIT(mergeCampaigns(spec, std::move(slices)),
                    ::testing::ExitedWithCode(1),
                    "partial or mixed fleet");
    }
    {
        // Aggregate that does not cover its claimed range.
        std::vector<CampaignWorkerSlice> slices = {
            runSlice(spec, plan, 0, engine),
            runSlice(spec, plan, 1, engine)};
        slices[1].aggregate.trials -= 1;
        EXPECT_EXIT(mergeCampaigns(spec, std::move(slices)),
                    ::testing::ExitedWithCode(1),
                    "incomplete worker");
    }
}

TEST(LoadSliceDeathTest, MissingSwappedAndUnfinishedLogsAreFatal)
{
    SimEngine engine(SimEngine::Options{1});
    const CampaignSpec spec = multiprocSpec();
    const WorkerPlan plan(spec, 2);
    TempFleet fleet(tempPath("load"));

    // No log at all: the worker never ran.
    EXPECT_EXIT(loadWorkerSlice(workerCheckpointPath(fleet.base, 0),
                                spec, plan, 0),
                ::testing::ExitedWithCode(1), "run the worker");

    CampaignDriver driver(spec, &engine);
    CampaignRunOptions o0;
    o0.checkpointPath = workerCheckpointPath(fleet.base, 0);
    driver.runWorker(plan, 0, o0);

    // Swapped logs: worker 0's file offered as worker 1's.
    EXPECT_EXIT(loadWorkerSlice(o0.checkpointPath, spec, plan, 1),
                ::testing::ExitedWithCode(1),
                "worker stamp mismatch");

    // Unfinished worker: interrupted after one epoch, then merged.
    CampaignRunOptions o1;
    o1.checkpointPath = workerCheckpointPath(fleet.base, 1);
    o1.maxEpochs = 1;
    CampaignRunResult partial = driver.runWorker(plan, 1, o1);
    ASSERT_TRUE(partial.interrupted);
    EXPECT_EXIT(loadWorkerSlice(o1.checkpointPath, spec, plan, 1),
                ::testing::ExitedWithCode(1),
                "resume the worker to completion");
}

// --- the partition ------------------------------------------------------

TEST(WorkerPlan, SplitsAreContiguousBalancedAndExhaustive)
{
    const CampaignSpec spec = multiprocSpec();
    for (std::uint32_t workers : {1u, 2u, 3u, 4u, 7u, 64u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        const WorkerPlan plan(spec, workers);
        std::uint64_t cursor = 0;
        const std::uint64_t lo = spec.channels / workers;
        for (std::uint32_t id = 0; id < workers; ++id) {
            const WorkerRange r = plan.range(id);
            EXPECT_EQ(r.begin, cursor); // contiguous, in id order
            EXPECT_GE(r.trials(), lo);  // balanced to within one
            EXPECT_LE(r.trials(), lo + 1);
            cursor = r.end;
        }
        EXPECT_EQ(cursor, spec.channels); // exhaustive
    }
}

TEST(WorkerPlan, MoreWorkersThanTrialsYieldsEmptyTrailingRanges)
{
    CampaignSpec spec = multiprocSpec();
    spec.channels = 3;
    const WorkerPlan plan(spec, 5);
    EXPECT_EQ(plan.range(0).trials(), 1u);
    EXPECT_EQ(plan.range(2).trials(), 1u);
    EXPECT_TRUE(plan.range(3).empty());
    EXPECT_TRUE(plan.range(4).empty());
    EXPECT_EQ(plan.range(4).begin, 3u);
}

// --- cross-worker digest equality --------------------------------------

TEST(CampaignMultiproc, MergedDigestMatchesGoldenAtEveryWorkerCount)
{
    // The tentpole invariant: N workers, any thread count, merged in
    // worker order == the single-process golden, bit for bit.
    const CampaignSpec spec = multiprocSpec();
    for (std::uint32_t workers : {1u, 2u, 4u, 7u}) {
        for (int threads : {1, 2, 7}) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " threads=" + std::to_string(threads));
            SimEngine engine(SimEngine::Options{threads});
            const WorkerPlan plan(spec, workers);
            std::vector<CampaignWorkerSlice> slices;
            for (std::uint32_t id = 0; id < workers; ++id)
                slices.push_back(runSlice(spec, plan, id, engine));
            const CampaignRunResult merged =
                mergeCampaigns(spec, std::move(slices));
            EXPECT_EQ(merged.aggregate.trials, spec.channels);
            EXPECT_EQ(merged.digest(spec), kGoldenDigest);
        }
    }
}

TEST(CampaignMultiproc, WorkerCheckpointResumeThenMergeMatchesGolden)
{
    // Interrupt every worker after one epoch, resume each from its
    // stamped log, load the finished slices from disk, merge.
    const CampaignSpec spec = multiprocSpec();
    SimEngine engine(SimEngine::Options{2});
    CampaignDriver driver(spec, &engine);
    const WorkerPlan plan(spec, 4);
    TempFleet fleet(tempPath("resume"));

    for (std::uint32_t id = 0; id < plan.workers(); ++id) {
        CampaignRunOptions head;
        head.checkpointPath = workerCheckpointPath(fleet.base, id);
        head.maxEpochs = 1;
        CampaignRunResult first = driver.runWorker(plan, id, head);
        ASSERT_TRUE(first.interrupted);

        CampaignRunOptions tail;
        tail.checkpointPath = head.checkpointPath;
        CampaignRunResult rest = driver.runWorker(plan, id, tail);
        EXPECT_FALSE(rest.interrupted);
        EXPECT_GT(rest.resumedFromTrial, plan.range(id).begin);
    }

    std::vector<CampaignWorkerSlice> slices;
    for (std::uint32_t id = 0; id < plan.workers(); ++id)
        slices.push_back(loadWorkerSlice(
            workerCheckpointPath(fleet.base, id), spec, plan, id));
    const CampaignRunResult merged =
        mergeCampaigns(spec, std::move(slices));
    EXPECT_EQ(merged.digest(spec), kGoldenDigest);
}

TEST(CampaignMultiproc, SigkilledWorkerResumesAndMergeMatchesGolden)
{
    // The real thing: fork one child per worker, SIGKILL one of them
    // mid-epoch (possibly mid-append), resume the casualty in this
    // process, merge from the logs.  1-thread engines keep the
    // fork() clean of engine workers.
    const CampaignSpec spec = multiprocSpec();
    const WorkerPlan plan(spec, 4);
    constexpr std::uint32_t kVictim = 1;
    TempFleet fleet(tempPath("sigkill"));

    std::vector<pid_t> pids(plan.workers(), -1);
    for (std::uint32_t id = 0; id < plan.workers(); ++id) {
        const pid_t pid = ::fork();
        ASSERT_NE(pid, -1);
        if (pid == 0) {
            SimEngine child_engine(SimEngine::Options{1});
            CampaignDriver child(spec, &child_engine);
            CampaignRunOptions o;
            o.checkpointPath =
                workerCheckpointPath(fleet.base, id);
            child.runWorker(plan, id, o);
            ::_exit(0);
        }
        pids[id] = pid;
    }

    // Kill the victim once its log outgrows the header: at least one
    // epoch record is then sealed or mid-append (the torn-tail case
    // recovery must absorb).  If it finishes first, resume-from-
    // complete is equality too.
    const std::string victim_log =
        workerCheckpointPath(fleet.base, kVictim);
    const std::size_t kill_after =
        kFrameOverheadBytes + kHeaderPayloadBytes + 1;
    bool reaped = false;
    for (int spin = 0; spin < 20000; ++spin) {
        std::error_code ec;
        const auto size = std::filesystem::file_size(victim_log, ec);
        if (!ec && size >= kill_after)
            break;
        int status = 0;
        if (::waitpid(pids[kVictim], &status, WNOHANG) ==
            pids[kVictim]) {
            reaped = true;
            break;
        }
        ::usleep(100);
    }
    if (!reaped) {
        ::kill(pids[kVictim], SIGKILL);
        int status = 0;
        ASSERT_EQ(::waitpid(pids[kVictim], &status, 0), pids[kVictim]);
    }
    for (std::uint32_t id = 0; id < plan.workers(); ++id) {
        if (id == kVictim)
            continue;
        int status = 0;
        ASSERT_EQ(::waitpid(pids[id], &status, 0), pids[id]);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    // Resume the casualty in-process, then merge the whole fleet.
    SimEngine engine(SimEngine::Options{1});
    CampaignDriver driver(spec, &engine);
    CampaignRunOptions resume;
    resume.checkpointPath = victim_log;
    CampaignRunResult resumed =
        driver.runWorker(plan, kVictim, resume);
    EXPECT_FALSE(resumed.interrupted);

    std::vector<CampaignWorkerSlice> slices;
    for (std::uint32_t id = 0; id < plan.workers(); ++id)
        slices.push_back(loadWorkerSlice(
            workerCheckpointPath(fleet.base, id), spec, plan, id));
    const CampaignRunResult merged =
        mergeCampaigns(spec, std::move(slices));
    EXPECT_EQ(merged.digest(spec), kGoldenDigest);
}

// --- merge-order / associativity property fuzz -------------------------

TEST(CampaignMultiproc, RandomSplitsFoldToTheUnsplitBytes)
{
    // Property: ANY contiguous split of the trial space -- not just
    // WorkerPlan's balanced one, and including empty ranges -- folds
    // in worker order to the unsplit aggregate's exact serialized
    // bytes.  This is the dyadic-rational exactness argument from
    // campaign.hh, pinned to the byte.
    CampaignSpec spec = multiprocSpec();
    spec.channels = 640; // smaller fleet: many random splits, fast
    SimEngine engine(SimEngine::Options{2});
    CampaignDriver driver(spec, &engine);

    const CampaignAggregate whole =
        driver.runTrials(0, spec.channels);
    std::vector<std::uint8_t> whole_bytes;
    whole.serializeTo(whole_bytes);

    const std::uint64_t fuzz_seed = 0x4a69616e4b313321ULL;
    std::printf("[ fuzz ] seed %016llx\n",
                static_cast<unsigned long long>(fuzz_seed));
    FuzzRng rng{fuzz_seed};

    for (int round = 0; round < 12; ++round) {
        SCOPED_TRACE("round=" + std::to_string(round));
        // 1..9 cut points, duplicates allowed => empty ranges.
        const std::uint32_t cuts =
            1 + static_cast<std::uint32_t>(rng.below(9));
        std::vector<std::uint64_t> bounds = {0, spec.channels};
        for (std::uint32_t c = 0; c < cuts; ++c)
            bounds.push_back(rng.below(spec.channels + 1));
        std::sort(bounds.begin(), bounds.end());

        std::vector<CampaignWorkerSlice> slices;
        const auto count =
            static_cast<std::uint32_t>(bounds.size() - 1);
        for (std::uint32_t id = 0; id < count; ++id)
            slices.push_back(madeSlice(spec, driver, id, count,
                                       bounds[id], bounds[id + 1]));
        const CampaignRunResult merged =
            mergeCampaigns(spec, std::move(slices));

        // Byte-exact: the merged aggregate serializes identically.
        std::vector<std::uint8_t> merged_bytes;
        merged.aggregate.serializeTo(merged_bytes);
        EXPECT_EQ(merged_bytes, whole_bytes);

        // And the observable endpoints agree exactly too.
        const StreamingHistogram &a = merged.aggregate.affectedHist;
        const StreamingHistogram &b = whole.affectedHist;
        EXPECT_EQ(a.min(), b.min());
        EXPECT_EQ(a.max(), b.max());
        EXPECT_EQ(a.sum(), b.sum());
        EXPECT_EQ(a.quantile(0.0), b.quantile(0.0));
        EXPECT_EQ(a.quantile(0.5), b.quantile(0.5));
        EXPECT_EQ(a.quantile(0.99), b.quantile(0.99));
        EXPECT_EQ(a.quantile(1.0), b.quantile(1.0));
        EXPECT_EQ(merged.aggregate.affectedSum, whole.affectedSum);
        EXPECT_EQ(merged.aggregate.hash(), whole.hash());
    }
}

// --- global-engine golden (kept last: it starts the global engine) -----

TEST(CampaignMultiprocGolden, MergedDigestOnTheGlobalEngine)
{
    // CI runs this at ARCC_THREADS=1 and 4; both must reproduce the
    // same golden the single-process global-engine test pins.
    const CampaignSpec spec = multiprocSpec();
    const WorkerPlan plan(spec, 4);
    CampaignDriver driver(spec);
    std::vector<CampaignWorkerSlice> slices;
    for (std::uint32_t id = 0; id < plan.workers(); ++id)
        slices.push_back(
            workerSlice(spec, plan, id, driver.runWorker(plan, id)));
    const CampaignRunResult merged =
        mergeCampaigns(spec, std::move(slices));
    EXPECT_EQ(merged.digest(spec), kGoldenDigest);
}

} // namespace
} // namespace arcc
