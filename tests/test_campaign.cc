/**
 * @file
 * Campaign-driver tests: spec validation, decomposition invariance,
 * interrupt/resume digest equality, campaign-layer record
 * monotonicity (duplicates / reorders / layout drift are fatal), and
 * a real SIGKILL mid-campaign followed by a bit-identical resume.
 *
 * Every engine in this file is a 1-thread local engine, which starts
 * no worker: the SIGKILL test fork()s, and a forked child must never
 * inherit an engine whose workers, and any lock they held, stayed in
 * the parent.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
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

std::string
tempPath(const std::string &tag)
{
    return (std::filesystem::temp_directory_path() /
            ("arcc_test_campaign." + tag + "." +
             std::to_string(::getpid())))
        .string();
}

struct TempFile
{
    explicit TempFile(std::string p) : path(std::move(p)) {}
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

/** Small but non-trivial spec shared by most tests. */
CampaignSpec
testSpec()
{
    CampaignSpec spec;
    spec.channels = 512;
    spec.epochTrials = 64;
    spec.shardTrials = 16;
    spec.seed = 20130223;
    return spec;
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

TEST(Campaign, SpecValidation)
{
    SimEngine engine(SimEngine::Options{1});
    CampaignSpec spec = testSpec();
    spec.devicesPerGroup = 18; // divides 72
    CampaignDriver ok(spec, &engine);
    EXPECT_EQ(ok.spec().channels, 512u);

    EXPECT_EQ(spec.epochCount(), 8u);
    EXPECT_EQ(spec.epochEnd(0), 64u);
    EXPECT_EQ(spec.epochEnd(7), 512u);
    spec.channels = 500; // short last epoch
    EXPECT_EQ(spec.epochCount(), 8u);
    EXPECT_EQ(spec.epochEnd(7), 500u);

    // 57.2 FIT x 100 x 72 devices x 5 years of 8766 hours.
    EXPECT_NEAR(spec.expectedFaultsPerTrial(), 18.051, 0.001);
}

TEST(CampaignDeathTest, BadSpecsAreFatal)
{
    SimEngine engine(SimEngine::Options{1});
    {
        CampaignSpec s = testSpec();
        s.channels = 0;
        EXPECT_EXIT(CampaignDriver(s, &engine),
                    ::testing::ExitedWithCode(1), "zero channels");
    }
    {
        CampaignSpec s = testSpec();
        s.epochTrials = 0;
        EXPECT_EXIT(CampaignDriver(s, &engine),
                    ::testing::ExitedWithCode(1), "zero epochTrials");
    }
    {
        CampaignSpec s = testSpec();
        s.devicesPerGroup = 17; // does not divide 72
        EXPECT_EXIT(CampaignDriver(s, &engine),
                    ::testing::ExitedWithCode(1), "does not divide");
    }
    {
        // About 3.6e10 expected faults: ~1 TB of events per trial.
        CampaignSpec s = testSpec();
        s.rateBoost = 1e9;
        s.years = 1000.0;
        EXPECT_EXIT(CampaignDriver(s, &engine),
                    ::testing::ExitedWithCode(1),
                    "a trial expects 3.6.*e\\+10 faults");
    }
    {
        // Just past the limit: 101,015 expected faults.
        CampaignSpec s = testSpec();
        s.rateBoost = 140000.0;
        s.years = 20.0;
        EXPECT_EXIT(CampaignDriver(s, &engine),
                    ::testing::ExitedWithCode(1), "the limit is 100000");
    }
}

TEST(Campaign, ConfigHashSeparatesExperiments)
{
    CampaignSpec a = testSpec();
    CampaignSpec b = a;
    EXPECT_EQ(a.configHash(), b.configHash());
    b.devicesPerGroup = 36;
    EXPECT_NE(a.configHash(), b.configHash());
    b = a;
    b.epochTrials = 128; // epoch layout is part of the experiment
    EXPECT_NE(a.configHash(), b.configHash());
    // The seed is carried separately, not hashed.
    b = a;
    b.seed = 999;
    EXPECT_EQ(a.configHash(), b.configHash());
}

TEST(Campaign, EpochDecompositionMatchesSerialKernel)
{
    // The engine-sharded, epoch-folded run must agree exactly with
    // one serial pass of the trial kernel on all integer state.
    SimEngine engine(SimEngine::Options{1});
    CampaignSpec spec = testSpec();
    CampaignDriver driver(spec, &engine);

    CampaignAggregate serial = driver.runTrials(0, spec.channels);
    CampaignRunResult run = driver.run();

    EXPECT_EQ(run.aggregate.trials, serial.trials);
    EXPECT_EQ(run.aggregate.faultsSampled, serial.faultsSampled);
    EXPECT_EQ(run.aggregate.trialsWithFault, serial.trialsWithFault);
    EXPECT_EQ(run.aggregate.sdcCandidates, serial.sdcCandidates);
    EXPECT_EQ(run.aggregate.dueCandidates, serial.dueCandidates);
    EXPECT_EQ(run.aggregate.affectedHist.hash(),
              serial.affectedHist.hash());
    EXPECT_EQ(run.aggregate.faultHist.hash(), serial.faultHist.hash());
    EXPECT_EQ(run.epochsRun, spec.epochCount());
    EXPECT_FALSE(run.interrupted);
    EXPECT_GT(run.aggregate.faultsSampled, 0u);
}

TEST(Campaign, InterruptAndResumeIsBitIdentical)
{
    SimEngine engine(SimEngine::Options{1});
    CampaignSpec spec = testSpec();
    CampaignDriver driver(spec, &engine);
    const std::uint64_t golden = driver.run().digest(spec);

    for (std::uint64_t split : {1u, 3u, 7u}) {
        SCOPED_TRACE("split=" + std::to_string(split));
        TempFile ckpt(tempPath("resume." + std::to_string(split)));

        CampaignRunOptions first;
        first.checkpointPath = ckpt.path;
        first.maxEpochs = split;
        CampaignRunResult partial = driver.run(first);
        EXPECT_TRUE(partial.interrupted);
        EXPECT_EQ(partial.epochsRun, split);
        EXPECT_NE(partial.digest(spec), golden);

        CampaignRunOptions rest;
        rest.checkpointPath = ckpt.path;
        CampaignRunResult resumed = driver.run(rest);
        EXPECT_FALSE(resumed.interrupted);
        EXPECT_EQ(resumed.resumedFromTrial,
                  split * spec.epochTrials);
        EXPECT_EQ(resumed.epochsRun, spec.epochCount() - split);
        EXPECT_EQ(resumed.digest(spec), golden);
    }
}

TEST(Campaign, StopRequestedSealsAndResumes)
{
    SimEngine engine(SimEngine::Options{1});
    CampaignSpec spec = testSpec();
    CampaignDriver driver(spec, &engine);
    const std::uint64_t golden = driver.run().digest(spec);

    TempFile ckpt(tempPath("sigstop"));
    int epochs_seen = 0;
    CampaignRunOptions stopping;
    stopping.checkpointPath = ckpt.path;
    stopping.stopRequested = [&] { return ++epochs_seen > 2; };
    CampaignRunResult partial = driver.run(stopping);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_EQ(partial.epochsRun, 2u);

    CampaignRunOptions rest;
    rest.checkpointPath = ckpt.path;
    EXPECT_EQ(driver.run(rest).digest(spec), golden);
}

TEST(Campaign, ResumeFromCompleteLogIsANoOp)
{
    SimEngine engine(SimEngine::Options{1});
    CampaignSpec spec = testSpec();
    CampaignDriver driver(spec, &engine);
    TempFile ckpt(tempPath("complete"));

    CampaignRunOptions options;
    options.checkpointPath = ckpt.path;
    const std::uint64_t golden = driver.run(options).digest(spec);
    // Checkpointing a whole run leaves its digest unchanged.
    EXPECT_EQ(golden, driver.run().digest(spec));

    CampaignRunResult again = driver.run(options);
    EXPECT_EQ(again.epochsRun, 0u);
    EXPECT_EQ(again.resumedFromTrial, spec.channels);
    EXPECT_FALSE(again.interrupted);
    EXPECT_EQ(again.digest(spec), golden);
}

TEST(CampaignDeathTest, DuplicatedOrReorderedRecordsAreFatal)
{
    // The checkpoint layer validates framing; epoch monotonicity is
    // the campaign's job.  A duplicated sealed record (e.g. a log
    // doctored or double-played) must refuse to resume.
    SimEngine engine(SimEngine::Options{1});
    CampaignSpec spec = testSpec();
    CampaignDriver driver(spec, &engine);
    TempFile ckpt(tempPath("duplicate"));

    CampaignRunOptions two;
    two.checkpointPath = ckpt.path;
    two.maxEpochs = 2;
    driver.run(two);

    // Duplicate the last sealed frame byte-for-byte.
    std::vector<std::uint8_t> bytes;
    {
        std::ifstream in(ckpt.path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    std::size_t off = 0;
    std::size_t last = 0;
    while (off < bytes.size()) {
        last = off;
        std::uint32_t len = 0;
        for (int i = 3; i >= 0; --i)
            len = (len << 8) | bytes[off + i];
        off += kFrameOverheadBytes + len;
    }
    {
        std::ofstream out(ckpt.path,
                          std::ios::binary | std::ios::app);
        out.write(reinterpret_cast<const char *>(bytes.data() + last),
                  static_cast<std::streamsize>(bytes.size() - last));
    }

    CampaignRunOptions resume;
    resume.checkpointPath = ckpt.path;
    EXPECT_EXIT(driver.run(resume), ::testing::ExitedWithCode(1),
                "duplicated or reordered");
}

TEST(CampaignDeathTest, HandCraftedInconsistentRecordsAreFatal)
{
    SimEngine engine(SimEngine::Options{1});
    CampaignSpec spec = testSpec();
    CampaignDriver driver(spec, &engine);
    CheckpointIdentity identity;
    identity.configHash = spec.configHash();
    identity.seed = spec.seed;
    identity.endTrial = spec.channels; // whole-range single worker

    // Epoch record whose cursor does not match the spec's layout.
    TempFile layout(tempPath("layout"));
    {
        CheckpointWriter w =
            CheckpointWriter::create(layout.path, identity);
        std::vector<std::uint8_t> payload;
        putU64(payload, 0);
        putU64(payload, spec.epochTrials + 1); // wrong epoch end
        CampaignAggregate::empty().serializeTo(payload);
        w.append(payload);
    }
    CampaignRunOptions o1;
    o1.checkpointPath = layout.path;
    EXPECT_EXIT(driver.run(o1), ::testing::ExitedWithCode(1),
                "epochTrials changed");

    // Valid layout but the aggregate does not cover the cursor.
    TempFile skew(tempPath("skew"));
    {
        CheckpointWriter w =
            CheckpointWriter::create(skew.path, identity);
        std::vector<std::uint8_t> payload;
        putU64(payload, 0);
        putU64(payload, spec.epochTrials);
        CampaignAggregate::empty().serializeTo(payload); // 0 trials
        w.append(payload);
    }
    CampaignRunOptions o2;
    o2.checkpointPath = skew.path;
    EXPECT_EXIT(driver.run(o2), ::testing::ExitedWithCode(1),
                "cursor says");
}

TEST(Campaign, SigkillMidCampaignResumesBitIdentically)
{
    // The real thing: a child process is SIGKILLed while running the
    // checkpointed campaign -- possibly mid-append -- and a resume in
    // this process must land on the uninterrupted golden digest.
    // 1-thread engines keep the fork() clean of engine workers.
    CampaignSpec spec = testSpec();
    spec.channels = 4096;
    spec.epochTrials = 128;

    SimEngine engine(SimEngine::Options{1});
    CampaignDriver driver(spec, &engine);
    const std::uint64_t golden = driver.run().digest(spec);

    TempFile ckpt(tempPath("sigkill"));
    // Kill once the log has grown past the header: at that point at
    // least one epoch record is sealed or mid-append (a mid-append
    // kill is the torn-tail case recovery must absorb).
    const std::size_t kill_after =
        kFrameOverheadBytes + kHeaderPayloadBytes + 1;

    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        // Child: plain checkpointed run.  _exit keeps gtest teardown
        // from running twice.
        SimEngine child_engine(SimEngine::Options{1});
        CampaignDriver child(spec, &child_engine);
        CampaignRunOptions o;
        o.checkpointPath = ckpt.path;
        child.run(o);
        ::_exit(0);
    }

    // Parent: kill as soon as the log outgrows the header (or let
    // the child finish -- resume-from-complete is equality too).
    bool reaped = false;
    for (int spin = 0; spin < 20000; ++spin) {
        std::error_code ec;
        const auto size =
            std::filesystem::file_size(ckpt.path, ec);
        if (!ec && size >= kill_after)
            break;
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            reaped = true;
            break;
        }
        ::usleep(100);
    }
    if (!reaped) {
        ::kill(pid, SIGKILL);
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    }

    CampaignRunOptions resume;
    resume.checkpointPath = ckpt.path;
    CampaignRunResult resumed = driver.run(resume);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.aggregate.trials, spec.channels);
    EXPECT_EQ(resumed.digest(spec), golden);
}

} // namespace
} // namespace arcc
