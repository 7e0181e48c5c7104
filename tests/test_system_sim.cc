/**
 * @file
 * System-simulator tests: the fault-free ARCC vs baseline deltas and
 * the upgraded-page effects that drive Figures 7.1-7.3.
 */

#include <gtest/gtest.h>

#include "cpu/system_sim.hh"

namespace arcc
{
namespace
{

SystemConfig
quickConfig(const MemoryConfig &mem)
{
    SystemConfig cfg;
    cfg.mem = mem;
    cfg.instrsPerCore = 300'000;
    cfg.seed = 11;
    return cfg;
}

TEST(PageUpgradeOracle, ScenarioFractionsMatchTable74)
{
    MemoryConfig cfg = arccConfig();
    using S = PageUpgradeOracle::Scenario;
    EXPECT_DOUBLE_EQ(
        PageUpgradeOracle::forScenario(S::Lane, cfg).expectedFraction(),
        1.0);
    EXPECT_DOUBLE_EQ(PageUpgradeOracle::forScenario(S::Device, cfg)
                         .expectedFraction(),
                     0.5);
    EXPECT_DOUBLE_EQ(
        PageUpgradeOracle::forScenario(S::Bank, cfg).expectedFraction(),
        1.0 / 16);
    EXPECT_DOUBLE_EQ(PageUpgradeOracle::forScenario(S::Column, cfg)
                         .expectedFraction(),
                     1.0 / 32);

    // The names the CLI and the service accept resolve to the
    // scenarios; any other name is refused.
    EXPECT_STREQ(PageUpgradeOracle::kScenarioNames,
                 "none|lane|device|bank|column");
    EXPECT_EQ(PageUpgradeOracle::scenarioByName("none"), S::None);
    EXPECT_EQ(PageUpgradeOracle::scenarioByName("lane"), S::Lane);
    EXPECT_EQ(PageUpgradeOracle::scenarioByName("device"), S::Device);
    EXPECT_EQ(PageUpgradeOracle::scenarioByName("bank"), S::Bank);
    EXPECT_EQ(PageUpgradeOracle::scenarioByName("column"), S::Column);
    for (const char *bad : {"", "Lane", "subbank", "fraction", "row"})
        EXPECT_FALSE(PageUpgradeOracle::scenarioByName(bad)) << bad;
}

TEST(PageUpgradeOracle, DecisionsArePageGranular)
{
    MemoryConfig cfg = arccConfig();
    auto oracle = PageUpgradeOracle::forScenario(
        PageUpgradeOracle::Scenario::Column, cfg);
    Rng rng(1);
    AddressMap map(cfg);
    for (int t = 0; t < 300; ++t) {
        std::uint64_t page = rng.below(map.capacity() / kPageBytes);
        bool first = oracle.upgraded(page * kPageBytes);
        for (int l = 1; l < 64; l += 7) {
            EXPECT_EQ(oracle.upgraded(page * kPageBytes +
                                      l * kLineBytes),
                      first);
        }
    }
}

TEST(PageUpgradeOracle, StructuredFractionsMatchMeasured)
{
    MemoryConfig cfg = arccConfig();
    AddressMap map(cfg);
    Rng rng(2);
    for (auto s : {PageUpgradeOracle::Scenario::Device,
                   PageUpgradeOracle::Scenario::Bank,
                   PageUpgradeOracle::Scenario::Column}) {
        auto oracle = PageUpgradeOracle::forScenario(s, cfg);
        int upgraded = 0;
        const int n = 20000;
        for (int i = 0; i < n; ++i) {
            std::uint64_t page = rng.below(map.capacity() / kPageBytes);
            upgraded += oracle.upgraded(page * kPageBytes);
        }
        EXPECT_NEAR(static_cast<double>(upgraded) / n,
                    oracle.expectedFraction(),
                    0.01)
            << PageUpgradeOracle::name(s);
    }
}

TEST(PageUpgradeOracle, FractionOracleHitsItsTarget)
{
    auto oracle = PageUpgradeOracle::forFraction(0.2);
    Rng rng(3);
    int upgraded = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        upgraded += oracle.upgraded(rng.below(1ULL << 32));
    EXPECT_NEAR(static_cast<double>(upgraded) / n, 0.2, 0.01);
}

TEST(SystemSim, RunsAllCoresToCompletion)
{
    SystemConfig cfg = quickConfig(arccConfig());
    SimResult res = simulateMix(table73Mixes()[0], cfg, {});
    ASSERT_EQ(res.cores.size(), 4u);
    for (const auto &c : res.cores) {
        EXPECT_GE(c.instrs, cfg.instrsPerCore);
        EXPECT_GT(c.ipc, 0.0);
        EXPECT_LE(c.ipc, 2.0);
    }
    EXPECT_GT(res.ipcSum, 0.0);
    EXPECT_GT(res.avgPowerMw, 0.0);
    EXPECT_GT(res.memReads, 0u);
}

TEST(SystemSim, ArccBeatsBaselinePowerFaultFree)
{
    // The headline of Figure 7.1: ~36% lower memory power with no
    // faults.  Assert a healthy band rather than the point estimate.
    SimResult base = simulateMix(table73Mixes()[1],
                                 quickConfig(baselineConfig()), {});
    SimResult ar =
        simulateMix(table73Mixes()[1], quickConfig(arccConfig()), {});
    double saving = 1.0 - ar.avgPowerMw / base.avgPowerMw;
    EXPECT_GT(saving, 0.20);
    EXPECT_LT(saving, 0.55);
}

TEST(SystemSim, ArccPerformanceIsNotWorseFaultFree)
{
    SimResult base = simulateMix(table73Mixes()[6],
                                 quickConfig(baselineConfig()), {});
    SimResult ar =
        simulateMix(table73Mixes()[6], quickConfig(arccConfig()), {});
    EXPECT_GT(ar.ipcSum, base.ipcSum * 0.98)
        << "twice the ranks should not hurt performance";
}

TEST(SystemSim, UpgradedPagesRaisePower)
{
    SystemConfig cfg = quickConfig(arccConfig());
    SimResult clean = simulateMix(table73Mixes()[1], cfg, {});
    auto lane = PageUpgradeOracle::forScenario(
        PageUpgradeOracle::Scenario::Lane, cfg.mem);
    SimResult faulty = simulateMix(table73Mixes()[1], cfg, lane);
    EXPECT_GT(faulty.avgPowerMw, clean.avgPowerMw * 1.02);
    // Worst case bound: a lane fault cannot more than double power.
    EXPECT_LT(faulty.avgPowerMw, clean.avgPowerMw * 2.05);
}

TEST(SystemSim, SmallerFaultsCostLessPower)
{
    SystemConfig cfg = quickConfig(arccConfig());
    using S = PageUpgradeOracle::Scenario;
    SimResult lane = simulateMix(
        table73Mixes()[4], cfg,
        PageUpgradeOracle::forScenario(S::Lane, cfg.mem));
    SimResult column = simulateMix(
        table73Mixes()[4], cfg,
        PageUpgradeOracle::forScenario(S::Column, cfg.mem));
    EXPECT_LT(column.avgPowerMw, lane.avgPowerMw);
}

TEST(SystemSim, SpatialWorkloadsKeepPrefetchBenefit)
{
    // A lane fault upgrades everything: every miss fetches 128B.  For
    // a high-spatial-locality mix the sibling line is useful, so the
    // LLC miss count must drop relative to the clean run.
    SystemConfig cfg = quickConfig(arccConfig());
    WorkloadMix streaming{"stream", {"libquantum", "swim", "leslie3d",
                                     "lbm"}};
    SimResult clean = simulateMix(streaming, cfg, {});
    auto lane = PageUpgradeOracle::forScenario(
        PageUpgradeOracle::Scenario::Lane, cfg.mem);
    SimResult faulty = simulateMix(streaming, cfg, lane);
    double clean_mr = clean.llcStats.missRate();
    double faulty_mr = faulty.llcStats.missRate();
    EXPECT_LT(faulty_mr, clean_mr * 0.85)
        << "the paired fill must act as a prefetch";
}

TEST(SystemSim, ResultsAreDeterministic)
{
    SystemConfig cfg = quickConfig(arccConfig());
    cfg.instrsPerCore = 100'000;
    SimResult a = simulateMix(table73Mixes()[2], cfg, {});
    SimResult b = simulateMix(table73Mixes()[2], cfg, {});
    EXPECT_DOUBLE_EQ(a.ipcSum, b.ipcSum);
    EXPECT_DOUBLE_EQ(a.avgPowerMw, b.avgPowerMw);
}

TEST(SystemSim, SectoredLlcAlsoRuns)
{
    SystemConfig cfg = quickConfig(arccConfig());
    cfg.sectoredLlc = true;
    cfg.instrsPerCore = 100'000;
    SimResult res = simulateMix(table73Mixes()[0], cfg, {});
    EXPECT_GT(res.ipcSum, 0.0);
}

TEST(SystemSim, CoreCountIsConfigurable)
{
    // The model historically hard-wired 4 cores; any count works now.
    for (int n : {1, 2, 6}) {
        SystemConfig cfg = quickConfig(arccConfig());
        cfg.cores = n;
        cfg.instrsPerCore = 50'000;
        WorkloadMix mix{"custom", {}};
        for (int i = 0; i < n; ++i)
            mix.benchmarks.push_back(i % 2 ? "milc" : "mcf2006");
        SimResult res = simulateMix(mix, cfg, {});
        ASSERT_EQ(res.cores.size(), static_cast<std::size_t>(n));
        for (const auto &c : res.cores) {
            EXPECT_GE(c.instrs, cfg.instrsPerCore);
            EXPECT_GT(c.ipc, 0.0);
        }
    }
}

TEST(SystemSimDeathTest, StreamCountMustMatchConfiguredCores)
{
    SystemConfig cfg = quickConfig(arccConfig()); // cores = 4
    std::vector<StreamSpec> streams(3);
    for (auto &s : streams) {
        s.next = [] { return CoreWorkload::Access{0, false, 100}; };
        s.baseIpc = 1.0;
    }
    EXPECT_DEATH(simulateStreams(std::move(streams), cfg, {}),
                 "config.cores");
}

TEST(SystemSim, BackgroundScrubCostsIpcAndShowsUpInTraffic)
{
    // Interleaved scrubbing must compete with demand traffic: with
    // the sweep period compressed so many visits land inside the run
    // window, reported IPC drops and the scrub counters show the
    // absorbed accesses (3 reads + 3 writes per line visit).
    SystemConfig cfg = quickConfig(arccConfig());
    cfg.instrsPerCore = 150'000;
    SimResult clean = simulateMix(table73Mixes()[8], cfg, {});

    cfg.backgroundScrub.enabled = true;
    cfg.backgroundScrub.periodHours = 0.02;
    SimResult scrubbed = simulateMix(table73Mixes()[8], cfg, {});

    EXPECT_GT(scrubbed.scrubReads, 0u);
    EXPECT_EQ(scrubbed.scrubReads, scrubbed.scrubWrites);
    EXPECT_EQ(clean.scrubReads, 0u);
    EXPECT_LT(scrubbed.ipcSum, clean.ipcSum);

    // Halving the period roughly doubles the injected traffic.
    cfg.backgroundScrub.periodHours = 0.01;
    SimResult faster = simulateMix(table73Mixes()[8], cfg, {});
    EXPECT_GT(faster.scrubReads, scrubbed.scrubReads * 3 / 2);
    EXPECT_LT(faster.ipcSum, clean.ipcSum);
}

TEST(SystemSim, PlainScrubSkipsTestPatternPasses)
{
    // testPatterns=false is the conventional read+restore scrubber:
    // 2 accesses per line visit instead of 6, so a third the traffic.
    SystemConfig cfg = quickConfig(arccConfig());
    cfg.instrsPerCore = 100'000;
    cfg.backgroundScrub.enabled = true;
    cfg.backgroundScrub.periodHours = 0.02;
    SimResult patterns = simulateMix(table73Mixes()[8], cfg, {});
    cfg.backgroundScrub.testPatterns = false;
    SimResult plain = simulateMix(table73Mixes()[8], cfg, {});
    std::uint64_t pat =
        patterns.scrubReads + patterns.scrubWrites;
    std::uint64_t pl = plain.scrubReads + plain.scrubWrites;
    EXPECT_NEAR(static_cast<double>(pl) / pat, 1.0 / 3.0, 0.05);
}

/** The configuration the figure benches run the Table 7.3 mixes on. */
SystemConfig
figureConfig(const MemoryConfig &mem, std::uint64_t instrs)
{
    SystemConfig cfg;
    cfg.mem = mem;
    cfg.instrsPerCore = instrs;
    cfg.seed = 20130223;
    return cfg;
}

/**
 * Mean over the 12 Table 7.3 mixes of each scenario's power divided by
 * the mix's fault-free power on the ARCC configuration (Figure 7.2).
 */
std::vector<double>
meanNormalisedPower(std::uint64_t instrs,
                    const std::vector<PageUpgradeOracle::Scenario> &faults)
{
    const SystemConfig cfg = figureConfig(arccConfig(), instrs);
    const std::size_t per_mix = faults.size() + 1;
    std::vector<MixJob> jobs;
    for (const WorkloadMix &mix : table73Mixes()) {
        jobs.push_back({mix, cfg, {}});
        for (PageUpgradeOracle::Scenario s : faults)
            jobs.push_back(
                {mix, cfg, PageUpgradeOracle::forScenario(s, cfg.mem)});
    }
    const std::vector<SimResult> r = simulateMixBatch(jobs);
    std::vector<double> mean(faults.size(), 0.0);
    const std::size_t mixes = table73Mixes().size();
    for (std::size_t m = 0; m < mixes; ++m)
        for (std::size_t f = 0; f < faults.size(); ++f)
            mean[f] += r[m * per_mix + 1 + f].avgPowerMw /
                       r[m * per_mix].avgPowerMw / mixes;
    return mean;
}

TEST(SystemSim, FaultPowerOverheadIsStableInTheBudget)
{
    // Figure 7.2's normalised power is a property of the workload and
    // the fault, not of how long the run is: a 20x longer run must
    // agree.
    using S = PageUpgradeOracle::Scenario;
    const std::vector<S> faults = {S::Lane, S::Device};
    const std::vector<double> short_run =
        meanNormalisedPower(200'000, faults);
    const std::vector<double> long_run =
        meanNormalisedPower(4'000'000, faults);
    for (std::size_t f = 0; f < faults.size(); ++f) {
        SCOPED_TRACE(PageUpgradeOracle::name(faults[f]));
        EXPECT_NEAR(short_run[f], long_run[f], 0.03);
        EXPECT_GT(short_run[f], 1.0);
    }
}

TEST(SystemSim, BackgroundPowerNeverExceedsAllDevicesActive)
{
    // Every device in active standby for the whole run is the most
    // background power a memory system can draw; more means energy
    // was charged for time outside the reported run.  All 72 Figure 7
    // jobs: per mix the baseline, then ARCC fault-free and under each
    // Table 7.4 fault.
    using S = PageUpgradeOracle::Scenario;
    const SystemConfig base = figureConfig(baselineConfig(), 200'000);
    const SystemConfig arcc = figureConfig(arccConfig(), 200'000);
    std::vector<MixJob> jobs;
    for (const WorkloadMix &mix : table73Mixes()) {
        jobs.push_back({mix, base, {}});
        jobs.push_back({mix, arcc, {}});
        for (S s : {S::Lane, S::Device, S::Bank, S::Column})
            jobs.push_back(
                {mix, arcc, PageUpgradeOracle::forScenario(s, arcc.mem)});
    }
    const std::vector<SimResult> results = simulateMixBatch(jobs);
    ASSERT_EQ(results.size(), 72u);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const MemoryConfig &mem = jobs[j].config.mem;
        const SimResult &r = results[j];
        // nJ / ns = W; the device powers are in mW.
        const double background_mw =
            r.power.backgroundNj / r.elapsedNs * 1e3;
        const double ceiling_mw =
            mem.totalDevices() * mem.device.pActiveStandby();
        EXPECT_LE(background_mw, ceiling_mw)
            << "job " << j << ": " << jobs[j].mix.name << " on "
            << mem.name << ", "
            << PageUpgradeOracle::name(jobs[j].oracle.scenario());
    }
}

TEST(SystemSim, PairingPolicyPointerIsNotSlower)
{
    SystemConfig fifo = quickConfig(arccConfig());
    fifo.ctrl.pairing = PairingPolicy::FifoPartition;
    fifo.instrsPerCore = 150'000;
    SystemConfig ptr = fifo;
    ptr.ctrl.pairing = PairingPolicy::Pointer;
    auto lane = PageUpgradeOracle::forScenario(
        PageUpgradeOracle::Scenario::Lane, fifo.mem);
    SimResult rf = simulateMix(table73Mixes()[9], fifo, lane);
    SimResult rp = simulateMix(table73Mixes()[9], ptr, lane);
    EXPECT_GE(rp.ipcSum, rf.ipcSum * 0.98);
}

} // namespace
} // namespace arcc
