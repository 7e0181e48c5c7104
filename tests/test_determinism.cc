/**
 * @file
 * Determinism proofs for every parallel kernel (ctest label
 * `determinism`): golden values plus N-thread-vs-1-thread equality
 * for the SDC-event Monte Carlo, the sharded scrubber, the functional
 * memory's data plane, the lifetime Monte Carlo, and the mix
 * simulation batch.
 *
 * Two kinds of test:
 *
 *  - engine-pinned: run the same kernel on engines of 1, 2 and 7
 *    executors and require bit-identical results;
 *  - golden: run through SimEngine::global() -- whose size comes from
 *    ARCC_THREADS -- and compare against hardcoded values.  CI runs
 *    this label at ARCC_THREADS=1 and 4, so a kernel whose result
 *    drifts with the thread count fails there even if it is
 *    self-consistent within one process.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>
#include <vector>

#include "arcc/scrubber.hh"
#include "campaign/campaign.hh"
#include "common/crc32c.hh"
#include "common/rng.hh"
#include "cpu/system_sim.hh"
#include "cpu/trace.hh"
#include "dram/channel_shard.hh"
#include "dram/dram_params.hh"
#include "engine/sim_engine.hh"
#include "faults/fault_matrix.hh"
#include "faults/lifetime_mc.hh"
#include "reliability/sdc_model.hh"

namespace arcc
{
namespace
{

/** The thread counts every equality test sweeps. */
const std::vector<int> kThreadCounts = {1, 2, 7};

// --- SDC-event Monte Carlo ---------------------------------------------

McSdcResult
runMc(SimEngine *engine)
{
    SdcModel model(SdcModelConfig::arccMachine());
    return model.mcArccSdcEventsDetailed(7.0, 2000.0, 300, 99, engine);
}

void
expectEqual(const McSdcResult &a, const McSdcResult &b)
{
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.faultsSampled, b.faultsSampled);
    EXPECT_EQ(a.eventHistogram, b.eventHistogram);
}

TEST(McSdcDeterminism, BitIdenticalAcrossThreadCounts)
{
    SimEngine ref(SimEngine::Options{1});
    McSdcResult serial = runMc(&ref);
    for (int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        SimEngine engine(SimEngine::Options{threads});
        expectEqual(runMc(&engine), serial);
    }
}

TEST(McSdcDeterminism, GoldenValuesOnTheGlobalEngine)
{
    // Golden counters for (years=7, boost=2000, trials=300, seed=99),
    // drawn by the shared trial kernel.  The global engine's size
    // comes from ARCC_THREADS: CI runs this at 1 and 4 threads and
    // both must reproduce these numbers.
    McSdcResult r = runMc(nullptr);
    EXPECT_EQ(r.trials, 300u);
    EXPECT_EQ(r.events, 63u);
    EXPECT_EQ(r.faultsSampled, 151382u);
    std::array<std::uint64_t, McSdcResult::kHistogramBins> hist{
        242, 53, 5, 0, 0, 0, 0, 0};
    EXPECT_EQ(r.eventHistogram, hist);
    EXPECT_DOUBLE_EQ(r.eventsPerTrial(), 63.0 / 300.0);
}

TEST(McSdcDeterminism, ScalarEntryPointMatchesDetailed)
{
    SimEngine engine(SimEngine::Options{2});
    SdcModel model(SdcModelConfig::arccMachine());
    double scalar =
        model.mcArccSdcEvents(7.0, 2000.0, 300, 99, &engine);
    EXPECT_DOUBLE_EQ(scalar, runMc(&engine).eventsPerTrial());
}

// --- codec-zoo fault-injection matrix ----------------------------------

/** One RS, one SECDED, one BCH codec: every injection granularity. */
FaultMatrixConfig
faultMatrixConfig()
{
    FaultMatrixConfig cfg;
    cfg.codecs = {"arcc-relaxed", "hsiao72", "bch512-t2"};
    cfg.trialsPerCell = 96;
    cfg.exhaustiveLimit = 640;
    cfg.seed = 20130223;
    return cfg;
}

TEST(FaultMatrixDeterminism, BitIdenticalAcrossThreadCounts)
{
    SimEngine ref_engine(SimEngine::Options{1});
    FaultMatrixResult ref =
        runFaultMatrix(faultMatrixConfig(), &ref_engine);
    for (int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        SimEngine engine(SimEngine::Options{threads});
        FaultMatrixResult r =
            runFaultMatrix(faultMatrixConfig(), &engine);
        ASSERT_EQ(r.cells.size(), ref.cells.size());
        for (std::size_t i = 0; i < ref.cells.size(); ++i) {
            SCOPED_TRACE(ref.cells[i].codec + "/" +
                         toString(ref.cells[i].mode) + "/" +
                         std::to_string(ref.cells[i].errors));
            EXPECT_EQ(r.cells[i].trials, ref.cells[i].trials);
            EXPECT_EQ(r.cells[i].clean, ref.cells[i].clean);
            EXPECT_EQ(r.cells[i].corrected, ref.cells[i].corrected);
            EXPECT_EQ(r.cells[i].miscorrected,
                      ref.cells[i].miscorrected);
            EXPECT_EQ(r.cells[i].due, ref.cells[i].due);
            EXPECT_EQ(r.cells[i].sdc, ref.cells[i].sdc);
        }
        EXPECT_EQ(r.hash(), ref.hash());
    }
}

TEST(FaultMatrixDeterminism, GoldenHashOnTheGlobalEngine)
{
    // Golden digest of the whole (codec x mode x error-count) table
    // for faultMatrixConfig(), via the ARCC_THREADS-sized global
    // engine: CI runs this at 1 and 4 threads and both must reproduce
    // it bit-for-bit.  Any change to a codec, the injection plan, or
    // the Rng stream layout lands here first.
    FaultMatrixResult r = runFaultMatrix(faultMatrixConfig());
    EXPECT_EQ(r.cells.size(), 23u);
    EXPECT_EQ(r.hash(), 0xfcad756f62442c10ULL);
}

// --- sharded scrubber --------------------------------------------------

/** A 512KB ARCC memory with pseudo-random content, one corrupt
 *  device, and one stuck-at-1 row: every scrub step has work. */
ArccMemory
scrubFixture()
{
    ArccMemory mem(FunctionalConfig::arccSmall());
    Rng rng(2026);
    for (std::uint64_t addr = 0; addr < mem.capacity();
         addr += kLineBytes) {
        std::vector<std::uint8_t> line(kLineBytes);
        for (auto &b : line)
            b = static_cast<std::uint8_t>(rng.below(256));
        mem.write(addr, line);
    }

    FunctionalFault dead;
    dead.channel = 0;
    dead.rank = 1;
    dead.device = 6;
    dead.scope = FaultScope::Device;
    dead.kind = FaultKind::Corrupt;
    mem.injectFault(dead);

    FunctionalFault stuck;
    stuck.channel = 1;
    stuck.rank = 0;
    stuck.device = 2;
    stuck.scope = FaultScope::Row;
    stuck.bank = 0;
    stuck.row = 3;
    stuck.kind = FaultKind::StuckAt1;
    mem.injectFault(stuck);
    return mem;
}

TEST(ScrubDeterminism, ParallelReportsMatchSerialAtEveryThreadCount)
{
    Scrubber scrubber;

    ArccMemory ref = scrubFixture();
    ScrubReport boot_ref = scrubber.bootScrub(ref);
    ScrubReport scrub_ref = scrubber.scrub(ref);

    for (int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        SimEngine engine(SimEngine::Options{threads});
        ArccMemory mem = scrubFixture();

        EXPECT_EQ(scrubber.bootScrubParallel(mem, &engine), boot_ref);
        EXPECT_EQ(scrubber.scrubParallel(mem, &engine), scrub_ref);

        // End state matches too: page modes and (batched-granularity)
        // stats are pure functions of the configuration.
        EXPECT_EQ(mem.pageTable().count(PageMode::Relaxed),
                  ref.pageTable().count(PageMode::Relaxed));
        EXPECT_EQ(mem.pageTable().count(PageMode::Upgraded),
                  ref.pageTable().count(PageMode::Upgraded));
        EXPECT_EQ(mem.stats().deviceReads, ref.stats().deviceReads);
        EXPECT_EQ(mem.stats().corrected, ref.stats().corrected);
        EXPECT_EQ(mem.stats().dues, ref.stats().dues);
    }
}

TEST(ScrubDeterminism, GoldenReportOnTheGlobalEngine)
{
    // Golden counters for scrubFixture() after a boot scrub, via the
    // ARCC_THREADS-sized global engine.
    Scrubber scrubber;
    ArccMemory mem = scrubFixture();
    scrubber.bootScrubParallel(mem);
    ScrubReport r = scrubber.scrubParallel(mem);

    EXPECT_EQ(r.linesScrubbed, 6080u);
    EXPECT_EQ(r.errorsCorrected, 8418u);
    EXPECT_EQ(r.duesFound, 0u);
    EXPECT_EQ(r.stuckAt1Found, 2112u);
    EXPECT_EQ(r.stuckAt0Found, 2048u);
    EXPECT_EQ(r.faultyPages.size(), 66u);
    EXPECT_EQ(r.pagesUpgraded, 0u); // boot already upgraded them.
    EXPECT_EQ(r.pagesRelaxed, 0u);
}

TEST(ScrubDeterminism, ParallelScrubHealsAndUpgradesLikeSerial)
{
    // Functional outcome, not just counters: data survives and the
    // faulty rank's pages end up upgraded.
    SimEngine engine(SimEngine::Options{7});
    ArccMemory mem = scrubFixture();
    Scrubber scrubber;
    scrubber.bootScrubParallel(mem, &engine);

    EXPECT_NEAR(mem.pageTable().upgradedFraction(), 0.5, 0.05);
    for (std::uint64_t addr : {std::uint64_t{0}, kPageBytes * 100}) {
        ReadResult r = mem.read(addr);
        EXPECT_NE(r.status, DecodeStatus::Detected);
    }
}

// --- functional memory data plane ---------------------------------------

void
crcU64(Crc32c &crc, std::uint64_t v)
{
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    crc.update(b);
}

void
crcReport(Crc32c &crc, const ScrubReport &r)
{
    for (std::uint64_t v : {r.linesScrubbed, r.errorsCorrected, r.duesFound,
                            r.stuckAt1Found, r.stuckAt0Found,
                            r.pagesUpgraded, r.pagesRelaxed})
        crcU64(crc, v);
    crcU64(crc, r.faultyPages.size());
    for (std::uint64_t p : r.faultyPages)
        crcU64(crc, p);
}

void
randomLine(Rng &rng, std::vector<std::uint8_t> &line)
{
    line.resize(kLineBytes);
    for (auto &b : line)
        b = static_cast<std::uint8_t>(rng.below(256));
}

/**
 * Drive a memory through a seeded script -- line writes, batch reads,
 * sharded scrubs, page-mode changes up and down -- and return a
 * CRC-32C over everything it produced: every group's raw slices in
 * its final mode, the page modes, the stats, the scrub reports and
 * every batch read that decoded.  (A DUE read's data bytes are
 * unspecified, so only its status is folded in.)
 */
std::uint32_t
dataPlaneDigest(ArccMemory &mem, const std::vector<FunctionalFault> &boot,
                const std::vector<FunctionalFault> &field, std::uint64_t seed)
{
    Crc32c crc;
    Rng rng(seed);
    const Scrubber scrubber;
    const std::uint64_t pages = mem.pageTable().pages();
    const std::uint64_t lines = mem.capacity() / kLineBytes;
    std::vector<std::uint8_t> line;

    for (std::uint64_t addr = 0; addr < mem.capacity(); addr += kLineBytes) {
        randomLine(rng, line);
        mem.write(addr, line);
    }
    for (const FunctionalFault &f : boot)
        mem.injectFault(f);
    crcReport(crc, scrubber.bootScrubParallel(mem));

    auto writes = [&](int n) {
        for (int i = 0; i < n; ++i) {
            randomLine(rng, line);
            mem.write(rng.below(lines) * kLineBytes, line);
        }
    };
    writes(300);
    for (const FunctionalFault &f : field)
        mem.injectFault(f);

    for (int b = 0; b < 6; ++b) {
        // One whole page plus scattered lines (merged and unmerged
        // groups, mode changes mid-batch).
        std::vector<std::uint64_t> addrs;
        const std::uint64_t page = rng.below(pages);
        for (std::uint64_t i = 0; i < kLinesPerPage; ++i)
            addrs.push_back(page * kPageBytes + i * kLineBytes);
        for (int i = 0; i < 16; ++i)
            addrs.push_back(rng.below(lines) * kLineBytes);
        for (const ReadResult &r : mem.accessBatch(addrs)) {
            crcU64(crc, static_cast<std::uint64_t>(r.status));
            crcU64(crc, static_cast<std::uint64_t>(r.symbolsCorrected));
            if (r.status != DecodeStatus::Detected)
                crc.update(r.data);
        }
    }
    crcReport(crc, scrubber.scrubParallel(mem));

    std::vector<PageMode> modes = {PageMode::Relaxed, PageMode::Upgraded};
    if (mem.config().allowLevel2)
        modes.push_back(PageMode::Upgraded2);
    for (int i = 0; i < 24; ++i) {
        const std::uint64_t page = rng.below(pages);
        const PageMode cur = mem.pageTable().mode(page);
        PageMode next = modes[rng.below(modes.size())];
        if (next == cur)
            next = modes[(static_cast<std::size_t>(cur) + 1) % modes.size()];
        mem.setPageMode(page, next);
    }
    writes(200);
    crcReport(crc, scrubber.scrubParallel(mem));

    const MemoryStats &s = mem.stats();
    for (std::uint64_t v : {s.reads, s.writes, s.deviceReads, s.deviceWrites,
                            s.corrected, s.dues})
        crcU64(crc, v);
    for (std::uint64_t page = 0; page < pages; ++page) {
        const PageMode mode = mem.pageTable().mode(page);
        crcU64(crc, static_cast<std::uint64_t>(mode));
        const std::uint64_t group = mem.groupBytes(mode);
        for (std::uint64_t off = 0; off < kPageBytes; off += group)
            crc.update(mem.rawSnapshot(page * kPageBytes + off));
    }
    return crc.value();
}

FunctionalFault
functionalFault(int channel, int rank, int device, FaultScope scope,
                FaultKind kind, std::uint8_t mask, int bank = 0,
                int row = 0, int col = 0)
{
    FunctionalFault f;
    f.channel = channel;
    f.rank = rank;
    f.device = device;
    f.scope = scope;
    f.kind = kind;
    f.mask = mask;
    f.bank = bank;
    f.row = row;
    f.col = col;
    return f;
}

TEST(ArccMemoryDeterminism, RawStorageGolden)
{
    // Golden digests of the functional data plane: raw storage,
    // stats and scrub reports after dataPlaneDigest's script.  Any
    // change to addressing, fault overlays, erasures, encode or the
    // read-modify-write lands here first.  Boot faults are present at
    // the boot scrub; field faults appear after it.

    // Every fault scope and kind.  Two pairs of faults share a device,
    // so the overlay order is pinned too.
    ArccMemory small(FunctionalConfig::arccSmall());
    EXPECT_EQ(
        dataPlaneDigest(
            small,
            {functionalFault(1, 1, 7, FaultScope::Device,
                             FaultKind::Corrupt, 0xff)},
            {functionalFault(1, 0, 7, FaultScope::Lane,
                             FaultKind::StuckAt1, 0x21),
             functionalFault(0, 0, 11, FaultScope::Bank,
                             FaultKind::StuckAt0, 0xf0, 1),
             functionalFault(0, 1, 5, FaultScope::Row, FaultKind::Corrupt,
                             0xff, 0, 3),
             functionalFault(0, 0, 11, FaultScope::Column,
                             FaultKind::StuckAt1, 0xff, 1, 0, 17),
             functionalFault(1, 0, 9, FaultScope::Cell,
                             FaultKind::StuckAt0, 0x0f, 1, 5, 40)},
            11),
        3297727006u);

    // Double chip sparing with level 2: the spared device is read as
    // an erasure.
    ArccMemory wide(FunctionalConfig::arccWide());
    wide.spareDevice(2, 0, 4);
    EXPECT_EQ(
        dataPlaneDigest(
            wide,
            {functionalFault(2, 0, 4, FaultScope::Device,
                             FaultKind::Corrupt, 0xff)},
            {functionalFault(3, 1, 12, FaultScope::Lane,
                             FaultKind::StuckAt0, 0x81),
             functionalFault(1, 1, 0, FaultScope::Row,
                             FaultKind::StuckAt1, 0x10, 1, 6)},
            12),
        1918719187u);

    ArccMemory lot(FunctionalConfig::lotSmall());
    EXPECT_EQ(
        dataPlaneDigest(
            lot,
            {functionalFault(0, 0, 4, FaultScope::Device,
                             FaultKind::Corrupt, 0xff)},
            {functionalFault(1, 1, 8, FaultScope::Cell,
                             FaultKind::StuckAt1, 0x3c, 0, 2, 9),
             functionalFault(1, 0, 2, FaultScope::Column,
                             FaultKind::StuckAt0, 0xff, 1, 0, 33)},
            13),
        3118032291u);
}

// --- fleet lifetime Monte Carlo ------------------------------------------

TEST(LifetimeMcDeterminism, GoldenCurvesOnTheGlobalEngine)
{
    // Golden CRC-32C over the bit patterns of both lifetime curves:
    // Figure 3.1's affected fraction and Figures 7.4-7.6's cumulative
    // overhead.  The global engine's size comes from ARCC_THREADS: CI
    // runs this at 1 and 4 threads and both must reproduce the digest.
    LifetimeMcConfig cfg;
    cfg.channels = 2048;
    cfg.years = 7.0;
    cfg.gridPerYear = 12;
    cfg.seed = 2013;
    cfg.rates = FaultRates::fieldStudy().scaled(10.0);
    LifetimeMc mc(cfg);

    // Wider footprints cost more; a channel whose faults sum past the
    // cap saturates there.
    PerTypeOverhead overhead{};
    for (FaultType t : allFaultTypes())
        overhead[static_cast<int>(t)] = 0.1 * (static_cast<int>(t) + 1);
    const double cap = 0.5;

    const AffectedCurve curve = mc.affectedFraction();
    const std::vector<double> capped =
        mc.cumulativeOverheadByYear(overhead, cap);
    ASSERT_EQ(curve.avgFraction.size(), 84u);
    ASSERT_EQ(capped.size(), 7u);
    EXPECT_LT(capped.back(),
              mc.cumulativeOverheadByYear(overhead, 1e9).back())
        << "the cap must bind";

    Crc32c crc;
    for (const std::vector<double> *curve_values :
         {&curve.timeYears, &curve.avgFraction, &capped})
        for (double v : *curve_values)
            crcU64(crc, std::bit_cast<std::uint64_t>(v));
    EXPECT_EQ(crc.value(), 2566121978u);
}

// --- mix simulation batch ----------------------------------------------

std::vector<MixJob>
mixJobs()
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
    jobs.push_back({table73Mixes()[3], cfg,
                    PageUpgradeOracle::forScenario(
                        PageUpgradeOracle::Scenario::Column, cfg.mem)});
    return jobs;
}

TEST(MixBatchDeterminism, BitIdenticalAcrossThreadCounts)
{
    std::vector<MixJob> jobs = mixJobs();
    SimEngine ref_engine(SimEngine::Options{1});
    std::vector<SimResult> ref = simulateMixBatch(jobs, &ref_engine);
    ASSERT_EQ(ref.size(), jobs.size());

    for (int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        SimEngine engine(SimEngine::Options{threads});
        std::vector<SimResult> out = simulateMixBatch(jobs, &engine);
        ASSERT_EQ(out.size(), ref.size());
        for (std::size_t j = 0; j < ref.size(); ++j) {
            SCOPED_TRACE("job " + std::to_string(j));
            EXPECT_EQ(out[j].ipcSum, ref[j].ipcSum);
            EXPECT_EQ(out[j].avgPowerMw, ref[j].avgPowerMw);
            EXPECT_EQ(out[j].elapsedNs, ref[j].elapsedNs);
            EXPECT_EQ(out[j].memReads, ref[j].memReads);
            EXPECT_EQ(out[j].memWrites, ref[j].memWrites);
            EXPECT_EQ(out[j].llcStats.misses, ref[j].llcStats.misses);
        }
    }
}

// --- system simulator --------------------------------------------------

/** Exact (bit-identical) equality of two whole-run outcomes. */
void
expectEqual(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.ipcSum, b.ipcSum);
    EXPECT_EQ(a.elapsedNs, b.elapsedNs);
    EXPECT_EQ(a.avgPowerMw, b.avgPowerMw);
    EXPECT_EQ(a.power.dynamicNj, b.power.dynamicNj);
    EXPECT_EQ(a.power.backgroundNj, b.power.backgroundNj);
    EXPECT_EQ(a.power.refreshNj, b.power.refreshNj);
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_EQ(a.memWrites, b.memWrites);
    EXPECT_EQ(a.scrubReads, b.scrubReads);
    EXPECT_EQ(a.scrubWrites, b.scrubWrites);
    EXPECT_EQ(a.llcStats.misses, b.llcStats.misses);
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].benchmark, b.cores[i].benchmark);
        EXPECT_EQ(a.cores[i].ipc, b.cores[i].ipc);
        EXPECT_EQ(a.cores[i].instrs, b.cores[i].instrs);
        EXPECT_EQ(a.cores[i].llcAccesses, b.cores[i].llcAccesses);
        EXPECT_EQ(a.cores[i].llcMisses, b.cores[i].llcMisses);
    }
}

/**
 * One simulateMix run, submitted as a one-job simulateMixBatch so it
 * runs on `engine`'s workers (nullptr: the global engine): an
 * upgraded-page scenario so paired traffic exercises the lockstep
 * path, optionally with background scrubbing interleaved (period
 * compressed so many sweep visits land inside the short run).
 */
SimResult
runStreamSim(SimEngine *engine, bool scrub)
{
    SystemConfig cfg;
    cfg.mem = arccConfig();
    // Mix9 at this budget produces dirty writebacks too, so the
    // writeback emission path is inside the determinism contract.
    cfg.instrsPerCore = 150000;
    cfg.seed = 20130223;
    if (scrub) {
        cfg.backgroundScrub.enabled = true;
        cfg.backgroundScrub.periodHours = 0.01;
    }
    auto oracle = PageUpgradeOracle::forScenario(
        PageUpgradeOracle::Scenario::Device, cfg.mem);
    return simulateMixBatch({{table73Mixes()[8], cfg, oracle}},
                            engine)[0];
}

TEST(StreamSimDeterminism, BitIdenticalAcrossThreadCounts)
{
    for (bool scrub : {false, true}) {
        SCOPED_TRACE(scrub ? "background scrub" : "traffic only");
        SimEngine ref_engine(SimEngine::Options{1});
        SimResult ref = runStreamSim(&ref_engine, scrub);
        for (int threads : kThreadCounts) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            SimEngine engine(SimEngine::Options{threads});
            expectEqual(runStreamSim(&engine, scrub), ref);
        }
    }
}

TEST(StreamSimDeterminism, GoldenCountersOnTheGlobalEngine)
{
    // Golden counters for runStreamSim through the
    // ARCC_THREADS-sized global engine: CI runs this at 1 and 4
    // threads and both must reproduce these numbers.  The counters
    // are integers (exact at any thread count by the shard-reduce
    // contract); ipcSum is checked as a band so the golden stays
    // robust to FP-contraction differences across toolchains.
    SimResult r = runStreamSim(nullptr, /*scrub=*/true);
    EXPECT_EQ(r.memReads, 12463u);
    EXPECT_EQ(r.memWrites, 66u);
    EXPECT_EQ(r.llcStats.misses, 8635u);
    EXPECT_EQ(r.scrubReads, 1368u);
    EXPECT_EQ(r.scrubWrites, 1368u);
    EXPECT_NEAR(r.ipcSum, 1.3889, 0.05);
}

TEST(StreamSimDeterminism, ScrubPerturbationIsDeterministicToo)
{
    // The scrub-vs-clean IPC delta itself must be reproducible: the
    // two runs differ only in injected scrub traffic, so the delta is
    // a pure function of the configuration at any thread count.
    SimEngine a(SimEngine::Options{2});
    SimEngine b(SimEngine::Options{7});
    double delta_a = runStreamSim(&a, false).ipcSum -
                     runStreamSim(&a, true).ipcSum;
    double delta_b = runStreamSim(&b, false).ipcSum -
                     runStreamSim(&b, true).ipcSum;
    EXPECT_EQ(delta_a, delta_b);
    EXPECT_NE(delta_a, 0.0) << "scrub traffic must perturb the IPC";
    // (The *direction* of the perturbation under heavier scrub load
    // is asserted in test_system_sim.cc.)
}

// --- trace-driven simulateStreams at 4 and 8 channels -------------------

/** RAII deleter for the captured per-core trace files. */
struct TempFiles
{
    ~TempFiles()
    {
        for (const std::string &path : paths)
            std::remove(path.c_str());
    }
    std::vector<std::string> paths;
};

/**
 * The trace-driven multi-channel fixture: capture the Mix9 streams
 * once into binary trace files (pure function of the seed), then
 * replay them through simulateStreams on an `channels`-wide ARCC
 * configuration.  At 4 channels a Device-fault oracle keeps paired
 * traffic in play (ChannelShardPlan pairs the channels into 2
 * groups); at 8 channels the clean oracle leaves every channel its
 * own group (8).
 */
SystemConfig
traceSimConfig(int channels)
{
    SystemConfig cfg;
    cfg.mem = withChannels(arccConfig(), channels);
    cfg.instrsPerCore = 100000;
    cfg.seed = 20130223;
    return cfg;
}

void
captureTraceFiles(const SystemConfig &cfg, const WorkloadMix &mix,
                  TempFiles &files)
{
    AddressMap map(cfg.mem, cfg.mapPolicy);
    for (int i = 0; i < cfg.cores; ++i) {
        files.paths.push_back(
            (std::filesystem::temp_directory_path() /
             ("arcc_test_determinism." + std::to_string(::getpid()) +
              "." + std::to_string(i) + ".bin"))
                .string());
        captureSyntheticTrace(mix.benchmarks[i], map.capacity(), i,
                              mixCoreSeed(cfg.seed, i),
                              cfg.instrsPerCore, files.paths.back());
    }
}

/** One trace replay, run as the single index of a forEachIndex on
 *  `engine` (nullptr: the global engine). */
SimResult
runTraceSim(SimEngine *engine, const SystemConfig &cfg,
            const WorkloadMix &mix, const TempFiles &files)
{
    std::vector<StreamSpec> streams;
    for (int i = 0; i < cfg.cores; ++i)
        streams.push_back(traceStreamSpec(
            files.paths[i],
            benchmarkProfile(mix.benchmarks[i]).baseIpc,
            /*chunkRecords=*/512));
    PageUpgradeOracle oracle;
    if (cfg.mem.channels == 4)
        oracle = PageUpgradeOracle::forScenario(
            PageUpgradeOracle::Scenario::Device, cfg.mem);
    SimResult r;
    (engine ? *engine : SimEngine::global())
        .forEachIndex(1, [&](std::uint64_t) {
            r = simulateStreams(std::move(streams), cfg, oracle);
        });
    return r;
}

class TraceSimDeterminism : public ::testing::TestWithParam<int>
{
};

TEST_P(TraceSimDeterminism, BitIdenticalAcrossThreadCounts)
{
    const int channels = GetParam();
    SystemConfig cfg = traceSimConfig(channels);
    const WorkloadMix &mix = table73Mixes()[8];
    TempFiles files;
    captureTraceFiles(cfg, mix, files);

    // The channel partition of this run: one group per channel pair
    // at 4 channels, one per channel at 8.
    AddressMap map(cfg.mem, cfg.mapPolicy);
    ChannelShardPlan plan(map, /*pairable=*/channels == 4);
    EXPECT_EQ(plan.groups(),
              channels == 4 ? 2u : 8u);

    SimEngine ref_engine(SimEngine::Options{1});
    SimResult ref = runTraceSim(&ref_engine, cfg, mix, files);
    for (int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        SimEngine engine(SimEngine::Options{threads});
        expectEqual(runTraceSim(&engine, cfg, mix, files), ref);
    }
    // Each captured trace covers the budget exactly: one lap.
    for (const CoreResult &core : ref.cores)
        EXPECT_EQ(core.traceLaps, 1u);
}

INSTANTIATE_TEST_SUITE_P(FourAndEightChannels, TraceSimDeterminism,
                         ::testing::Values(4, 8),
                         [](const ::testing::TestParamInfo<int> &info) {
                             return std::to_string(info.param) +
                                    "ch";
                         });

TEST(TraceSimDeterminism8Ch, GoldenCountersOnTheGlobalEngine)
{
    // Golden counters for the 8-channel trace replay through the
    // ARCC_THREADS-sized global engine: CI runs this at 1 and 4
    // threads and both must reproduce these numbers.  Integer
    // counters are exact; ipcSum is a band (FP contraction varies
    // across toolchains).
    SystemConfig cfg = traceSimConfig(8);
    const WorkloadMix &mix = table73Mixes()[8];
    TempFiles files;
    captureTraceFiles(cfg, mix, files);
    SimResult r = runTraceSim(nullptr, cfg, mix, files);

    EXPECT_EQ(r.memReads, 6471u);
    EXPECT_EQ(r.memWrites, 0u);
    EXPECT_EQ(r.llcStats.misses, 6471u);
    EXPECT_NEAR(r.ipcSum, 1.6158, 0.05);
}

TEST(TraceSimDeterminism4Ch, GoldenCountersOnTheGlobalEngine)
{
    // As above at 4 channels with the Device-fault oracle: paired
    // traffic spans the {2k, 2k+1} channel pairs.
    SystemConfig cfg = traceSimConfig(4);
    const WorkloadMix &mix = table73Mixes()[8];
    TempFiles files;
    captureTraceFiles(cfg, mix, files);
    SimResult r = runTraceSim(nullptr, cfg, mix, files);

    // memReads > llcMisses: the Device oracle upgrades half the
    // pages, and each upgraded miss fetches both 64B sub-lines.
    EXPECT_EQ(r.memReads, 8388u);
    EXPECT_EQ(r.memWrites, 2u);
    EXPECT_EQ(r.llcStats.misses, 5788u);
    EXPECT_NEAR(r.ipcSum, 1.6737, 0.05);
}

// --- fleet-scale campaign driver ---------------------------------------

/**
 * A fleet small enough for a sub-second test but wide enough that the
 * 7-executor engine gets several shards per epoch (2048 trials / 64
 * per shard = 32 shards across 8 epochs).
 */
CampaignSpec
campaignSpec()
{
    CampaignSpec spec;
    spec.channels = 2048;
    spec.epochTrials = 256;
    spec.shardTrials = 64;
    spec.seed = 20130223;
    return spec;
}

void
expectEqual(const CampaignAggregate &a, const CampaignAggregate &b)
{
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.faultsSampled, b.faultsSampled);
    EXPECT_EQ(a.trialsWithFault, b.trialsWithFault);
    EXPECT_EQ(a.sdcCandidates, b.sdcCandidates);
    EXPECT_EQ(a.dueCandidates, b.dueCandidates);
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(CampaignDeterminism, BitIdenticalAcrossThreadCounts)
{
    const CampaignSpec spec = campaignSpec();
    SimEngine ref(SimEngine::Options{1});
    CampaignRunResult serial = CampaignDriver(spec, &ref).run();
    for (int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        SimEngine engine(SimEngine::Options{threads});
        CampaignRunResult r = CampaignDriver(spec, &engine).run();
        expectEqual(r.aggregate, serial.aggregate);
        EXPECT_EQ(r.digest(spec), serial.digest(spec));
    }
}

TEST(CampaignDeterminism, GoldenDigestOnTheGlobalEngine)
{
    // Golden campaign digest for the campaignSpec() fleet.  The
    // global engine's size comes from ARCC_THREADS: CI runs this at
    // 1 and 4 threads and both must reproduce the digest bit for bit.
    const CampaignSpec spec = campaignSpec();
    CampaignRunResult r = CampaignDriver(spec).run();
    EXPECT_EQ(r.aggregate.trials, 2048u);
    EXPECT_EQ(r.digest(spec), 0xa0c045902c858d77ULL);
}

TEST(CampaignDeterminism, LaneHeavyGoldenDigestsOnTheGlobalEngine)
{
    // At boost 2000 a trial draws about 360 faults, 1.9 of them lane
    // faults, so these digests pin the overlap scan's lane pairs and
    // its per-group comparisons at 2, 1 and 8 codeword groups; the
    // boost-100 golden above sees 0.095 lane faults per trial.  A
    // quarter of campaignSpec()'s fleet (2 epochs, 8 shards) keeps the
    // test short; `arcc_campaign --channels 512 --epoch-trials 256
    // --seed 20130223 --boost 2000 --group-devices G` prints the same.
    struct Golden
    {
        int devicesPerGroup;
        std::uint64_t digest;
    };
    const Golden goldens[] = {{36, 0x0f516ea55de3f930ULL},
                              {72, 0x18bc47de7d528ba0ULL},
                              {9, 0x21f5033f9bd53b80ULL}};
    for (const Golden &g : goldens) {
        SCOPED_TRACE(std::to_string(g.devicesPerGroup) +
                     "-device groups");
        CampaignSpec spec = campaignSpec();
        spec.channels = 512;
        spec.rateBoost = 2000.0;
        spec.devicesPerGroup = g.devicesPerGroup;
        const CampaignRunResult r = CampaignDriver(spec).run();
        EXPECT_EQ(r.aggregate.trials, 512u);
        EXPECT_EQ(r.digest(spec), g.digest);
    }
}

TEST(CampaignDeterminism, ResumeSplitsAreBitIdenticalAcrossThreads)
{
    // Interrupt after 3 epochs on one engine, resume on an engine of
    // every sweep width: the stitched digest must equal the
    // uninterrupted one regardless of which widths ran which half.
    const CampaignSpec spec = campaignSpec();
    SimEngine ref(SimEngine::Options{1});
    const std::uint64_t golden =
        CampaignDriver(spec, &ref).run().digest(spec);

    for (int threads : kThreadCounts) {
        SCOPED_TRACE("resume threads=" + std::to_string(threads));
        std::string path =
            "determinism_campaign_" + std::to_string(threads) +
            "_" + std::to_string(::getpid()) + ".ckpt";
        TempFiles cleanup;
        cleanup.paths.push_back(path);

        CampaignRunOptions first;
        first.checkpointPath = path;
        first.maxEpochs = 3;
        CampaignRunResult head = CampaignDriver(spec, &ref).run(first);
        EXPECT_TRUE(head.interrupted);

        SimEngine engine(SimEngine::Options{threads});
        CampaignRunOptions rest;
        rest.checkpointPath = path;
        CampaignRunResult r = CampaignDriver(spec, &engine).run(rest);
        EXPECT_EQ(r.resumedFromTrial, 3u * spec.epochTrials);
        EXPECT_FALSE(r.interrupted);
        EXPECT_EQ(r.digest(spec), golden);
    }
}

TEST(MixBatchDeterminism, GlobalEngineMatchesSequentialReference)
{
    // Through the ARCC_THREADS-sized global engine (the path CI pins
    // to 1 and 4 threads): the batch must equal per-job simulateMix.
    std::vector<MixJob> jobs = mixJobs();
    std::vector<SimResult> batch = simulateMixBatch(jobs);
    ASSERT_EQ(batch.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        SCOPED_TRACE("job " + std::to_string(j));
        SimResult ref =
            simulateMix(jobs[j].mix, jobs[j].config, jobs[j].oracle);
        EXPECT_EQ(batch[j].ipcSum, ref.ipcSum);
        EXPECT_EQ(batch[j].memReads, ref.memReads);
        EXPECT_EQ(batch[j].memWrites, ref.memWrites);
    }
}

} // namespace
} // namespace arcc
