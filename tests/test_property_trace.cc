/**
 * @file
 * Property tests for the trace layer (ctest label `property`):
 *
 *  - seed-logged random access streams survive the
 *    text -> binary -> text round trip bit-identically, and the
 *    binary -> accesses -> binary trip byte-identically;
 *  - capture / replay closure: a TraceWriter-captured synthetic
 *    stream replayed through TraceReplay / TraceStream reproduces the
 *    *exact* SimResult of the live generator run, bit for bit.
 *
 * Every randomised case logs its seed via SCOPED_TRACE so a failure
 * is reproducible from the test output alone.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/rng.hh"
#include "cpu/system_sim.hh"
#include "cpu/trace.hh"

namespace arcc
{
namespace
{

std::string
tempPath(const std::string &tag)
{
    return (std::filesystem::temp_directory_path() /
            ("arcc_test_property_trace." + tag + "." +
             std::to_string(::getpid())))
        .string();
}

/** RAII deleter for a set of temp files (safe to grow: cleanup only
 *  happens when the whole set goes out of scope). */
struct TempFiles
{
    ~TempFiles()
    {
        for (const std::string &path : paths)
            std::remove(path.c_str());
    }
    std::vector<std::string> paths;
};

/** A random access stream stressing the full field ranges. */
std::vector<CoreWorkload::Access>
randomAccesses(std::uint64_t seed, int n)
{
    Rng rng(seed);
    std::vector<CoreWorkload::Access> out;
    out.reserve(n);
    for (int i = 0; i < n; ++i) {
        CoreWorkload::Access a;
        // Mix small line-aligned addresses with full-width ones.
        a.addr = rng.chance(0.5)
                     ? rng.below(1ULL << 32) * kLineBytes
                     : rng.below(~0ULL);
        a.isWrite = rng.chance(0.4);
        a.instrGap = rng.chance(0.9) ? rng.below(10000)
                                     : rng.below((1ULL << 63) - 1);
        out.push_back(a);
    }
    return out;
}

TEST(TraceRoundTripProperty, TextBinaryTextIsBitIdentical)
{
    for (std::uint64_t seed : {1ULL, 42ULL, 987654321ULL, 2026ULL}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        auto accesses = randomAccesses(seed, 2000);

        std::ostringstream text1;
        TraceWriter writer(text1);
        for (const auto &a : accesses)
            writer.append(a);

        std::istringstream text_in(text1.str());
        std::ostringstream bin1;
        ASSERT_EQ(textTraceToBinary(text_in, bin1), 2000u);

        std::istringstream bin_in(bin1.str());
        std::ostringstream text2;
        ASSERT_EQ(binaryTraceToText(bin_in, text2), 2000u);

        // Canonical text in, canonical text out: bit-identical.
        EXPECT_EQ(text1.str(), text2.str());

        // And the binary itself round-trips byte-identically through
        // a decode -> re-encode pass.
        std::istringstream text2_in(text2.str());
        std::ostringstream bin2;
        ASSERT_EQ(textTraceToBinary(text2_in, bin2), 2000u);
        EXPECT_EQ(bin1.str(), bin2.str());
    }
}

TEST(TraceRoundTripProperty, ParsedFieldsMatchTheOriginals)
{
    for (std::uint64_t seed : {7ULL, 5150ULL}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        auto accesses = randomAccesses(seed, 1000);
        std::ostringstream text;
        TraceWriter writer(text);
        for (const auto &a : accesses)
            writer.append(a);
        std::istringstream in(text.str());
        auto parsed = parseTrace(in);
        ASSERT_EQ(parsed.size(), accesses.size());
        for (std::size_t i = 0; i < parsed.size(); ++i) {
            EXPECT_EQ(parsed[i].addr, accesses[i].addr) << i;
            EXPECT_EQ(parsed[i].isWrite, accesses[i].isWrite) << i;
            EXPECT_EQ(parsed[i].instrGap, accesses[i].instrGap) << i;
        }
    }
}

/** Exact (bit-identical) equality of two whole-run outcomes, modulo
 *  the reported stream names (a trace core is named after its file). */
void
expectSameNumbers(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.ipcSum, b.ipcSum);
    EXPECT_EQ(a.elapsedNs, b.elapsedNs);
    EXPECT_EQ(a.avgPowerMw, b.avgPowerMw);
    EXPECT_EQ(a.power.dynamicNj, b.power.dynamicNj);
    EXPECT_EQ(a.power.backgroundNj, b.power.backgroundNj);
    EXPECT_EQ(a.power.refreshNj, b.power.refreshNj);
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_EQ(a.memWrites, b.memWrites);
    EXPECT_EQ(a.llcStats.hits, b.llcStats.hits);
    EXPECT_EQ(a.llcStats.misses, b.llcStats.misses);
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].ipc, b.cores[i].ipc) << i;
        EXPECT_EQ(a.cores[i].instrs, b.cores[i].instrs) << i;
        EXPECT_EQ(a.cores[i].llcAccesses, b.cores[i].llcAccesses)
            << i;
        EXPECT_EQ(a.cores[i].llcMisses, b.cores[i].llcMisses) << i;
    }
}

TEST(CaptureReplayClosureProperty, CapturedStreamsReproduceTheLiveRun)
{
    // For several seeds: run the live generators, then capture the
    // exact access sequence the simulator consumed (each core draws
    // until its budget is covered) into binary trace files and replay
    // them.  The simulator sees identical inputs, so the outcome must
    // be bit-identical -- the capture/replay closure.
    for (std::uint64_t seed : {77ULL, 20130223ULL}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        SystemConfig cfg;
        cfg.mem = arccConfig();
        cfg.instrsPerCore = 40'000;
        cfg.seed = seed;
        const WorkloadMix &mix = table73Mixes()[5];
        auto oracle = PageUpgradeOracle::forScenario(
            PageUpgradeOracle::Scenario::Device, cfg.mem);

        SimResult live = simulateMix(mix, cfg, oracle);

        AddressMap map(cfg.mem, cfg.mapPolicy);
        TempFiles files;
        std::vector<StreamSpec> streams;
        for (int i = 0; i < cfg.cores; ++i) {
            files.paths.push_back(
                tempPath("closure." + std::to_string(i) + ".bin"));
            captureSyntheticTrace(mix.benchmarks[i], map.capacity(),
                                  i, mixCoreSeed(cfg.seed, i),
                                  cfg.instrsPerCore,
                                  files.paths.back());
        }
        for (int i = 0; i < cfg.cores; ++i)
            streams.push_back(traceStreamSpec(
                files.paths[i],
                benchmarkProfile(mix.benchmarks[i]).baseIpc,
                /*chunkRecords=*/256));

        SimResult replayed =
            simulateStreams(std::move(streams), cfg, oracle);
        expectSameNumbers(replayed, live);
        // The capture covers the budget exactly, so each trace wraps
        // exactly once (the lap closes on its final record).
        for (const CoreResult &core : replayed.cores)
            EXPECT_EQ(core.traceLaps, 1u);
    }
}

} // namespace
} // namespace arcc
