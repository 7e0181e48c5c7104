/**
 * @file
 * Property tests for the trace layer (ctest label `property`):
 *
 *  - seed-logged random access streams survive the
 *    text -> binary -> text round trip bit-identically, and the
 *    binary -> text -> binary trip byte-identically;
 *  - capture / replay closure: a captured synthetic stream replayed
 *    through TraceStream reproduces the *exact* SimResult of the live
 *    generator run, bit for bit.
 *
 * Every randomised case logs its seed via SCOPED_TRACE so a failure
 * is reproducible from the test output alone.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
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

/** The bytes of the file at `path`. */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

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
        TempFiles files;
        for (const char *tag : {"text1", "bin1", "text2", "bin2"})
            files.paths.push_back(tempPath(std::string("rt.") + tag));
        const std::string &text1 = files.paths[0];
        const std::string &bin1 = files.paths[1];
        const std::string &text2 = files.paths[2];
        const std::string &bin2 = files.paths[3];
        {
            std::ofstream out(text1);
            TraceWriter writer(out, /*binary=*/false);
            for (const auto &a : accesses)
                writer.append(a);
        }

        ASSERT_EQ(convertTrace(text1, bin1, /*binary=*/true), 2000u);
        ASSERT_EQ(convertTrace(bin1, text2, /*binary=*/false), 2000u);

        // Canonical text in, canonical text out: bit-identical.
        EXPECT_EQ(fileBytes(text1), fileBytes(text2));

        // And the binary itself round-trips byte-identically through
        // a decode -> re-encode pass.
        ASSERT_EQ(convertTrace(text2, bin2, /*binary=*/true), 2000u);
        EXPECT_EQ(fileBytes(bin1), fileBytes(bin2));
    }
}

TEST(TraceRoundTripProperty, ParsedFieldsMatchTheOriginals)
{
    for (std::uint64_t seed : {7ULL, 5150ULL}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        auto accesses = randomAccesses(seed, 1000);
        TempFiles files;
        files.paths.push_back(tempPath("parsed.txt"));
        {
            std::ofstream out(files.paths[0]);
            TraceWriter writer(out, /*binary=*/false);
            for (const auto &a : accesses)
                writer.append(a);
        }
        std::string error;
        const std::unique_ptr<TraceStream> stream =
            TraceStream::open(files.paths[0], error, /*chunkRecords=*/64);
        ASSERT_TRUE(stream) << error;
        ASSERT_EQ(stream->records(), accesses.size());
        for (std::size_t i = 0; i < accesses.size(); ++i) {
            const CoreWorkload::Access a = stream->next();
            EXPECT_EQ(a.addr, accesses[i].addr) << i;
            EXPECT_EQ(a.isWrite, accesses[i].isWrite) << i;
            EXPECT_EQ(a.instrGap, accesses[i].instrGap) << i;
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
