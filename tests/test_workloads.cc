/**
 * @file
 * Workload-generator tests: Table 7.3 coverage and stream statistics.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/units.hh"
#include "cpu/workloads.hh"

namespace arcc
{
namespace
{

TEST(Workloads, AllTwelveMixesExistWithFourBenchmarksEach)
{
    const auto &mixes = table73Mixes();
    ASSERT_EQ(mixes.size(), 12u);
    for (const auto &mix : mixes) {
        EXPECT_EQ(mixByName(mix.name), &mix);
        EXPECT_EQ(mix.benchmarks.size(), 4u) << mix.name;
        for (const auto &b : mix.benchmarks) {
            // Must resolve without fatal().
            const BenchmarkProfile &p = benchmarkProfile(b);
            EXPECT_FALSE(p.name.empty());
        }
    }
    for (const char *bad : {"", "Mix0", "Mix13", "mix1", "Mix1 "})
        EXPECT_EQ(mixByName(bad), nullptr) << bad;
}

TEST(Workloads, Fma3diAliasesToFma3d)
{
    EXPECT_EQ(benchmarkProfile("fma3di").name, "fma3d");
}

TEST(Workloads, ProfilesAreSane)
{
    for (const auto &p : allBenchmarkProfiles()) {
        EXPECT_GT(p.baseIpc, 0.0) << p.name;
        EXPECT_LE(p.baseIpc, 2.0) << p.name << " (2-wide core)";
        EXPECT_GT(p.apki, 0.0) << p.name;
        EXPECT_GE(p.spatial, 0.0) << p.name;
        EXPECT_LT(p.spatial, 1.0) << p.name;
        EXPECT_GE(p.writeFrac, 0.0) << p.name;
        EXPECT_LE(p.writeFrac, 1.0) << p.name;
        EXPECT_GT(p.footprintMiB, 0.0) << p.name;
    }
}

TEST(Workloads, StreamStaysInsideTheCoreRegion)
{
    const std::uint64_t mem = 256 * kMiB;
    for (int core = 0; core < 4; ++core) {
        CoreWorkload wl(benchmarkProfile("swim"), mem, core, 99);
        std::uint64_t lo = core * (mem / 4);
        std::uint64_t hi = (core + 1) * (mem / 4);
        for (int i = 0; i < 20000; ++i) {
            auto a = wl.next();
            EXPECT_GE(a.addr, lo);
            EXPECT_LT(a.addr, hi);
        }
    }
}

TEST(Workloads, SpatialParameterControlsAdjacentAccessRate)
{
    const std::uint64_t mem = 256 * kMiB;
    for (const char *name : {"libquantum", "mcf2006"}) {
        const BenchmarkProfile &p = benchmarkProfile(name);
        CoreWorkload wl(p, mem, 0, 7);
        std::uint64_t prev = 0;
        int adjacent = 0;
        const int n = 50000;
        for (int i = 0; i < n; ++i) {
            auto a = wl.next();
            if (i > 0 && a.addr == prev + kLineBytes)
                ++adjacent;
            prev = a.addr;
        }
        double rate = static_cast<double>(adjacent) / n;
        EXPECT_NEAR(rate, p.spatial, 0.03) << name;
    }
}

TEST(Workloads, WriteFractionMatchesProfile)
{
    const std::uint64_t mem = 256 * kMiB;
    const BenchmarkProfile &p = benchmarkProfile("lbm");
    CoreWorkload wl(p, mem, 0, 8);
    int writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        writes += wl.next().isWrite;
    EXPECT_NEAR(static_cast<double>(writes) / n, p.writeFrac, 0.02);
}

TEST(Workloads, InstructionGapMatchesApki)
{
    const std::uint64_t mem = 256 * kMiB;
    const BenchmarkProfile &p = benchmarkProfile("sphinx3");
    CoreWorkload wl(p, mem, 0, 9);
    double total = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        total += static_cast<double>(wl.next().instrGap);
    double apki = 1000.0 / (total / n);
    EXPECT_NEAR(apki, p.apki, p.apki * 0.1);
}

TEST(Workloads, StreamsAreDeterministicPerSeed)
{
    const std::uint64_t mem = 256 * kMiB;
    CoreWorkload a(benchmarkProfile("milc"), mem, 1, 123);
    CoreWorkload b(benchmarkProfile("milc"), mem, 1, 123);
    for (int i = 0; i < 1000; ++i) {
        auto x = a.next();
        auto y = b.next();
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.isWrite, y.isWrite);
        EXPECT_EQ(x.instrGap, y.instrGap);
    }
}

TEST(Workloads, DifferentSeedsDiverge)
{
    const std::uint64_t mem = 256 * kMiB;
    CoreWorkload a(benchmarkProfile("milc"), mem, 1, 123);
    CoreWorkload b(benchmarkProfile("milc"), mem, 1, 124);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next().addr == b.next().addr;
    EXPECT_LT(same, 100);
}

} // namespace
} // namespace arcc
