/**
 * @file
 * Tests of the benchmark's own helpers: the tail-percentile rule, the
 * seed purity of every workload generator, the latency-pass probe, and
 * that each output check catches an injected wrong result.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "checks.hh"
#include "harness.hh"
#include "workloads.hh"

using namespace perfbench;

TEST(Percentile, PicksHighestWithTenSamplesBeyond)
{
    EXPECT_EQ(pickTail(99).label, "p50");
    EXPECT_EQ(pickTail(100).label, "p90");
    EXPECT_EQ(pickTail(999).label, "p90");
    EXPECT_EQ(pickTail(1000).label, "p99");
    EXPECT_EQ(pickTail(9999).label, "p99");
    EXPECT_EQ(pickTail(10000).label, "p99.9");
    EXPECT_EQ(pickTail(5).label, "p50");
    // The ceiling caps the choice without lowering it further.
    EXPECT_EQ(pickTail(100000, 0.99).label, "p99");
    EXPECT_EQ(pickTail(100000, 0.9).label, "p90");
    EXPECT_EQ(pickTail(50, 0.9).label, "p50");
}

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    EXPECT_EQ(quantile(v, 0.5), 50);
    EXPECT_EQ(quantile(v, 0.9), 90);
    EXPECT_EQ(quantile(v, 0.99), 99);
    EXPECT_EQ(quantile(v, 1.0), 100);
    EXPECT_EQ(quantile({}, 0.5), 0);
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Generators, FigsweepOrderIsASeededPermutation)
{
    const auto a = figsweepOrder(7, 0, 72);
    EXPECT_EQ(a, figsweepOrder(7, 0, 72));
    EXPECT_NE(a, figsweepOrder(8, 0, 72));
    EXPECT_NE(a, figsweepOrder(7, 1, 72));
    std::vector<std::size_t> sorted = a;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], i);
    EXPECT_EQ(figsweepGrid().size(), 72u);
    EXPECT_EQ(figsweepGrid()[9].mix.name, "Mix2");
}

TEST(Generators, ScrubRwOpsAndFaultsArePureFunctionsOfTheSeed)
{
    auto ops = [](std::uint64_t seed) {
        RwOpStream s(seed, 4096);
        std::vector<RwOp> out;
        for (int i = 0; i < 300; ++i)
            out.push_back(s.next());
        return out;
    };
    EXPECT_EQ(ops(3), ops(3));
    EXPECT_NE(ops(3), ops(4));
    const auto v = ops(3);
    const auto writes = std::count_if(v.begin(), v.end(),
                                      [](const RwOp &o) { return o.write; });
    EXPECT_GT(writes, 60);
    EXPECT_LT(writes, 140);

    const arcc::FunctionalConfig cfg = scrubRwShape().config();
    auto faults = [&](std::uint64_t seed) {
        std::vector<std::tuple<int, int, int, int, int, int>> out;
        const ScrubRwFaults f = scrubRwFaults(seed, cfg);
        for (const auto *list : {&f.boot, &f.field})
            for (const arcc::FunctionalFault &x : *list)
                out.emplace_back(x.channel, x.rank, x.device, x.bank, x.row,
                                 x.col);
        return out;
    };
    EXPECT_EQ(faults(3), faults(3));
    EXPECT_NE(faults(3), faults(4));
    // Field faults share one device of the rank the boot fault spares.
    const ScrubRwFaults f = scrubRwFaults(11, cfg);
    for (const arcc::FunctionalFault &x : f.field) {
        EXPECT_NE(x.rank, f.boot[0].rank);
        EXPECT_EQ(x.device, f.field[0].device);
        EXPECT_EQ(x.channel, f.field[0].channel);
    }
}

TEST(Generators, FleetSpecCarriesTheSeed)
{
    EXPECT_EQ(fleetSpec(5, 100).seed, 5u);
    EXPECT_EQ(fleetSpec(5, 100).configHash(),
              fleetSpec(6, 100).configHash());
    EXPECT_EQ(fleetSpec(5, kFleetChannels).channels, kFleetChannels);
}

TEST(Generators, ArccdRequestsArePureFunctionsOfTheSeed)
{
    const auto pool = arccdPool(9);
    EXPECT_EQ(pool, arccdPool(9));
    EXPECT_NE(pool, arccdPool(10));
    EXPECT_EQ(std::set<std::string>(pool.begin(), pool.end()).size(),
              pool.size());

    auto draw = [&](std::uint64_t seed, std::uint64_t client) {
        RequestStream s(seed, client, pool);
        std::vector<std::string> out;
        std::uint64_t cold = 0;
        for (int i = 0; i < 200; ++i) {
            out.push_back(s.next());
            cold += s.lastCold() ? 1 : 0;
        }
        EXPECT_EQ(cold, 200 / RequestStream::kColdEvery);
        return out;
    };
    EXPECT_EQ(draw(9, 0), draw(9, 0));
    EXPECT_NE(draw(9, 0), draw(10, 0));
    EXPECT_NE(draw(9, 0), draw(9, 1));

    // Cold requests are never in the pool and never repeat.
    std::set<std::string> cold;
    for (std::uint64_t c = 0; c < 4; ++c)
        for (std::uint64_t k = 0; k < 50; ++k) {
            const std::string line = coldRequest(9, c, k);
            EXPECT_TRUE(cold.insert(line).second);
            EXPECT_EQ(std::find(pool.begin(), pool.end(), line), pool.end());
        }
}

TEST(PassProbe, OneUnderOnePassAndWithinTheBudget)
{
    arcc::MixJob job = figsweepGrid(20000)[3]; // Mix1 under a device fault.
    const std::string full = simResultBytes(
        arcc::simulateMix(job.mix, job.config, job.oracle));
    const int passes = latencyPasses(job, full);
    EXPECT_GE(passes, 1);
    EXPECT_LE(passes, job.config.latencyPasses);

    job.config.latencyPasses = 1;
    const std::string one = simResultBytes(
        arcc::simulateMix(job.mix, job.config, job.oracle));
    EXPECT_EQ(latencyPasses(job, one), 1);
}

TEST(Checks, RepeatMismatchIsCaught)
{
    const arcc::MixJob job = figsweepGrid(20000)[1];
    arcc::SimResult r = arcc::simulateMix(job.mix, job.config, job.oracle);
    FirstSeenCheck check;
    EXPECT_TRUE(check.check("job", simResultBytes(r)));
    EXPECT_TRUE(check.check("job", simResultBytes(r)));
    r.cores[2].ipc = std::nextafter(r.cores[2].ipc, 10.0);
    EXPECT_FALSE(check.check("job", simResultBytes(r)));
    EXPECT_TRUE(check.check("other", "x"));
}

TEST(Checks, ShadowCatchesWrongDataAndCountsDues)
{
    arcc::ArccMemory mem(arcc::FunctionalConfig::arccSmall());
    ShadowMemory shadow(mem.capacity());
    std::vector<std::uint8_t> line(arcc::kLineBytes, 0x5a);
    mem.write(128, line);
    shadow.write(128, line);
    EXPECT_EQ(shadow.check(128, mem.read(128)), ReadVerdict::Ok);

    line[3] ^= 1; // the shadow now expects different data.
    shadow.write(128, line);
    EXPECT_EQ(shadow.check(128, mem.read(128)), ReadVerdict::Mismatch);

    arcc::ReadResult due = mem.read(128);
    due.status = arcc::DecodeStatus::Detected;
    EXPECT_EQ(shadow.check(128, due), ReadVerdict::Due);
}

TEST(Checks, FleetDigestMismatchIsCaught)
{
    DigestCheck d;
    d.addCheckpointed(42);
    d.addCheckpointed(42);
    EXPECT_TRUE(d.verify(42));
    d.addCheckpointed(43);
    EXPECT_FALSE(d.verify(42));
}

TEST(Checks, ArccdRejectsErrorsAndChangedResponses)
{
    EXPECT_TRUE(responseOk("{\"ok\":true,\"kind\":\"mix\"}"));
    EXPECT_FALSE(responseOk("{\"ok\":false,\"error\":\"x\"}"));
    EXPECT_FALSE(responseOk(""));
    FirstSeenCheck check;
    EXPECT_TRUE(check.check("req", "{\"ok\":true,\"a\":1}"));
    EXPECT_FALSE(check.check("req", "{\"ok\":true,\"a\":2}"));
}

TEST(Spans, RecordOnlyWhenEnabled)
{
    SpanLog log;
    log.add({"x", log.newOp(), 0, 10, 20, 1});
    EXPECT_EQ(log.size(), 0u);
    log.enable(true);
    const std::uint64_t op = log.newOp();
    log.add({"x", op, 7, 100, 250, 3});
    log.add({"y", op, 7, 100, 110, 1});
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(log.totalCount("x"), 3u);
    EXPECT_EQ(log.totalNs("x"), 150.0);
}

TEST(Output, ResultLineHasTheFourKeys)
{
    Outcome o;
    o.attempted = 10;
    o.failed = 1;
    o.e2e("setup_s", 0.5, "s");
    o.layer("cpu.passes_max", 6, "count");
    EXPECT_EQ(resultLine(o, false),
              "{\"correct\":true,\"attempted\":10,\"failed\":1,\"metrics\":"
              "{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}");
    EXPECT_EQ(resultLine(o, true),
              "{\"correct\":true,\"attempted\":10,\"failed\":1,\"metrics\":"
              "{\"cpu.passes_max\":{\"value\":6,\"unit\":\"count\"}}}");
}
