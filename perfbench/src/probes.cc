/**
 * @file
 * Layer probes for the simulator and the codec kernels, and the
 * dispatcher that completes a traced run's per-layer report.
 */

#include "probes.hh"

#include <algorithm>
#include <memory>
#include <queue>

#include "cache/llc.hh"
#include "checks.hh"
#include "dram/address_map.hh"
#include "dram/channel_shard.hh"
#include "ecc/reed_solomon.hh"
#include "ecc/rs_workspace.hh"
#include "engine/sim_engine.hh"

namespace perfbench
{

namespace
{

/** Host-time split of one job, as measured by the replay probe, and
 *  the call counts the times are divided by. */
struct JobReplay
{
    double recordNs = 0, llcNs = 0, decodeNs = 0, channelNs = 0;
    std::uint64_t accesses = 0, decodes = 0, reqs = 0, groups = 0;
};

/** One access of the merged (time-ordered) stream. */
struct TimedAccess
{
    double at;
    std::uint64_t addr;
    bool write;
    bool upgraded;
};

/** One request the LLC sends to memory. */
struct MemRequest
{
    double at;
    std::uint64_t addr;
    bool write;
    bool paired;
};

/**
 * Replay one job's stream through each layer in turn, timing each
 * layer's calls in its own span.  Arrivals are spaced by the compute
 * gaps and the LLC hit latency only (no stall feedback): the probe
 * measures per-call host cost, not the modelled timeline, so its miss
 * and request counts differ from the program's and are not reported.
 */
JobReplay
replayJob(const arcc::MixJob &job, std::uint64_t cause, SpanLog &spans)
{
    using namespace arcc;
    const SystemConfig &cfg = job.config;
    const std::uint64_t op = spans.newOp();
    JobReplay out;

    AddressMap map(cfg.mem, cfg.mapPolicy);
    const std::uint64_t cap = map.capacity();
    std::vector<std::vector<CoreWorkload::Access>> streams(cfg.cores);
    std::vector<double> ipc(cfg.cores);
    {
        const std::uint64_t t0 = nowNs();
        for (int i = 0; i < cfg.cores; ++i) {
            StreamSpec spec = syntheticStreamSpec(
                job.mix.benchmarks[i], cap, i, mixCoreSeed(cfg.seed, i));
            ipc[i] = spec.baseIpc;
            std::uint64_t instrs = 0;
            do {
                streams[i].push_back(spec.next());
                instrs += streams[i].back().instrGap;
            } while (instrs < cfg.instrsPerCore);
            out.accesses += streams[i].size();
        }
        const std::uint64_t t1 = nowNs();
        out.recordNs = static_cast<double>(t1 - t0);
        spans.add({"cpu.record", op, cause, t0, t1, out.accesses});
    }

    // Merge the per-core streams in time order (outside any span).
    std::vector<TimedAccess> merged;
    merged.reserve(out.accesses);
    {
        const double cycle_ns = 1.0 / cfg.cpuGhz;
        using Head = std::pair<double, int>;
        std::priority_queue<Head, std::vector<Head>, std::greater<>> heads;
        std::vector<std::size_t> idx(cfg.cores, 0);
        std::vector<double> t(cfg.cores, 0.0);
        for (int i = 0; i < cfg.cores; ++i) {
            t[i] = static_cast<double>(streams[i][0].instrGap) / ipc[i] *
                   cycle_ns;
            heads.push({t[i], i});
        }
        while (!heads.empty()) {
            const int i = heads.top().second;
            heads.pop();
            const CoreWorkload::Access &a = streams[i][idx[i]];
            const std::uint64_t addr = a.addr % cap;
            merged.push_back(
                {t[i], addr, a.isWrite, job.oracle.upgraded(addr)});
            if (++idx[i] < streams[i].size()) {
                t[i] += cfg.llc.hitLatencyNs +
                        static_cast<double>(streams[i][idx[i]].instrGap) /
                            ipc[i] * cycle_ns;
                heads.push({t[i], i});
            }
        }
    }

    std::vector<MemRequest> reqs;
    reqs.reserve(merged.size() / 2);
    {
        PairedTagLlc llc(cfg.llc);
        const std::uint64_t t0 = nowNs();
        for (const TimedAccess &a : merged) {
            const LlcOutcome o = llc.access(a.addr, a.write, a.upgraded);
            if (o.hit)
                continue;
            for (const Writeback &wb : o.writebacks)
                reqs.push_back({a.at, wb.addr % cap, true, wb.paired});
            reqs.push_back({a.at, a.addr, false, a.upgraded});
        }
        const std::uint64_t t1 = nowNs();
        out.llcNs = static_cast<double>(t1 - t0);
        spans.add({"cache.llc", op, cause, t0, t1, merged.size()});
    }

    std::vector<std::pair<DramCoord, DramCoord>> coords(reqs.size());
    {
        const std::uint64_t t0 = nowNs();
        for (std::size_t r = 0; r < reqs.size(); ++r) {
            if (reqs[r].paired) {
                const std::uint64_t base =
                    reqs[r].addr & ~(kUpgradedLineBytes - 1);
                coords[r] = {map.decode(base), map.decode(base + kLineBytes)};
                out.decodes += 2;
            } else {
                coords[r].first = map.decode(reqs[r].addr);
                ++out.decodes;
            }
        }
        const std::uint64_t t1 = nowNs();
        out.decodeNs = static_cast<double>(t1 - t0);
        spans.add({"dram.decode", op, cause, t0, t1, out.decodes});
    }

    {
        ChannelShardPlan plan(map, job.oracle.mayUpgrade());
        out.groups = plan.groups();
        std::vector<std::unique_ptr<ChannelSet>> sets;
        for (std::size_t g = 0; g < plan.groups(); ++g)
            sets.push_back(std::make_unique<ChannelSet>(
                cfg.mem, cfg.ctrl, plan.group(g)));
        const std::uint64_t t0 = nowNs();
        for (std::size_t r = 0; r < reqs.size(); ++r) {
            ChannelSet &set =
                *sets[plan.groupOf(coords[r].first.channel)];
            if (reqs[r].paired)
                set.accessPaired(reqs[r].at, coords[r].first,
                                 coords[r].second, reqs[r].write);
            else
                set.access(reqs[r].at, coords[r].first, reqs[r].write);
        }
        const std::uint64_t t1 = nowNs();
        out.channelNs = static_cast<double>(t1 - t0);
        out.reqs = reqs.size();
        spans.add({"dram.channel", op, cause, t0, t1, out.reqs});
    }
    return out;
}

/** Minimum ns per item over `reps` timed passes of `body`. */
template <typename Body>
double
minNsPerItem(SpanLog &spans, const char *name, std::uint64_t op,
             std::uint64_t items, int reps, Body body)
{
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const std::uint64_t t0 = nowNs();
        body();
        const std::uint64_t t1 = nowNs();
        spans.add({name, op, 0, t0, t1, items});
        const double ns = static_cast<double>(t1 - t0) /
                          static_cast<double>(items);
        if (rep == 0 || ns < best)
            best = ns;
    }
    return best;
}

} // namespace

std::vector<arcc::MixJob>
simProbeJobs()
{
    std::vector<arcc::MixJob> grid = figsweepGrid();
    grid.resize(6); // Mix1: baseline, ARCC clean, lane, device, bank, column.
    return grid;
}

void
simLayerProbe(const std::vector<arcc::MixJob> &jobs,
              const std::vector<std::uint64_t> &causes, SpanLog &spans,
              Outcome &out)
{
    const std::size_t n = jobs.size();
    std::vector<double> simNs(n);
    std::vector<std::string> reference(n);
    std::vector<JobReplay> replay(n);
    // The program's own counters; the replay only times the calls.
    std::uint64_t accesses = 0, hits = 0, misses = 0, pairedFills = 0;
    std::uint64_t reqs = 0, pairedReqs = 0;
    for (std::size_t j = 0; j < n; ++j) {
        const std::uint64_t op = spans.newOp();
        const std::uint64_t t0 = nowNs();
        const arcc::SimResult r =
            arcc::simulateMix(jobs[j].mix, jobs[j].config, jobs[j].oracle);
        const std::uint64_t t1 = nowNs();
        spans.add({"cpu.simulate_mix", op, causes[j], t0, t1, 1});
        simNs[j] = static_cast<double>(t1 - t0);
        reference[j] = simResultBytes(r);
        replay[j] = replayJob(jobs[j], causes[j], spans);

        std::uint64_t jobAccesses = 0;
        for (const arcc::CoreResult &c : r.cores)
            jobAccesses += c.llcAccesses;
        // The replay must walk the very streams the program recorded.
        if (replay[j].accesses != jobAccesses)
            out.correct = false;
        const arcc::LlcStats &llc = r.llcStats;
        accesses += jobAccesses;
        hits += llc.hits;
        misses += llc.misses;
        pairedFills += llc.pairedFills;
        // One request per miss and per writeback; memWrites counts a
        // paired writeback's two sub-lines.
        reqs += llc.misses + r.memWrites - llc.pairedWritebacks;
        pairedReqs += llc.pairedFills + llc.pairedWritebacks;
    }
    std::vector<int> passes(n);
    arcc::SimEngine::global().forEachIndex(n, [&](std::uint64_t j) {
        passes[j] = latencyPasses(jobs[j], reference[j]);
    });

    JobReplay sum;
    double unexplained = 0.0, sim = 0.0, passSum = 0.0;
    int passMax = 0;
    for (std::size_t j = 0; j < n; ++j) {
        const JobReplay &r = replay[j];
        sum.recordNs += r.recordNs;
        sum.llcNs += r.llcNs;
        sum.decodeNs += r.decodeNs;
        sum.channelNs += r.channelNs;
        sum.accesses += r.accesses;
        sum.decodes += r.decodes;
        sum.reqs += r.reqs;
        sum.groups += r.groups;
        sim += simNs[j];
        passSum += passes[j];
        passMax = std::max(passMax, passes[j]);
        unexplained += simNs[j] - r.recordNs -
                       passes[j] * (r.llcNs + r.decodeNs + r.channelNs);
    }
    const double jn = static_cast<double>(n);
    const auto per = [](double a, std::uint64_t b) {
        return b ? a / static_cast<double>(b) : 0.0;
    };
    out.layer("cpu.sim_ms_job", sim / jn * 1e-6, "ms");
    out.layer("cpu.record_ns_access", per(sum.recordNs, sum.accesses),
              "ns");
    out.layer("cpu.accesses_job", static_cast<double>(accesses) / jn,
              "count");
    out.layer("cpu.passes_mean", passSum / jn, "count");
    out.layer("cpu.passes_max", passMax, "count");
    out.layer("cpu.unexplained_ms_job", unexplained / jn * 1e-6, "ms");
    out.layer("cache.llc_ns_access", per(sum.llcNs, sum.accesses), "ns");
    out.layer("cache.llc_miss_ratio",
              per(static_cast<double>(misses), hits + misses), "ratio");
    out.layer("cache.paired_fill_share",
              per(static_cast<double>(pairedFills), misses), "ratio");
    out.layer("dram.decode_ns", per(sum.decodeNs, sum.decodes), "ns");
    out.layer("dram.channel_ns_req", per(sum.channelNs, sum.reqs), "ns");
    out.layer("dram.reqs_job", static_cast<double>(reqs) / jn, "count");
    out.layer("dram.paired_req_share",
              per(static_cast<double>(pairedReqs), reqs), "ratio");
    out.layer("dram.shard_groups", static_cast<double>(sum.groups) / jn,
              "count");
}

void
eccLayerProbe(std::uint64_t seed, SpanLog &spans, Outcome &out)
{
    using arcc::ReedSolomon;
    constexpr std::size_t kWords = 4096;
    constexpr int kReps = 5;
    arcc::Rng rng(seed ^ 0x656363ULL);
    const std::uint64_t op = spans.newOp();

    auto words = [&](const ReedSolomon &rs) {
        std::vector<std::uint8_t> w(kWords * rs.n());
        for (std::size_t i = 0; i < kWords; ++i) {
            for (int s = 0; s < rs.k(); ++s)
                w[i * rs.n() + s] =
                    static_cast<std::uint8_t>(rng.below(256));
            rs.encode({w.data() + i * rs.n(),
                       static_cast<std::size_t>(rs.n())});
        }
        return w;
    };
    // One symbol error per word, at a seeded position and value.
    auto corrupt = [&](const ReedSolomon &rs, std::vector<std::uint8_t> w) {
        for (std::size_t i = 0; i < kWords; ++i)
            w[i * rs.n() + rng.below(rs.n())] ^=
                static_cast<std::uint8_t>(1 + rng.below(255));
        return w;
    };

    const ReedSolomon rs18(18, 16);
    const ReedSolomon rs36(36, 32);
    arcc::RsWorkspace &ws = ReedSolomon::tlsWorkspace();
    std::uint64_t failures = 0;
    auto encodeNs = [&](const ReedSolomon &rs, const char *name) {
        std::vector<std::uint8_t> w = words(rs);
        return minNsPerItem(spans, name, op, kWords, kReps, [&] {
            for (std::size_t i = 0; i < kWords; ++i)
                rs.encode({w.data() + i * rs.n(),
                           static_cast<std::size_t>(rs.n())});
        });
    };
    auto decodeNs = [&](const ReedSolomon &rs, const char *name) {
        const std::vector<std::uint8_t> bad = corrupt(rs, words(rs));
        std::vector<std::uint8_t> w;
        double best = 0.0;
        for (int rep = 0; rep < kReps; ++rep) {
            w = bad;
            const std::uint64_t t0 = nowNs();
            for (std::size_t i = 0; i < kWords; ++i)
                failures += rs.decode({w.data() + i * rs.n(),
                                       static_cast<std::size_t>(rs.n())},
                                      ws)
                                .ok()
                                ? 0
                                : 1;
            const std::uint64_t t1 = nowNs();
            spans.add({name, op, 0, t0, t1, kWords});
            const double ns = static_cast<double>(t1 - t0) / kWords;
            best = rep == 0 ? ns : std::min(best, ns);
        }
        return best;
    };
    out.layer("ecc.rs18_encode_ns", encodeNs(rs18, "ecc.rs18_encode"),
              "ns");
    out.layer("ecc.rs36_encode_ns", encodeNs(rs36, "ecc.rs36_encode"),
              "ns");
    out.layer("ecc.rs18_decode_ns", decodeNs(rs18, "ecc.rs18_decode1"),
              "ns");
    out.layer("ecc.rs36_decode1_ns", decodeNs(rs36, "ecc.rs36_decode1"),
              "ns");

    // The SoA syndrome screen: 64 RS(18,16) words per block.
    constexpr int kLanes = 64;
    const std::vector<std::uint8_t> w = words(rs18);
    std::vector<std::uint8_t> soa(18 * kLanes), synd(2 * kLanes),
        flags(kLanes);
    const std::size_t blocks = kWords / kLanes;
    std::vector<std::vector<std::uint8_t>> blockSoa(blocks, soa);
    for (std::size_t b = 0; b < blocks; ++b)
        for (int l = 0; l < kLanes; ++l)
            for (int s = 0; s < 18; ++s)
                blockSoa[b][s * kLanes + l] = w[(b * kLanes + l) * 18 + s];
    std::uint64_t flagged = 0;
    out.layer("ecc.soa_screen_ns_word",
              minNsPerItem(spans, "ecc.soa_screen", op, kWords, kReps, [&] {
                  for (std::size_t b = 0; b < blocks; ++b)
                      flagged += rs18.computeSyndromesSoa(
                                     blockSoa[b].data(), kLanes, kLanes,
                                     synd.data(), flags.data())
                                     ? 1
                                     : 0;
              }),
              "ns");
    // Clean words never flag and corrupted ones always correct: a
    // nonzero count here means the codec itself misbehaved.
    if (failures != 0 || flagged != 0)
        out.correct = false;
}

void
probeRemainingLayers(const Options &options, SpanLog &spans, Outcome &out)
{
    if (!out.hasLayer("cpu.sim_ms_job")) {
        const std::vector<arcc::MixJob> jobs = simProbeJobs();
        simLayerProbe(jobs, std::vector<std::uint64_t>(jobs.size(), 0),
                      spans, out);
    }
    if (!out.hasLayer("ecc.rs18_encode_ns"))
        eccLayerProbe(options.seed, spans, out);
    if (!out.hasLayer("arcc.write_ns_line"))
        arccLayerProbe(options.seed, scrubRwProbeShape(), 2, spans, out);
    if (!out.hasLayer("campaign.serial_ns_trial"))
        campaignLayerProbe(fleetSpec(options.seed, 1ULL << 16),
                           options.workDir, spans, out);
    if (!out.hasLayer("service.parse_us"))
        serviceLayerProbe(options, spans, out);
}

} // namespace perfbench
