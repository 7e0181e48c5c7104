/**
 * @file
 * figsweep: the Figure 7.1-7.3 grid through simulateMix, closed loop.
 *
 * One caller runs whole sweeps of the 72-job grid, each in a seeded
 * order, so every run times the same job mix and only the order depends
 * on the seed.  Every job runs on the process-wide SimEngine, as
 * arcc_sim runs it: its channel shards fan out over the engine's
 * workers.  A single caller keeps the host's memory system, which the
 * simulator's front-end is bound by, from saturating, and keeps one
 * job's time and memory from depending on which other job it overlaps.
 * The timed window ends at the first sweep boundary after --seconds.
 */

#include <cstdio>
#include <optional>

#include "checks.hh"
#include "common/crc32c.hh"
#include "engine/sim_engine.hh"
#include "probes.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using Scenario = arcc::PageUpgradeOracle::Scenario;

constexpr std::uint64_t kFigureSeed = 20130223; // as the figure benches.
constexpr std::size_t kPerMix = 6;

struct WindowResult
{
    /** Job times of untraced jobs. */
    std::vector<double> jobMs;
    /** Job times of traced jobs (a traced window only). */
    std::vector<double> tracedMs;
    /** First result of every grid job that completed. */
    std::vector<std::optional<arcc::SimResult>> firsts;
    double wallS = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t instrs = 0;
    bool correct = true;
};

/**
 * One closed-loop window over whole sweeps of the grid, each in a seeded
 * order.  `paired` traces half the jobs: sweeps then come in pairs that
 * share one order, and each job is traced in exactly one sweep of its
 * pair, so the traced and untraced groups run the same jobs.
 */
WindowResult
runWindow(const std::vector<arcc::MixJob> &grid, std::uint64_t seed,
          double seconds, bool paired, FirstSeenCheck &check, SpanLog &spans,
          std::vector<std::uint64_t> &firstOp)
{
    WindowResult w;
    w.firsts.resize(grid.size());
    const auto t0 = Clock::now();
    for (std::uint64_t sweep = 0;; ++sweep) {
        if (sweep > 0 && (!paired || sweep % 2 == 0) &&
            secondsSince(t0) >= seconds)
            break;
        const std::vector<std::size_t> order =
            figsweepOrder(seed, paired ? sweep / 2 : sweep, grid.size());
        for (std::size_t pos = 0; pos < order.size(); ++pos) {
            const std::size_t j = order[pos];
            const bool traced = paired && (pos + sweep) % 2 == 1;
            const std::uint64_t op = traced ? spans.newOp() : 0;
            const std::uint64_t s0 = nowNs();
            arcc::SimResult r;
            try {
                r = arcc::simulateMix(grid[j].mix, grid[j].config,
                                      grid[j].oracle);
            } catch (const std::exception &) {
                ++w.attempted;
                ++w.failed;
                continue;
            }
            const std::uint64_t s1 = nowNs();
            ++w.attempted;
            if (traced)
                spans.add({"figsweep.job", op, 0, s0, s1, 1});
            if (!check.check(std::to_string(j), simResultBytes(r)))
                w.correct = false;
            if (traced && firstOp[j] == 0)
                firstOp[j] = op;
            if (!w.firsts[j])
                w.firsts[j] = std::move(r);
            (traced ? w.tracedMs : w.jobMs)
                .push_back(static_cast<double>(s1 - s0) * 1e-6);
            w.instrs += grid[j].config.instrsPerCore *
                        static_cast<std::uint64_t>(grid[j].config.cores);
        }
    }
    w.wallS = secondsSince(t0);
    return w;
}

/** The simulated-statistics lines: digest, Figure 7.1 vs the paper.
 *  Every repeat of a job was checked against its first result, so the
 *  first results stand for all of them. */
void
simulatedStatistics(const std::vector<std::optional<arcc::SimResult>> &r,
                    Outcome &out)
{
    arcc::Crc32c digest;
    for (const auto &res : r) {
        if (!res)
            return; // a job never completed; failures already counted.
        const std::string bytes = simResultBytes(*res);
        digest.update({reinterpret_cast<const std::uint8_t *>(bytes.data()),
                       bytes.size()});
    }
    double saving = 0.0, gain = 0.0, lane = 0.0;
    const std::size_t mixes = r.size() / kPerMix;
    for (std::size_t m = 0; m < mixes; ++m) {
        const arcc::SimResult &base = *r[m * kPerMix];
        const arcc::SimResult &clean = *r[m * kPerMix + 1];
        const arcc::SimResult &faulted = *r[m * kPerMix + 2];
        saving += 1.0 - clean.avgPowerMw / base.avgPowerMw;
        gain += clean.ipcSum / base.ipcSum - 1.0;
        lane += faulted.avgPowerMw / clean.avgPowerMw - 1.0;
    }
    const double n = static_cast<double>(mixes);
    char line[512];
    std::snprintf(line, sizeof line,
                  "simulated: sim_digest=%08x (CRC-32C) over %zu SimResults",
                  static_cast<unsigned>(digest.value()), r.size());
    out.note(line);
    std::snprintf(line, sizeof line,
                  "simulated: Figure 7.1 power %+.1f%% (paper -36.7%%), "
                  "IPC %+.1f%% (paper +5.9%%); Figure 7.2 lane-fault "
                  "power overhead %+.1f%%",
                  -100.0 * saving / n, 100.0 * gain / n,
                  100.0 * lane / n);
    out.note(line);
    out.note("simulated: the performance model is otherwise "
             "unvalidated (no reference measurements in the repo); "
             "these are modelled values, not host timings");
}

} // namespace

std::vector<arcc::MixJob>
figsweepGrid(std::uint64_t instrs)
{
    arcc::SystemConfig base;
    base.mem = arcc::baselineConfig();
    base.instrsPerCore = instrs;
    base.seed = kFigureSeed;
    arcc::SystemConfig arcc_cfg = base;
    arcc_cfg.mem = arcc::arccConfig();

    std::vector<arcc::MixJob> jobs;
    for (const arcc::WorkloadMix &mix : arcc::table73Mixes()) {
        jobs.push_back({mix, base, {}});
        jobs.push_back({mix, arcc_cfg, {}});
        for (Scenario s : {Scenario::Lane, Scenario::Device,
                           Scenario::Bank, Scenario::Column})
            jobs.push_back({mix, arcc_cfg,
                            arcc::PageUpgradeOracle::forScenario(
                                s, arcc_cfg.mem)});
    }
    return jobs;
}

std::vector<std::size_t>
figsweepOrder(std::uint64_t seed, std::uint64_t sweep, std::size_t jobs)
{
    std::vector<std::size_t> order(jobs);
    for (std::size_t i = 0; i < jobs; ++i)
        order[i] = i;
    arcc::Rng rng(arcc::Rng::mix64(seed) ^ arcc::Rng::mix64(sweep + 1));
    for (std::size_t i = jobs; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

Outcome
runFigsweep(const Options &options, SpanLog &spans)
{
    Outcome out;
    // Warm-up: one untimed sweep, so set-up and window timings start
    // on busy cores rather than on a host that was idle.
    std::vector<arcc::MixJob> grid = figsweepGrid();
    FirstSeenCheck check;
    std::vector<std::uint64_t> firstOp(grid.size(), 0);
    if (!runWindow(grid, ~options.seed, 0.0, false, check, spans, firstOp)
             .correct)
        out.correct = false;

    // Set-up: build the grid and run its first job once (lazy tables,
    // allocator arenas, the engine's workers).  Nine times; report the
    // median.
    std::vector<double> setups;
    for (int rep = 0; rep < 9; ++rep) {
        const auto t0 = Clock::now();
        grid = figsweepGrid();
        arcc::simulateMix(grid[0].mix, grid[0].config, grid[0].oracle);
        setups.push_back(secondsSince(t0));
    }
    if (!options.trace) {
        const WindowResult w = runWindow(grid, options.seed, options.seconds,
                                         false, check, spans, firstOp);
        const Tail tail = pickTail(w.jobMs.size(), 0.9);
        out.attempted = w.attempted;
        out.failed = w.failed;
        out.correct = out.correct && w.correct;
        simulatedStatistics(w.firsts, out);
        out.e2e("setup_s", median(setups), "s");
        out.e2e("peak_rss_mb", peakRssMb(), "MB");
        out.e2e("op_ms_p50", quantile(w.jobMs, 0.5), "ms");
        out.e2e("op_ms_tail", quantile(w.jobMs, tail.q), "ms");
        out.e2e("work_per_s", static_cast<double>(w.instrs) / w.wallS,
                "1/s");
        char line[200];
        std::snprintf(line, sizeof line,
                      "figsweep: %zu jobs on a %d-thread engine, tail = %s "
                      "of the job time, %.2f s window",
                      w.jobMs.size(), arcc::SimEngine::global().threads(),
                      tail.label.c_str(), w.wallS);
        out.note(line);
    } else {
        // Every job runs once traced and once untraced in each pair of
        // sweeps; the ratio of the two groups' medians is the tracing
        // overhead.
        spans.enable(true);
        const WindowResult w = runWindow(grid, options.seed, options.seconds,
                                         true, check, spans, firstOp);
        out.attempted = w.attempted;
        out.failed = w.failed;
        out.correct = out.correct && w.correct;
        simulatedStatistics(w.firsts, out);
        out.layer("bench.trace_overhead_pct",
                  100.0 * (median(w.tracedMs) / median(w.jobMs) - 1.0), "%");
        simLayerProbe(grid, firstOp, spans, out);
    }
    return out;
}

} // namespace perfbench
