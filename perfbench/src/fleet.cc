/**
 * @file
 * fleet: CampaignDriver::run over ~10^6 channel-lifetimes, checkpointed
 * after every epoch to a fresh log, back to back until the window
 * closes.  The operation is the whole campaign, what a user of
 * arcc_campaign waits for.  Epoch boundaries are observed from outside
 * through the run's stopRequested poll, which CampaignDriver calls
 * before each epoch; the traced run reports their times.  After the
 * window one plain run() of the same spec must reproduce every
 * checkpointed digest.
 *
 * Epochs are alike, so a percentile of epoch times past the median
 * measures only the host: in a busy spell on a shared host the epoch
 * p90 rose 35-50% (slow fsyncs, stolen CPU) where the median rose
 * 10-20%, and its spread over ten runs reached 0.33.  Campaign times
 * and their median are what the end-to-end metrics report.
 *
 * The campaigns run on an engine of half the hardware threads (as
 * `ARCC_THREADS=N/2 arcc_campaign` would): with every CPU busy, a
 * neighbour on the host stalls some shard of every epoch, and at full
 * width the epoch time doubled under load that left a half-width
 * engine within 15% of its quiet time.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include <unistd.h>

#include "checks.hh"
#include "engine/sim_engine.hh"
#include "probes.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

/** One checkpointed campaign as seen from outside. */
struct CheckpointedRun
{
    std::vector<double> epochMs;
    double ns = 0.0;
    std::uint64_t trials = 0;
    std::uint64_t digest = 0;
    bool interrupted = false;
};

CheckpointedRun
runCheckpointed(const arcc::CampaignDriver &driver, const std::string &path,
                std::uint64_t maxEpochs, bool traced, SpanLog &spans)
{
    std::filesystem::remove(path);
    CheckpointedRun out;
    std::vector<std::uint64_t> polls;
    arcc::CampaignRunOptions options;
    options.checkpointPath = path;
    options.maxEpochs = maxEpochs;
    options.stopRequested = [&] {
        polls.push_back(nowNs());
        return false;
    };
    const std::uint64_t t0 = nowNs();
    const arcc::CampaignRunResult r = driver.run(options);
    const std::uint64_t t1 = nowNs();
    polls.push_back(t1);
    std::filesystem::remove(path);
    for (std::size_t e = 0; e + 1 < polls.size(); ++e) {
        out.epochMs.push_back(static_cast<double>(polls[e + 1] - polls[e]) *
                              1e-6);
        if (traced)
            spans.add({"campaign.epoch", spans.newOp(), 0, polls[e],
                       polls[e + 1], driver.spec().epochTrials});
    }
    out.ns = static_cast<double>(t1 - t0);
    out.trials = r.aggregate.trials;
    out.digest = r.digest(driver.spec());
    out.interrupted = r.interrupted;
    return out;
}

/** What a stretch of checkpointed campaigns did. */
struct FleetTotals
{
    /** Epoch times of untraced campaigns. */
    std::vector<double> epochMs;
    /** Epoch times of traced campaigns. */
    std::vector<double> tracedMs;
    /** Wall time of each untraced campaign. */
    std::vector<double> campaignMs;
    std::vector<double> runNsPerTrial;
    double ns = 0.0;
    std::uint64_t trials = 0;
    std::uint64_t attempted = 0, failed = 0;
    DigestCheck digests;
};

/**
 * Campaigns back to back until `seconds` have passed (seconds <= 0:
 * exactly `count`).  With spans enabled every campaign is traced, or
 * with `alternate` every other one.
 */
void
runCampaigns(const arcc::CampaignDriver &driver, const std::string &logBase,
             double seconds, int count, bool alternate, FleetTotals &t,
             SpanLog &spans)
{
    const auto start = Clock::now();
    for (int k = 0;; ++k) {
        if (seconds > 0 ? k > 0 && secondsSince(start) >= seconds
                        : k >= count)
            break;
        const bool traced = spans.enabled() && (!alternate || k % 2);
        const CheckpointedRun r = runCheckpointed(
            driver, logBase + "." + std::to_string(k), 0, traced, spans);
        std::vector<double> &epochs = traced ? t.tracedMs : t.epochMs;
        epochs.insert(epochs.end(), r.epochMs.begin(), r.epochMs.end());
        if (!traced)
            t.campaignMs.push_back(r.ns * 1e-6);
        t.runNsPerTrial.push_back(r.ns / static_cast<double>(r.trials));
        t.ns += r.ns;
        t.trials += r.trials;
        ++t.attempted;
        if (r.interrupted || r.trials != driver.spec().channels)
            ++t.failed;
        t.digests.addCheckpointed(r.digest);
    }
}

/** The plain run() the checkpointed digests must match. */
struct PlainRun
{
    double ns = 0.0;
    arcc::CampaignAggregate aggregate;
    std::uint64_t digest = 0;
};

PlainRun
runPlain(const arcc::CampaignDriver &driver, SpanLog &spans)
{
    PlainRun p;
    const std::uint64_t t0 = nowNs();
    const arcc::CampaignRunResult r = driver.run();
    const std::uint64_t t1 = nowNs();
    spans.add({"campaign.run_plain", spans.newOp(), 0, t0, t1,
               r.aggregate.trials});
    p.ns = static_cast<double>(t1 - t0);
    p.aggregate = r.aggregate;
    p.digest = r.digest(driver.spec());
    return p;
}

/** faults/reliability/campaign metrics from a traced stretch on an
 *  engine of `threads` executors. */
void
campaignMetrics(const arcc::CampaignDriver &driver, int threads,
                const FleetTotals &t, const PlainRun &plain, SpanLog &spans,
                Outcome &out)
{
    const arcc::CampaignSpec &spec = driver.spec();
    const std::uint64_t probeTrials =
        std::min<std::uint64_t>(spec.channels, 1ULL << 16);
    const std::uint64_t op = spans.newOp();

    std::uint64_t t0 = nowNs();
    const arcc::CampaignAggregate serial = driver.runTrials(0, probeTrials);
    std::uint64_t t1 = nowNs();
    spans.add({"campaign.run_trials", op, 0, t0, t1, probeTrials});
    const double serialNs =
        static_cast<double>(t1 - t0) / static_cast<double>(probeTrials);

    arcc::FaultSampler sampler(spec.geom, spec.rates.scaled(spec.rateBoost));
    const double hours = spec.years * arcc::kHoursPerYear;
    std::uint64_t events = 0;
    t0 = nowNs();
    for (std::uint64_t trial = 0; trial < probeTrials; ++trial) {
        arcc::Rng rng = arcc::Rng::stream(spec.seed, trial);
        events += sampler.sampleLifetime(hours, rng).size();
    }
    t1 = nowNs();
    spans.add({"faults.sample_lifetime", op, 0, t0, t1, probeTrials});

    const double plainNsTrial =
        plain.ns / static_cast<double>(plain.aggregate.trials);
    const double ckptNsTrial = median(t.runNsPerTrial);
    const double trials = static_cast<double>(plain.aggregate.trials);
    out.layer("campaign.serial_ns_trial", serialNs, "ns");
    out.layer("campaign.parallel_eff",
              serialNs / (plainNsTrial * threads),
              "ratio");
    out.layer("campaign.fsync_share", 1.0 - plainNsTrial / ckptNsTrial,
              "ratio");
    out.layer("campaign.epoch_ms", median(t.tracedMs), "ms");
    out.layer("faults.sample_ns_trial",
              static_cast<double>(t1 - t0) /
                  static_cast<double>(probeTrials),
              "ns");
    out.layer("faults.events_per_trial",
              static_cast<double>(events) / static_cast<double>(probeTrials),
              "count");
    out.layer("reliability.due_per_ktrial",
              1000.0 * static_cast<double>(plain.aggregate.dueCandidates) /
                  trials,
              "count");
    out.layer("reliability.sdc_candidates",
              static_cast<double>(plain.aggregate.sdcCandidates), "count");
    // The serial kernel over the first trials must agree with the
    // sampler probe on how many faults those trials drew.
    if (serial.faultsSampled != events)
        out.correct = false;
}

std::string
logBase(const std::string &workDir, const char *tag)
{
    return workDir + "/" + tag + "-" + std::to_string(::getpid()) + ".log";
}

/** The fleet's engine: half the hardware threads, at least one. */
arcc::SimEngine::Options
fleetEngineOptions()
{
    arcc::SimEngine::Options options;
    options.threads = std::max(1, hardwareThreads() / 2);
    return options;
}

} // namespace

arcc::CampaignSpec
fleetSpec(std::uint64_t seed, std::uint64_t channels)
{
    arcc::CampaignSpec spec;
    spec.rateBoost = 100.0;
    spec.years = 5.0;
    spec.devicesPerGroup = 18;
    spec.channels = channels;
    spec.epochTrials = kFleetEpochTrials;
    spec.seed = seed;
    return spec;
}

Outcome
runFleet(const Options &options, SpanLog &spans)
{
    Outcome out;
    const arcc::CampaignSpec spec = fleetSpec(options.seed, kFleetChannels);
    const std::string base = logBase(options.workDir, "fleet");
    arcc::SimEngine engine(fleetEngineOptions());

    // Warm-up: one untimed checkpointed campaign (its digest is
    // checked with the window's), so timings start on busy cores.
    FleetTotals warm;
    runCampaigns(arcc::CampaignDriver(spec, &engine), base + ".warm", 0.0, 1,
                 false, warm, spans);

    // Set-up: a CampaignDriver plus one sealed epoch (log creation and the
    // first fsync), nine times; report the median.
    std::vector<double> setups;
    std::unique_ptr<arcc::CampaignDriver> driver;
    for (int rep = 0; rep < 9; ++rep) {
        const auto t0 = Clock::now();
        driver = std::make_unique<arcc::CampaignDriver>(spec, &engine);
        runCheckpointed(*driver, base + ".setup", 1, false, spans);
        setups.push_back(secondsSince(t0));
    }

    if (!options.trace) {
        FleetTotals t;
        runCampaigns(*driver, base, options.seconds, 0, false, t, spans);
        const PlainRun plain = runPlain(*driver, spans);
        const Tail tail = pickTail(t.campaignMs.size(), 0.9);
        const double campaignMs = quantile(t.campaignMs, 0.5);
        out.attempted = t.attempted;
        out.failed = t.failed;
        out.correct = t.digests.verify(plain.digest) &&
                      warm.digests.verify(plain.digest);
        out.e2e("setup_s", median(setups), "s");
        out.e2e("peak_rss_mb", peakRssMb(), "MB");
        out.e2e("op_ms_p50", campaignMs, "ms");
        out.e2e("op_ms_tail", quantile(t.campaignMs, tail.q), "ms");
        out.e2e("work_per_s",
                static_cast<double>(spec.channels) / (campaignMs * 1e-3),
                "1/s");
        char line[200];
        std::snprintf(line, sizeof line,
                      "fleet: %zu campaigns of %llu trials, %zu epochs, "
                      "tail = %s of the campaign time, %d engine threads, "
                      "digest %016llx",
                      t.campaignMs.size(),
                      static_cast<unsigned long long>(spec.channels),
                      t.epochMs.size(), tail.label.c_str(), engine.threads(),
                      static_cast<unsigned long long>(plain.digest));
        out.note(line);
        return out;
    }
    // Every other campaign traced: the ratio of the traced and untraced
    // epochs' medians is the tracing overhead.
    FleetTotals t;
    spans.enable(true);
    runCampaigns(*driver, base, options.seconds, 0, true, t, spans);
    const PlainRun plain = runPlain(*driver, spans);
    out.attempted = t.attempted;
    out.failed = t.failed;
    out.correct = t.digests.verify(plain.digest) &&
                  warm.digests.verify(plain.digest);
    out.layer("bench.trace_overhead_pct",
              100.0 * (median(t.tracedMs) / median(t.epochMs) - 1.0), "%");
    campaignMetrics(*driver, engine.threads(), t, plain, spans, out);
    return out;
}

void
campaignLayerProbe(const arcc::CampaignSpec &spec, const std::string &workDir,
                   SpanLog &spans, Outcome &out)
{
    arcc::SimEngine engine(fleetEngineOptions());
    const arcc::CampaignDriver driver(spec, &engine);
    FleetTotals t;
    runCampaigns(driver, logBase(workDir, "probe"), 0.0, 1, false, t, spans);
    const PlainRun plain = runPlain(driver, spans);
    if (!t.digests.verify(plain.digest) || t.failed)
        out.correct = false;
    campaignMetrics(driver, engine.threads(), t, plain, spans, out);
}

} // namespace perfbench
