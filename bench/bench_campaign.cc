/**
 * @file
 * Campaign-driver bench: one fleet spec run four ways -- plain,
 * checkpointed to a sealed-record log, interrupted halfway and
 * resumed, and split across a WorkerPlan whose slices are folded back
 * with mergeCampaigns -- and the digests of all four must agree.
 *
 * The digest and every counter are pure functions of the spec, so
 * the whole stdout is bit-identical at any ARCC_THREADS.  The bench
 * exits 1 unless the four digests agree: the checkpoint, resume and
 * scale-out exactness contracts, measured rather than assumed.
 * Campaign throughput and the fsync share are measured by perfbench.
 *
 * ARCC_BENCH_CAMPAIGN_CHANNELS overrides the fleet size (default
 * 8192 channel-lifetimes); ARCC_BENCH_CAMPAIGN_WORKERS the worker
 * split (default 4).
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "campaign/campaign.hh"
#include "common/table.hh"

using namespace arcc;
using namespace arcc::bench;

namespace
{

std::uint32_t
workerBudget()
{
    const std::uint64_t workers =
        envU64("ARCC_BENCH_CAMPAIGN_WORKERS", 4);
    if (workers > std::numeric_limits<std::uint32_t>::max())
        fatal("ARCC_BENCH_CAMPAIGN_WORKERS: value '%llu' is out of "
              "range for a 32-bit worker count",
              static_cast<unsigned long long>(workers));
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(workers));
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
jsonHex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "\"%016llx\"",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // anonymous namespace

int
main()
{
    CampaignSpec spec;
    spec.channels = std::max<std::uint64_t>(
        1, envU64("ARCC_BENCH_CAMPAIGN_CHANNELS", 8192));
    spec.epochTrials = 512;
    spec.seed = 20130223; // HPCA 2013.

    printBanner("Fleet campaign driver");
    std::printf("fleet: %llu channels x %.1f years, boost %.0fx, "
                "%d-device groups, epoch %llu, config %016llx\n\n",
                static_cast<unsigned long long>(spec.channels),
                spec.years, spec.rateBoost, spec.devicesPerGroup,
                static_cast<unsigned long long>(spec.epochTrials),
                static_cast<unsigned long long>(spec.configHash()));

    CampaignDriver driver(spec);
    const std::string ckpt =
        (std::filesystem::temp_directory_path() /
         "arcc_bench_campaign.ckpt").string();
    std::filesystem::remove(ckpt);

    // Leg 1: uninterrupted, no checkpoint.
    CampaignRunResult plain = driver.run();

    // Leg 2: same campaign with a sealed record after every epoch.
    CampaignRunOptions with_ckpt;
    with_ckpt.checkpointPath = ckpt;
    CampaignRunResult checked = driver.run(with_ckpt);

    // Leg 3: interrupt halfway, then resume -- digests must agree
    // with the uninterrupted run's.
    std::filesystem::remove(ckpt);
    CampaignRunOptions half = with_ckpt;
    half.maxEpochs = (spec.epochCount() + 1) / 2;
    CampaignRunResult first = driver.run(half);
    CampaignRunResult resumed = driver.run(with_ckpt);
    std::filesystem::remove(ckpt);

    // Leg 4: the scale-out axis -- split the fleet across a worker
    // plan, run every slice in turn, and fold with mergeCampaigns.
    const std::uint32_t workers = workerBudget();
    const WorkerPlan plan(spec, workers);
    std::vector<CampaignWorkerSlice> slices;
    slices.reserve(workers);
    for (std::uint32_t id = 0; id < workers; ++id)
        slices.push_back(workerSlice(spec, plan, id,
                                     driver.runWorker(plan, id)));
    CampaignRunResult merged =
        mergeCampaigns(spec, std::move(slices));

    const bool merge_match =
        merged.digest(spec) == plain.digest(spec);
    const bool digests_agree =
        plain.digest(spec) == checked.digest(spec) &&
        plain.digest(spec) == resumed.digest(spec) &&
        merge_match &&
        first.interrupted && resumed.resumedFromTrial > 0;

    const CampaignAggregate &agg = plain.aggregate;
    TextTable table;
    table.header({"leg", "trials", "epochs", "digest"});
    table.row({"plain", std::to_string(agg.trials),
               std::to_string(plain.epochsRun),
               hex(plain.digest(spec))});
    table.row({"checkpointed", std::to_string(checked.aggregate.trials),
               std::to_string(checked.epochsRun),
               hex(checked.digest(spec))});
    table.row({"kill+resume", std::to_string(resumed.aggregate.trials),
               std::to_string(first.epochsRun + resumed.epochsRun),
               hex(resumed.digest(spec))});
    table.row({std::to_string(workers) + " workers+merge",
               std::to_string(merged.aggregate.trials), "-",
               hex(merged.digest(spec))});
    table.print();
    std::printf("\nresume equality: %s\n",
                digests_agree ? "ok" : "MISMATCH");

    jsonRow("campaign",
            {{"channels", jsonNum(spec.channels)},
             {"epoch_trials", jsonNum(spec.epochTrials)},
             {"faults", jsonNum(agg.faultsSampled)},
             {"trials_with_fault", jsonNum(agg.trialsWithFault)},
             {"sdc_candidates", jsonNum(agg.sdcCandidates)},
             {"due_candidates", jsonNum(agg.dueCandidates)},
             {"affected_mean", jsonNum(agg.meanAffected())},
             {"affected_p99", jsonNum(agg.affectedHist.quantile(0.99))},
             {"digest", jsonHex(plain.digest(spec))},
             {"resume_digest_match",
              digests_agree ? "true" : "false"},
             {"workers",
              jsonNum(static_cast<std::uint64_t>(workers))},
             {"merge_digest_match", merge_match ? "true" : "false"}});

    return digests_agree ? 0 : 1;
}
