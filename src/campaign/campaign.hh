/**
 * @file
 * Fleet-scale Monte Carlo campaign driver, hardened against
 * interruption.
 *
 * A *campaign* is the full reliability experiment the smaller Monte
 * Carlos validate in miniature: N memory channels, each simulated for
 * a whole deployment horizon under boosted field-study fault rates,
 * with the codeword grouping of the codec under test (18 devices per
 * relaxed ARCC codeword, 36 for the commercial lockstep baseline).
 * Fleets of interest run millions of channel-lifetimes, which is
 * hours of compute -- long enough that preemption, OOM kills and
 * power loss are expected events, not exceptional ones.  The driver
 * is therefore built around three invariants:
 *
 *  1. **Deterministic decomposition.**  Trial t (channel t's
 *     lifetime) draws its generator from Rng::stream(seed, t), a pure
 *     function of the trial index, and trials are executed through
 *     SimEngine::reduceShards in *fixed-size epochs*.  Shard and
 *     epoch boundaries depend only on the spec, never on the thread
 *     count or on where a previous run stopped.
 *
 *  2. **O(1) aggregate state.**  The running result is a
 *     CampaignAggregate: integer counters plus StreamingHistogram
 *     sketches (common/sketch.hh).  It merges exactly (integer
 *     counts; doubles folded in fixed epoch/shard order), serialises
 *     to a small blob, and digests to a stable hash() -- the value CI
 *     pins across thread counts and kill/resume runs.
 *
 *  3. **Crash-safe progress.**  After every epoch the driver seals
 *     one checkpoint record (campaign/checkpoint.hh): the epoch
 *     index, the next-trial cursor and the full serialized aggregate.
 *     Because the record carries *state*, not a delta, resuming needs
 *     only the last sealed record; because epochs are fixed-size, a
 *     resumed run folds the identical partials in the identical
 *     order and its final digest is bit-identical to an
 *     uninterrupted run's.
 *
 * The RNG bookkeeping in a checkpoint is just the cursor: stream
 * generators make "where was the RNG?" a non-question, which is the
 * reason the sampler API was built on Rng::stream in the first
 * place.
 */

#ifndef ARCC_CAMPAIGN_CAMPAIGN_HH
#define ARCC_CAMPAIGN_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sketch.hh"
#include "faults/fault_model.hh"

namespace arcc
{

class SimEngine;

/** Everything that identifies a campaign (hashed into configHash). */
struct CampaignSpec
{
    /** Per-channel geometry (the unit one trial simulates). */
    DomainGeometry geom;
    /** Base per-device FIT rates. */
    FaultRates rates = FaultRates::fieldStudy();
    /** Uniform rate boost making events observable in feasible
     *  trials (the validation-MC convention). */
    double rateBoost = 100.0;
    /** Deployment horizon per channel. */
    double years = 5.0;
    /** Scrub period bounding the ARCC-DED exposure window. */
    double scrubHours = 4.0;
    /** Codec grouping: devices per codeword group (18 = ARCC relaxed
     *  codeword, 36 = commercial lockstep); must divide the channel's
     *  device count. */
    int devicesPerGroup = 18;
    /** Footprint geometry for the overlap kernel. */
    int rowsPerBank = 8192;
    int colsPerBank = 1024;

    /** Fleet size: total trials (channel-lifetimes). */
    std::uint64_t channels = 1 << 16;
    /** Campaign seed (selects every Rng::stream). */
    std::uint64_t seed = 1;
    /** Trials per epoch: the checkpoint granularity.  Fixed epoch
     *  boundaries are what make resume bit-identical. */
    std::uint64_t epochTrials = 4096;
    /** Trials per engine shard within an epoch. */
    std::uint64_t shardTrials = 64;

    /** The most faults a trial may expect: about 3 MB of events.  The
     *  largest fault Monte Carlo behind a figure draws about 505 (Fig
     *  6.1's validation, 2000x rates over 7 years). */
    static constexpr double kMaxExpectedFaultsPerTrial = 1e5;

    /** Faults one trial (a channel-lifetime) expects to draw: boosted
     *  FIT x devices x hours. */
    double expectedFaultsPerTrial() const;

    /**
     * Stable digest of every field above *except the seed* (the seed
     * is carried separately in the checkpoint identity).  Stamped
     * into checkpoint headers and bench rows so a resumed run can
     * prove it is the same experiment.
     */
    std::uint64_t configHash() const;

    /** Epochs this spec decomposes into (last one may be short). */
    std::uint64_t
    epochCount() const
    {
        return (channels + epochTrials - 1) / epochTrials;
    }

    /** End-of-epoch trial cursor for epoch `e`. */
    std::uint64_t
    epochEnd(std::uint64_t e) const
    {
        std::uint64_t end = (e + 1) * epochTrials;
        return end < channels ? end : channels;
    }
};

/**
 * The campaign's O(1) running state: what one trial's outcome folds
 * into, what an epoch checkpoint serialises, and what the digest
 * covers.  All merges are exact or fixed-order, so any shard/epoch
 * decomposition of the same trial set yields bit-identical state.
 */
struct CampaignAggregate
{
    std::uint64_t trials = 0;
    /** Concrete faults sampled over all trials. */
    std::uint64_t faultsSampled = 0;
    /** Trials that saw at least one fault. */
    std::uint64_t trialsWithFault = 0;
    /** ARCC-DED SDC candidates: overlapping pairs inside the first
     *  fault's scrub-detection window. */
    std::uint64_t sdcCandidates = 0;
    /** DUE candidates: overlapping pairs regardless of window. */
    std::uint64_t dueCandidates = 0;
    /** Sum over trials of the end-of-life affected-page fraction. */
    double affectedSum = 0.0;
    /** Distribution of the end-of-life affected fraction in [0, 1). */
    StreamingHistogram affectedHist;
    /** Distribution of per-trial fault counts in [0, 64). */
    StreamingHistogram faultHist;

    /** Aggregate with the campaign's fixed sketch shapes. */
    static CampaignAggregate empty();

    /** Fold another aggregate in (shard/epoch-order merge). */
    void merge(const CampaignAggregate &other);

    /** Mean affected fraction (0 when no trials ran). */
    double
    meanAffected() const
    {
        return trials ? affectedSum / static_cast<double>(trials) : 0.0;
    }

    /** Stable digest over every counter and both sketches. */
    std::uint64_t hash() const;

    /** Append the aggregate as a little-endian blob. */
    void serializeTo(std::vector<std::uint8_t> &out) const;

    /** Decode from `[*cursor, end)`, advancing the cursor.  fatal()
     *  on truncation (payloads are CRC-checked before this). */
    static CampaignAggregate
    deserializeFrom(const std::uint8_t **cursor,
                    const std::uint8_t *end);
};

/** One worker's contiguous slice [begin, end) of the trial space. */
struct WorkerRange
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;

    std::uint64_t trials() const { return end - begin; }
    bool empty() const { return begin == end; }
};

/**
 * Partition of a campaign's trial space into N contiguous worker
 * ranges, balanced to within one trial.  The partition is a pure
 * function of (channels, workers): every participant -- workers,
 * resumers, the merge step -- derives the identical plan from the
 * spec, so worker ranges can be stamped into checkpoint headers and
 * cross-checked at every step.
 *
 * Partitioning never perturbs per-trial randomness: trial i always
 * draws from Rng::stream(seed, i) with its *global* index, so the
 * same trial computes the same outcome no matter which worker owns
 * it or how many workers there are.  When workers > channels the
 * trailing workers own empty ranges, which contribute (exactly)
 * nothing to the merge.
 */
class WorkerPlan
{
  public:
    /** Split `spec`'s trial space across `workers` ranges.  fatal()
     *  on zero workers. */
    WorkerPlan(const CampaignSpec &spec, std::uint32_t workers);

    std::uint32_t workers() const { return workers_; }
    std::uint64_t channels() const { return channels_; }

    /** Worker `id`'s slice; fatal() on an out-of-range id. */
    WorkerRange range(std::uint32_t id) const;

  private:
    std::uint32_t workers_ = 1;
    std::uint64_t channels_ = 0;
};

/**
 * Per-worker checkpoint naming convention: `base` + ".w<id>".  Shared
 * by the CLI's worker and merge modes, the CI smoke, and the tests so
 * a fleet of logs is always discoverable from one base path.
 */
std::string workerCheckpointPath(const std::string &base,
                                 std::uint32_t workerId);

/** Outcome of CampaignDriver::run. */
struct CampaignRunResult
{
    CampaignAggregate aggregate;
    /** Epochs executed by *this* run (not counting resumed ones). */
    std::uint64_t epochsRun = 0;
    /** Trial cursor the run started from (> 0 = resumed). */
    std::uint64_t resumedFromTrial = 0;
    /** True when stopRequested ended the run before the last epoch. */
    bool interrupted = false;

    /** The campaign digest: config hash x seed x aggregate state.
     *  Bit-identical across thread counts and kill/resume splits. */
    std::uint64_t digest(const CampaignSpec &spec) const;
};

/** Knobs for one run() invocation (not part of the config hash). */
struct CampaignRunOptions
{
    /** Checkpoint log path; empty runs without checkpointing. */
    std::string checkpointPath;
    /** Polled between epochs; true => seal the current state and
     *  return with interrupted = true (the SIGTERM path). */
    std::function<bool()> stopRequested;
    /** Stop after this many epochs (0 = no limit); used by tests to
     *  fabricate interrupted runs deterministically. */
    std::uint64_t maxEpochs = 0;
};

/**
 * Executes a CampaignSpec through a SimEngine, epoch by epoch, with
 * optional checkpoint/resume.  See the file comment for the
 * determinism and crash-safety contract; tests/test_campaign.cc and
 * tests/test_determinism.cc enforce it.
 */
class CampaignDriver
{
  public:
    /** nullptr engine = SimEngine::global().  fatal() on a spec it
     *  cannot run: no channels, epochs or shards, a non-positive
     *  horizon or scrub period, a grouping that does not divide the
     *  devices, or more than kMaxExpectedFaultsPerTrial expected
     *  faults per trial. */
    explicit CampaignDriver(const CampaignSpec &spec,
                            SimEngine *engine = nullptr);

    /**
     * Run (or resume) the campaign.  If options.checkpointPath names
     * an existing log, it is recovered first: a torn tail is
     * truncated, a sealed prefix resumes from its last epoch, and a
     * corrupt or foreign file is fatal (never overwritten).
     */
    CampaignRunResult run(const CampaignRunOptions &options = {}) const;

    /**
     * Run (or resume) one worker's slice of the campaign: trials
     * [plan.range(workerId).begin, .end) in worker-local epochs of
     * spec.epochTrials.  The checkpoint log (if any) is stamped with
     * the worker id and range, so swapped or foreign logs are fatal
     * on recovery.  run() is exactly runWorker over the 1-worker
     * plan.
     */
    CampaignRunResult runWorker(const WorkerPlan &plan,
                                std::uint32_t workerId,
                                const CampaignRunOptions &options =
                                    {}) const;

    /**
     * Aggregate trials [begin, end), each drawn and observed by the
     * TrialKernel (faults/trial_kernel.hh), serially on the calling
     * thread.  Exposed so tests can compare any sharded/resumed
     * decomposition against one serial pass.
     */
    CampaignAggregate runTrials(std::uint64_t begin,
                                std::uint64_t end) const;

    const CampaignSpec &spec() const { return spec_; }

  private:
    /** One epoch [begin, end) through the engine's shard-reduce. */
    CampaignAggregate runEpoch(std::uint64_t begin,
                               std::uint64_t end) const;

    /** The shared run/runWorker core over one stamped range. */
    CampaignRunResult runRange(const WorkerRange &range,
                               std::uint32_t workerId,
                               std::uint32_t workerCount,
                               const CampaignRunOptions &options) const;

    CampaignSpec spec_;
    SimEngine *engine_;
};

/**
 * One worker's completed contribution to a campaign: its stamp, the
 * identity of the experiment that produced it, and the aggregate over
 * its trial range.  Produced in-process by a runWorker result or
 * loaded from a finished worker's checkpoint log.
 */
struct CampaignWorkerSlice
{
    std::uint32_t workerId = 0;
    std::uint32_t workerCount = 1;
    std::uint64_t beginTrial = 0;
    std::uint64_t endTrial = 0;
    std::uint64_t configHash = 0;
    std::uint64_t seed = 0;
    CampaignAggregate aggregate;
    /** Where the slice came from, for merge diagnostics: the log
     *  path, or "<memory>" for in-process slices. */
    std::string source = "<memory>";
};

/** Worker `workerId`'s result as a merge-ready slice. */
CampaignWorkerSlice
workerSlice(const CampaignSpec &spec, const WorkerPlan &plan,
            std::uint32_t workerId, const CampaignRunResult &result);

/**
 * Load worker `workerId`'s *finished* slice from its checkpoint log.
 * fatal() (naming the file) when the log belongs to another campaign
 * or worker, is corrupt, or stopped short of the worker's range end
 * -- an unfinished worker must be resumed, never merged.
 */
CampaignWorkerSlice
loadWorkerSlice(const std::string &path, const CampaignSpec &spec,
                const WorkerPlan &plan, std::uint32_t workerId);

/**
 * The exact cross-worker reduction: fold the slices' aggregates in
 * worker order into one campaign result whose digest is bit-identical
 * to a single-process run of the same spec.
 *
 * Exactness is by construction, not by tolerance.  All counters and
 * histogram bins are 64-bit integers, and min/max fold exactly, so
 * they merge exactly in any grouping.  The double-valued sums
 * (affectedSum and the sketches' sums) are sums of per-trial metrics
 * that are dyadic rationals on one fixed power-of-two denominator --
 * the affected fraction (addAffectedFractions in
 * faults/trial_kernel.hh) is (cells marked) / (2^k cells) +
 * (pages) / (2^20 pages), and the fault-count metric is a small
 * integer -- so every partial sum is exactly representable and IEEE
 * addition over them is associative: any contiguous split of the
 * trial space folds to the same bits.  The multiproc fuzz suite
 * (tests/test_campaign_multiproc.cc) pins this down to the byte.
 *
 * fatal() on an empty slice list, duplicate or out-of-range worker
 * ids, inconsistent worker counts, overlapping ranges or coverage
 * gaps, an aggregate that does not cover its range, or a slice from
 * a different experiment (configHash/seed mismatch) -- each
 * diagnostic names the offending slice's source.
 */
CampaignRunResult
mergeCampaigns(const CampaignSpec &spec,
               std::vector<CampaignWorkerSlice> slices);

} // namespace arcc

#endif // ARCC_CAMPAIGN_CAMPAIGN_HH
