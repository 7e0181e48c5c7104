/**
 * @file
 * Campaign driver implementation.
 */

#include "campaign/campaign.hh"

#include <algorithm>
#include <bit>
#include <optional>

#include "campaign/checkpoint.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "engine/sim_engine.hh"
#include "faults/trial_kernel.hh"

namespace arcc
{

namespace
{

/** Sketch shapes are part of the campaign format: changing them
 *  changes every digest, so they are named constants, hashed into
 *  configHash(), and never run-time options. */
constexpr std::uint32_t kAffectedBins = 64;
constexpr std::uint32_t kFaultBins = 64;
constexpr double kFaultHistHi = 64.0;

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t
getU64(const std::uint8_t **cursor, const std::uint8_t *end)
{
    if (end - *cursor < 8)
        fatal("campaign: truncated checkpoint payload (wanted 8 "
              "bytes, have %td)", end - *cursor);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | (*cursor)[i];
    *cursor += 8;
    return v;
}

std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    return Rng::mix64(h ^ v);
}

std::uint64_t
foldDouble(std::uint64_t h, double v)
{
    return fold(h, std::bit_cast<std::uint64_t>(v));
}

} // anonymous namespace

std::uint64_t
CampaignSpec::configHash() const
{
    std::uint64_t h = 0x43414d5001ULL; // "CAMP" + format version 1.
    h = fold(h, static_cast<std::uint64_t>(geom.ranks));
    h = fold(h, static_cast<std::uint64_t>(geom.devicesPerRank));
    h = fold(h, static_cast<std::uint64_t>(geom.banksPerDevice));
    h = fold(h, static_cast<std::uint64_t>(geom.pagesPerRow));
    h = fold(h, geom.pages);
    for (double fit : rates.fit)
        h = foldDouble(h, fit);
    h = foldDouble(h, rateBoost);
    h = foldDouble(h, years);
    h = foldDouble(h, scrubHours);
    h = fold(h, static_cast<std::uint64_t>(devicesPerGroup));
    h = fold(h, static_cast<std::uint64_t>(rowsPerBank));
    h = fold(h, static_cast<std::uint64_t>(colsPerBank));
    h = fold(h, channels);
    h = fold(h, epochTrials);
    h = fold(h, shardTrials);
    h = fold(h, kAffectedBins);
    h = fold(h, kFaultBins);
    h = foldDouble(h, kFaultHistHi);
    return h;
}

double
CampaignSpec::expectedFaultsPerTrial() const
{
    return fitToPerHour(rates.totalFit() * rateBoost) *
           geom.totalDevices() * years * kHoursPerYear;
}

CampaignAggregate
CampaignAggregate::empty()
{
    CampaignAggregate agg;
    agg.affectedHist = StreamingHistogram(0.0, 1.0, kAffectedBins);
    agg.faultHist = StreamingHistogram(0.0, kFaultHistHi, kFaultBins);
    return agg;
}

void
CampaignAggregate::merge(const CampaignAggregate &other)
{
    trials += other.trials;
    faultsSampled += other.faultsSampled;
    trialsWithFault += other.trialsWithFault;
    sdcCandidates += other.sdcCandidates;
    dueCandidates += other.dueCandidates;
    affectedSum += other.affectedSum;
    affectedHist.merge(other.affectedHist);
    faultHist.merge(other.faultHist);
}

std::uint64_t
CampaignAggregate::hash() const
{
    std::uint64_t h = 0x41474752ULL; // "AGGR"
    h = fold(h, trials);
    h = fold(h, faultsSampled);
    h = fold(h, trialsWithFault);
    h = fold(h, sdcCandidates);
    h = fold(h, dueCandidates);
    h = foldDouble(h, affectedSum);
    h = fold(h, affectedHist.hash());
    h = fold(h, faultHist.hash());
    return h;
}

void
CampaignAggregate::serializeTo(std::vector<std::uint8_t> &out) const
{
    putU64(out, trials);
    putU64(out, faultsSampled);
    putU64(out, trialsWithFault);
    putU64(out, sdcCandidates);
    putU64(out, dueCandidates);
    putU64(out, std::bit_cast<std::uint64_t>(affectedSum));
    affectedHist.serializeTo(out);
    faultHist.serializeTo(out);
}

CampaignAggregate
CampaignAggregate::deserializeFrom(const std::uint8_t **cursor,
                                   const std::uint8_t *end)
{
    CampaignAggregate agg;
    agg.trials = getU64(cursor, end);
    agg.faultsSampled = getU64(cursor, end);
    agg.trialsWithFault = getU64(cursor, end);
    agg.sdcCandidates = getU64(cursor, end);
    agg.dueCandidates = getU64(cursor, end);
    agg.affectedSum = std::bit_cast<double>(getU64(cursor, end));
    agg.affectedHist = StreamingHistogram::deserializeFrom(cursor, end);
    agg.faultHist = StreamingHistogram::deserializeFrom(cursor, end);
    return agg;
}

std::uint64_t
CampaignRunResult::digest(const CampaignSpec &spec) const
{
    std::uint64_t h = 0x43414d50ULL; // "CAMP"
    h = fold(h, spec.configHash());
    h = fold(h, spec.seed);
    h = fold(h, aggregate.hash());
    return h;
}

WorkerPlan::WorkerPlan(const CampaignSpec &spec, std::uint32_t workers)
    : workers_(workers), channels_(spec.channels)
{
    if (workers == 0)
        fatal("WorkerPlan: zero workers");
}

WorkerRange
WorkerPlan::range(std::uint32_t id) const
{
    if (id >= workers_)
        fatal("WorkerPlan: worker id %u out of range (plan has %u "
              "workers)", id, workers_);
    // Balanced contiguous split: the first (channels % workers)
    // ranges are one trial longer.  Pure function of (channels,
    // workers), so every process derives identical ranges.
    const std::uint64_t base = channels_ / workers_;
    const std::uint64_t rem = channels_ % workers_;
    WorkerRange r;
    r.begin = static_cast<std::uint64_t>(id) * base +
              std::min<std::uint64_t>(id, rem);
    r.end = r.begin + base + (id < rem ? 1 : 0);
    return r;
}

std::string
workerCheckpointPath(const std::string &base, std::uint32_t workerId)
{
    return base + ".w" + std::to_string(workerId);
}

CampaignDriver::CampaignDriver(const CampaignSpec &spec,
                               SimEngine *engine)
    : spec_(spec), engine_(engine ? engine : &SimEngine::global())
{
    if (spec_.channels == 0)
        fatal("CampaignDriver: zero channels");
    if (spec_.epochTrials == 0)
        fatal("CampaignDriver: zero epochTrials");
    if (spec_.shardTrials == 0)
        fatal("CampaignDriver: zero shardTrials");
    if (spec_.years <= 0.0 || spec_.scrubHours <= 0.0)
        fatal("CampaignDriver: non-positive horizon or scrub period");
    if (spec_.devicesPerGroup <= 0 ||
        spec_.geom.totalDevices() % spec_.devicesPerGroup != 0)
        fatal("CampaignDriver: %d devices per group does not divide "
              "the channel's %d devices",
              spec_.devicesPerGroup, spec_.geom.totalDevices());
    const double faults = spec_.expectedFaultsPerTrial();
    if (!(faults <= CampaignSpec::kMaxExpectedFaultsPerTrial))
        fatal("CampaignDriver: a trial expects %g faults (boost %g over "
              "%g years); the limit is %g",
              faults, spec_.rateBoost, spec_.years,
              CampaignSpec::kMaxExpectedFaultsPerTrial);
}

CampaignAggregate
CampaignDriver::runTrials(std::uint64_t begin, std::uint64_t end) const
{
    CampaignAggregate agg = CampaignAggregate::empty();
    const TrialKernel kernel(
        spec_.geom, spec_.rates.scaled(spec_.rateBoost),
        spec_.years * kHoursPerYear, spec_.seed,
        {spec_.devicesPerGroup, spec_.rowsPerBank, spec_.colsPerBank});
    const double end_of_life[] = {spec_.years};

    Trial &trial = Trial::forThisThread();
    for (std::uint64_t t = begin; t < end; ++t) {
        kernel.draw(t, trial);
        double frac = 0.0;
        addAffectedFractions(spec_.geom, trial.events, end_of_life,
                             {&frac, 1});
        const OverlapPairs pairs =
            countOverlapPairs(trial, spec_.scrubHours);
        agg.sdcCandidates += pairs.sdc;
        agg.dueCandidates += pairs.due;
        ++agg.trials;
        agg.faultsSampled += trial.faults.size();
        if (!trial.faults.empty())
            ++agg.trialsWithFault;
        agg.affectedSum += frac;
        agg.affectedHist.add(frac);
        agg.faultHist.add(static_cast<double>(trial.faults.size()));
    }
    return agg;
}

CampaignAggregate
CampaignDriver::runEpoch(std::uint64_t begin, std::uint64_t end) const
{
    ARCC_ASSERT(begin < end);
    return engine_->reduceShards(
        end - begin, spec_.shardTrials,
        [&](const ShardRange &shard) {
            return runTrials(begin + shard.begin, begin + shard.end);
        },
        [](std::vector<CampaignAggregate> &&partials) {
            CampaignAggregate total = CampaignAggregate::empty();
            for (const CampaignAggregate &p : partials)
                total.merge(p);
            return total;
        });
}

CampaignRunResult
CampaignDriver::run(const CampaignRunOptions &options) const
{
    return runWorker(WorkerPlan(spec_, 1), 0, options);
}

CampaignRunResult
CampaignDriver::runWorker(const WorkerPlan &plan,
                          std::uint32_t workerId,
                          const CampaignRunOptions &options) const
{
    if (plan.channels() != spec_.channels)
        fatal("CampaignDriver: worker plan covers %llu channels but "
              "the spec names %llu",
              static_cast<unsigned long long>(plan.channels()),
              static_cast<unsigned long long>(spec_.channels));
    return runRange(plan.range(workerId), workerId, plan.workers(),
                    options);
}

CampaignRunResult
CampaignDriver::runRange(const WorkerRange &range,
                         std::uint32_t workerId,
                         std::uint32_t workerCount,
                         const CampaignRunOptions &options) const
{
    // The worker's epoch grid is local to its range: epoch e covers
    // [begin + e*epochTrials, ...), capped at the range end.  For the
    // whole-range single worker this is exactly the spec's global
    // grid, so pre-scale-out logs keep their meaning.
    const auto epoch_end = [&](std::uint64_t e) {
        const std::uint64_t end =
            range.begin + (e + 1) * spec_.epochTrials;
        return std::min(end, range.end);
    };

    CampaignRunResult result;
    result.aggregate = CampaignAggregate::empty();
    std::uint64_t cursor = range.begin;
    std::uint64_t next_epoch = 0;

    std::optional<CheckpointWriter> writer;
    if (!options.checkpointPath.empty()) {
        CheckpointIdentity identity;
        identity.configHash = spec_.configHash();
        identity.seed = spec_.seed;
        identity.workerId = workerId;
        identity.workerCount = workerCount;
        identity.beginTrial = range.begin;
        identity.endTrial = range.end;
        // The monotonicity check: sealed records must be exactly
        // epochs 0, 1, 2, ... with the cursor this worker's epoch
        // layout dictates.  A duplicated, reordered or re-laid-out
        // record means the log was not written by this campaign
        // resumed cleanly, and no state derived from it is safe.
        std::uint64_t expect_epoch = 0;
        const CheckpointRecovery recovery = recoverCheckpoint(
            options.checkpointPath, identity,
            [&](std::span<const std::uint8_t> payload) {
                const std::uint8_t *cur = payload.data();
                const std::uint8_t *end =
                    payload.data() + payload.size();
                const std::uint64_t epoch = getU64(&cur, end);
                const std::uint64_t next = getU64(&cur, end);
                if (epoch != expect_epoch)
                    fatal("campaign checkpoint '%s': record %llu "
                          "names epoch %llu (duplicated or reordered "
                          "records); refusing to resume",
                          options.checkpointPath.c_str(),
                          static_cast<unsigned long long>(
                              expect_epoch),
                          static_cast<unsigned long long>(epoch));
                if (next != epoch_end(epoch))
                    fatal("campaign checkpoint '%s': epoch %llu ends "
                          "at trial %llu but this spec's layout says "
                          "%llu (epochTrials changed?); refusing to "
                          "resume",
                          options.checkpointPath.c_str(),
                          static_cast<unsigned long long>(epoch),
                          static_cast<unsigned long long>(next),
                          static_cast<unsigned long long>(
                              epoch_end(epoch)));
                ++expect_epoch;
            });

        if (recovery.records > 0) {
            const std::uint8_t *cur = recovery.lastPayload.data();
            const std::uint8_t *end =
                cur + recovery.lastPayload.size();
            const std::uint64_t epoch = getU64(&cur, end);
            cursor = getU64(&cur, end);
            result.aggregate =
                CampaignAggregate::deserializeFrom(&cur, end);
            if (result.aggregate.trials != cursor - range.begin)
                fatal("campaign checkpoint '%s': aggregate covers "
                      "%llu trials but the cursor says %llu; "
                      "refusing to resume",
                      options.checkpointPath.c_str(),
                      static_cast<unsigned long long>(
                          result.aggregate.trials),
                      static_cast<unsigned long long>(
                          cursor - range.begin));
            next_epoch = epoch + 1;
            result.resumedFromTrial = cursor;
        }
        writer.emplace(
            CheckpointWriter::resume(options.checkpointPath,
                                     recovery));
    }

    while (cursor < range.end) {
        if (options.stopRequested && options.stopRequested()) {
            result.interrupted = true;
            break;
        }
        const std::uint64_t end = epoch_end(next_epoch);
        CampaignAggregate partial = runEpoch(cursor, end);
        result.aggregate.merge(partial);
        cursor = end;

        if (writer) {
            std::vector<std::uint8_t> payload;
            putU64(payload, next_epoch);
            putU64(payload, cursor);
            result.aggregate.serializeTo(payload);
            writer->append(payload);
        }
        ++next_epoch;
        ++result.epochsRun;
        if (options.maxEpochs != 0 &&
            result.epochsRun >= options.maxEpochs &&
            cursor < range.end) {
            result.interrupted = true;
            break;
        }
    }
    return result;
}

CampaignWorkerSlice
workerSlice(const CampaignSpec &spec, const WorkerPlan &plan,
            std::uint32_t workerId, const CampaignRunResult &result)
{
    const WorkerRange range = plan.range(workerId);
    CampaignWorkerSlice slice;
    slice.workerId = workerId;
    slice.workerCount = plan.workers();
    slice.beginTrial = range.begin;
    slice.endTrial = range.end;
    slice.configHash = spec.configHash();
    slice.seed = spec.seed;
    slice.aggregate = result.aggregate;
    return slice;
}

CampaignWorkerSlice
loadWorkerSlice(const std::string &path, const CampaignSpec &spec,
                const WorkerPlan &plan, std::uint32_t workerId)
{
    const WorkerRange range = plan.range(workerId);
    CheckpointIdentity expected;
    expected.configHash = spec.configHash();
    expected.seed = spec.seed;
    expected.workerId = workerId;
    expected.workerCount = plan.workers();
    expected.beginTrial = range.begin;
    expected.endTrial = range.end;

    // recoverCheckpoint fatals on corruption, foreign campaigns and
    // swapped worker logs -- all naming `path`.
    const CheckpointRecovery recovery =
        recoverCheckpoint(path, expected);
    if (recovery.fresh)
        fatal("campaign merge: worker %u's checkpoint '%s' does not "
              "exist (or is an unsealed stub); run the worker before "
              "merging", workerId, path.c_str());

    CampaignWorkerSlice slice;
    slice.workerId = workerId;
    slice.workerCount = plan.workers();
    slice.beginTrial = range.begin;
    slice.endTrial = range.end;
    slice.configHash = spec.configHash();
    slice.seed = spec.seed;
    slice.aggregate = CampaignAggregate::empty();
    slice.source = path;

    std::uint64_t cursor = range.begin;
    if (recovery.records > 0) {
        const std::uint8_t *cur = recovery.lastPayload.data();
        const std::uint8_t *end = cur + recovery.lastPayload.size();
        getU64(&cur, end); // epoch index
        cursor = getU64(&cur, end);
        slice.aggregate = CampaignAggregate::deserializeFrom(&cur, end);
    }
    if (cursor != range.end)
        fatal("campaign merge: worker %u's checkpoint '%s' stopped "
              "at trial %llu of [%llu, %llu); resume the worker to "
              "completion before merging", workerId, path.c_str(),
              static_cast<unsigned long long>(cursor),
              static_cast<unsigned long long>(range.begin),
              static_cast<unsigned long long>(range.end));
    if (slice.aggregate.trials != range.trials())
        fatal("campaign merge: worker %u's checkpoint '%s' aggregate "
              "covers %llu trials but the worker owns %llu; refusing "
              "to merge", workerId, path.c_str(),
              static_cast<unsigned long long>(slice.aggregate.trials),
              static_cast<unsigned long long>(range.trials()));
    return slice;
}

CampaignRunResult
mergeCampaigns(const CampaignSpec &spec,
               std::vector<CampaignWorkerSlice> slices)
{
    if (slices.empty())
        fatal("campaign merge: no worker slices to merge");

    std::sort(slices.begin(), slices.end(),
              [](const CampaignWorkerSlice &a,
                 const CampaignWorkerSlice &b) {
                  return a.workerId < b.workerId;
              });

    const auto count = static_cast<std::uint32_t>(slices.size());
    const std::uint64_t config_hash = spec.configHash();
    std::uint64_t cursor = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
        const CampaignWorkerSlice &s = slices[i];
        if (i > 0 && s.workerId == slices[i - 1].workerId)
            fatal("campaign merge: duplicate worker id %u (%s and "
                  "%s)", s.workerId, slices[i - 1].source.c_str(),
                  s.source.c_str());
        if (s.workerId != i)
            fatal("campaign merge: worker id %u missing (have %u "
                  "slices, ids must be 0..%u)", i, count, count - 1);
        if (s.workerCount != count)
            fatal("campaign merge: %s is stamped worker %u of %u but "
                  "%u slices were offered; refusing to merge a "
                  "partial or mixed fleet", s.source.c_str(),
                  s.workerId, s.workerCount, count);
        if (s.configHash != config_hash || s.seed != spec.seed)
            fatal("campaign merge: %s was produced by config "
                  "%016llx seed %llu, this campaign is %016llx seed "
                  "%llu (stale or mixed configHash); refusing to "
                  "merge", s.source.c_str(),
                  static_cast<unsigned long long>(s.configHash),
                  static_cast<unsigned long long>(s.seed),
                  static_cast<unsigned long long>(config_hash),
                  static_cast<unsigned long long>(spec.seed));
        if (s.beginTrial > cursor)
            fatal("campaign merge: gap in trial coverage [%llu, "
                  "%llu) before %s; refusing to merge an incomplete "
                  "fleet",
                  static_cast<unsigned long long>(cursor),
                  static_cast<unsigned long long>(s.beginTrial),
                  s.source.c_str());
        if (s.beginTrial < cursor)
            fatal("campaign merge: %s covers trials [%llu, %llu), "
                  "overlapping the %llu trials already folded; "
                  "refusing to double-count", s.source.c_str(),
                  static_cast<unsigned long long>(s.beginTrial),
                  static_cast<unsigned long long>(s.endTrial),
                  static_cast<unsigned long long>(cursor));
        if (s.endTrial < s.beginTrial)
            fatal("campaign merge: %s covers an inverted range "
                  "[%llu, %llu)", s.source.c_str(),
                  static_cast<unsigned long long>(s.beginTrial),
                  static_cast<unsigned long long>(s.endTrial));
        if (s.aggregate.trials != s.endTrial - s.beginTrial)
            fatal("campaign merge: %s owns %llu trials but its "
                  "aggregate covers %llu (incomplete worker?); "
                  "refusing to merge", s.source.c_str(),
                  static_cast<unsigned long long>(s.endTrial -
                                                  s.beginTrial),
                  static_cast<unsigned long long>(s.aggregate.trials));
        cursor = s.endTrial;
    }
    if (cursor != spec.channels)
        fatal("campaign merge: slices cover trials [0, %llu) but the "
              "campaign has %llu; refusing to merge an incomplete "
              "fleet", static_cast<unsigned long long>(cursor),
              static_cast<unsigned long long>(spec.channels));

    CampaignRunResult result;
    result.aggregate = CampaignAggregate::empty();
    for (const CampaignWorkerSlice &s : slices)
        result.aggregate.merge(s.aggregate);
    return result;
}

} // namespace arcc
