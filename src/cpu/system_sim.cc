/**
 * @file
 * System simulator implementation: the core + LLC + channel
 * co-simulation loop (see the header for the design).
 */

#include "cpu/system_sim.hh"

#include <algorithm>
#include <numeric>
#include <utility>

#include "arcc/scrubber.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "dram/channel_shard.hh"
#include "engine/sim_engine.hh"

namespace arcc
{

// ---------------------------------------------------------------------
// PageUpgradeOracle
// ---------------------------------------------------------------------

PageUpgradeOracle
PageUpgradeOracle::forScenario(Scenario s, const MemoryConfig &config)
{
    PageUpgradeOracle o;
    o.scenario_ = s;
    o.map_ = std::make_shared<AddressMap>(config, MapPolicy::HiPerf);
    int ranks = config.ranksPerChannel;
    int banks = config.device.banks;
    switch (s) {
      case Scenario::None:
        o.expected_ = 0.0;
        break;
      case Scenario::Lane:
        o.expected_ = 1.0;
        break;
      case Scenario::Device:
        o.expected_ = 1.0 / ranks;
        break;
      case Scenario::Bank:
        o.expected_ = 1.0 / (ranks * banks);
        break;
      case Scenario::Column:
        o.expected_ = 1.0 / (2.0 * ranks * banks);
        break;
      case Scenario::Fraction:
        fatal("use forFraction for the Fraction scenario");
    }
    return o;
}

PageUpgradeOracle
PageUpgradeOracle::forFraction(double fraction, const MemoryConfig &config)
{
    PageUpgradeOracle o;
    o.scenario_ = Scenario::Fraction;
    o.fraction_ = fraction;
    o.expected_ = fraction;
    o.map_ = std::make_shared<AddressMap>(config, MapPolicy::HiPerf);
    return o;
}

bool
PageUpgradeOracle::upgraded(std::uint64_t addr) const
{
    switch (scenario_) {
      case Scenario::None:
        return false;
      case Scenario::Lane:
        return true;
      case Scenario::Device: {
        DramCoord c = map_->decode(addr % map_->capacity());
        return c.rank == 0;
      }
      case Scenario::Bank: {
        DramCoord c = map_->decode(addr % map_->capacity());
        return c.rank == 0 && c.bank == 0;
      }
      case Scenario::Column: {
        // A column fault touches one column of one bank; under the
        // worst-case assumption every page whose half-row contains that
        // column is upgraded (half the pages of the bank, Table 7.4).
        DramCoord c = map_->decode(addr % map_->capacity());
        return c.rank == 0 && c.bank == 0 &&
               c.column < map_->linesPerRow() / 2;
      }
      case Scenario::Fraction: {
        // Deterministic per-page hash (splitmix64 finaliser).
        std::uint64_t page = addr / kPageBytes;
        std::uint64_t z =
            Rng::mix64(page + 0x9e3779b97f4a7c15ULL);
        return (z >> 11) * 0x1.0p-53 < fraction_;
      }
    }
    return false;
}

const char *
PageUpgradeOracle::name(Scenario s)
{
    switch (s) {
      case Scenario::None:     return "no fault";
      case Scenario::Lane:     return "1 lane fault";
      case Scenario::Device:   return "1 device fault";
      case Scenario::Bank:     return "1 subbank fault";
      case Scenario::Column:   return "1 column fault";
      case Scenario::Fraction: return "fraction";
    }
    return "?";
}

// ---------------------------------------------------------------------
// simulateStreams: the co-simulation loop
// ---------------------------------------------------------------------

namespace
{

/**
 * Per-channel background-scrub state: walks the channel's coordinate
 * space one line per visit, `period / linesPerChannel` apart, so the
 * whole channel is swept once per period.  A visit's accesses (the
 * test-pattern read/write passes of one line) are *self-paced*: each
 * issues only after the previous one's data is back, like the real
 * scrubber state machine.  Self-pacing bounds the scrubber to one
 * outstanding request, so an unsustainably short period degrades to
 * continuous scrubbing instead of an unbounded request backlog --
 * and per-channel arrival order stays non-decreasing, which the
 * channel model requires.  Pure function of the configuration.
 */
struct ScrubCursor
{
    /** Due time of the next scrub access (ns). */
    double nextAt = 0.0;
    /** Cadence slot of the current line visit (ns). */
    double visitAt = 0.0;
    double intervalNs = 0.0;
    /** Which of the visit's accessesPerLine accesses is next. */
    int subIdx = 0;
    DramCoord coord;
    int ranks = 1;
    int banks = 1;
    std::uint32_t rows = 1;
    std::uint32_t columns = 1;

    ScrubCursor(int channel, const SystemConfig &config,
                const AddressMap &map)
    {
        coord.channel = channel;
        ranks = config.mem.ranksPerChannel;
        banks = config.mem.device.banks;
        rows = map.rows();
        columns = map.linesPerRow();
        double period_ns =
            config.backgroundScrub.periodHours * 3600.0 * 1e9;
        intervalNs =
            period_ns / static_cast<double>(map.linesPerChannel());
    }

    /**
     * Account one issued access that completed at `completion`;
     * schedules the next pattern pass (after the data is back) or,
     * at the end of the visit, the next line's cadence slot.
     */
    void
    issued(double completion, int accesses_per_line)
    {
        if (++subIdx < accesses_per_line) {
            nextAt = completion;
            return;
        }
        subIdx = 0;
        advanceLine();
        visitAt += intervalNs;
        nextAt = std::max(visitAt, completion);
    }

    /** Advance to the next line: column fastest, then bank, rank, row
     *  (wrapping), i.e. maximal bank rotation between visits. */
    void
    advanceLine()
    {
        if (++coord.column < columns)
            return;
        coord.column = 0;
        if (++coord.bank < banks)
            return;
        coord.bank = 0;
        if (++coord.rank < ranks)
            return;
        coord.rank = 0;
        if (++coord.row >= rows)
            coord.row = 0;
    }
};

/** One core's position in its stream. */
struct CoreState
{
    /** Time the pending access reaches the LLC (ns). */
    double readyAt = 0.0;
    CoreWorkload::Access pending;
    std::uint64_t instrs = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcMisses = 0;
    bool done = false;
};

} // anonymous namespace

SimResult
simulateStreams(std::vector<StreamSpec> streams,
                const SystemConfig &config,
                const PageUpgradeOracle &oracle)
{
    if (config.cores < 1)
        fatal("simulateStreams: config.cores must be >= 1, got %d",
              config.cores);
    if (static_cast<int>(streams.size()) != config.cores)
        fatal("simulateStreams: config.cores is %d, got %zu streams",
              config.cores, streams.size());
    if (config.backgroundScrub.enabled &&
        config.backgroundScrub.periodHours <= 0.0)
        fatal("simulateStreams: backgroundScrub.periodHours must be "
              "> 0, got %g", config.backgroundScrub.periodHours);

    const double cycle_ns = 1.0 / config.cpuGhz;
    const int n = config.cores;
    const AddressMap map(config.mem, config.mapPolicy);
    const std::uint64_t capacity = map.capacity();

    std::vector<int> ids(config.mem.channels);
    std::iota(ids.begin(), ids.end(), 0);
    ChannelSet channels(config.mem, config.ctrl, std::move(ids));

    std::unique_ptr<BaseLlc> llc;
    if (config.sectoredLlc)
        llc = std::make_unique<SectoredLlc>(config.llc);
    else
        llc = std::make_unique<PairedTagLlc>(config.llc);

    SimResult res;
    // Issue one demand access at `now`; returns its data-ready time.
    auto issue = [&](double now, std::uint64_t addr, bool is_write,
                     bool paired) {
        if (!paired)
            return channels.access(now, map.decode(addr), is_write);
        std::uint64_t base = addr & ~(kUpgradedLineBytes - 1);
        return channels.accessPaired(now, map.decode(base),
                                     map.decode(base + kLineBytes),
                                     is_write);
    };

    const int accesses_per_line =
        Scrubber::accessesPerLine(config.backgroundScrub.testPatterns);
    std::vector<ScrubCursor> cursors;
    if (config.backgroundScrub.enabled)
        for (int c = 0; c < config.mem.channels; ++c)
            cursors.emplace_back(c, config, map);
    // Issue every scrub access due by `until`, earliest first (ties to
    // the lower channel).  The pattern passes of one line alternate
    // read/write and self-pace on their completions.
    auto scrubUntil = [&](double until) {
        for (;;) {
            ScrubCursor *due = nullptr;
            for (ScrubCursor &cur : cursors)
                if (cur.nextAt <= until &&
                    (!due || cur.nextAt < due->nextAt))
                    due = &cur;
            if (!due)
                return;
            bool is_write = (due->subIdx % 2) == 1;
            double completion =
                channels.access(due->nextAt, due->coord, is_write);
            ++(is_write ? res.scrubWrites : res.scrubReads);
            due->issued(completion, accesses_per_line);
        }
    };

    // Draw core i's next access; returns the compute time before it.
    std::vector<CoreState> cores(n);
    auto draw = [&](int i) {
        cores[i].pending = streams[i].next();
        return static_cast<double>(cores[i].pending.instrGap) /
               streams[i].baseIpc * cycle_ns;
    };
    for (int i = 0; i < n; ++i)
        cores[i].readyAt = draw(i);

    // One event loop in global time order: the earliest pending access
    // goes next (ties to the lower core), so every channel sees its
    // arrivals in non-decreasing order and each miss stalls its core on
    // the completion the channel model returned for it.  A finished
    // core's readyAt is its finish time.
    for (;;) {
        int ci = -1;
        for (int i = 0; i < n; ++i)
            if (!cores[i].done &&
                (ci < 0 || cores[i].readyAt < cores[ci].readyAt))
                ci = i;
        if (ci < 0)
            break;
        CoreState &core = cores[ci];
        const double now = core.readyAt;

        std::uint64_t addr = core.pending.addr % capacity;
        bool upgraded = oracle.upgraded(addr);
        LlcOutcome out =
            llc->access(addr, core.pending.isWrite, upgraded);

        ++core.llcAccesses;
        double done_at = now + config.llc.hitLatencyNs;
        if (!out.hit) {
            ++core.llcMisses;
            scrubUntil(now);
            // Dirty evictions go to memory without stalling the core.
            for (const Writeback &wb : out.writebacks) {
                issue(now, wb.addr % capacity, /*is_write=*/true,
                      wb.paired);
                res.memWrites += wb.paired ? 2 : 1;
            }
            double completion =
                issue(now, addr, /*is_write=*/false, upgraded);
            res.memReads += upgraded ? 2 : 1;
            done_at +=
                (completion - now) * (1.0 - config.stallOverlap);
        }
        if (out.replaced)
            done_at += config.llc.secondTagAccessNs;

        core.instrs += core.pending.instrGap;
        if (core.instrs >= config.instrsPerCore) {
            core.readyAt = done_at;
            core.done = true;
        } else {
            core.readyAt = done_at + draw(ci);
        }
    }

    // The run ends when the last core retires its budget.  Scrubbing
    // continues to that point: the traffic is gone but the power (and
    // the sweep cadence) is not.
    double end_ns = 0.0;
    res.cores.resize(n);
    for (int i = 0; i < n; ++i) {
        const CoreState &core = cores[i];
        CoreResult &result = res.cores[i];
        result.benchmark = streams[i].name;
        result.traceLaps = streams[i].laps ? streams[i].laps() : 0;
        result.instrs = core.instrs;
        result.ipc =
            static_cast<double>(core.instrs) / (core.readyAt / cycle_ns);
        result.llcAccesses = core.llcAccesses;
        result.llcMisses = core.llcMisses;
        res.ipcSum += result.ipc;
        end_ns = std::max(end_ns, core.readyAt);
    }
    scrubUntil(end_ns);
    channels.finalize(end_ns);
    res.power = channels.breakdown();
    res.elapsedNs = end_ns;
    res.avgPowerMw = res.power.avgPowerMw(end_ns);
    res.llcStats = llc->stats();
    return res;
}

std::vector<SimResult>
simulateMixBatch(const std::vector<MixJob> &jobs, SimEngine *engine)
{
    if (!engine)
        engine = &SimEngine::global();
    // Shard-reduce with one job per shard: the partials vector the
    // merge receives *is* the result list in job order.
    return engine->reduceShards(
        jobs.size(), 1,
        [&](const ShardRange &shard) {
            const MixJob &job = jobs[shard.begin];
            return simulateMix(job.mix, job.config, job.oracle);
        },
        [](std::vector<SimResult> &&results) {
            return std::move(results);
        });
}

StreamSpec
syntheticStreamSpec(const std::string &benchmark,
                    std::uint64_t memBytes, int coreId,
                    std::uint64_t seed)
{
    const BenchmarkProfile &prof = benchmarkProfile(benchmark);
    auto wl =
        std::make_shared<CoreWorkload>(prof, memBytes, coreId, seed);
    StreamSpec spec;
    spec.name = prof.name;
    spec.baseIpc = prof.baseIpc;
    spec.next = [wl]() { return wl->next(); };
    return spec;
}

SimResult
simulateMix(const WorkloadMix &mix, const SystemConfig &config,
            const PageUpgradeOracle &oracle)
{
    if (static_cast<int>(mix.benchmarks.size()) != config.cores)
        fatal("mix '%s' has %zu benchmarks but config.cores is %d",
              mix.name.c_str(), mix.benchmarks.size(), config.cores);

    // Capacity depends only on the memory config, not the controller.
    AddressMap map(config.mem, config.mapPolicy);
    std::vector<StreamSpec> streams;
    for (int i = 0; i < config.cores; ++i)
        streams.push_back(syntheticStreamSpec(
            mix.benchmarks[i], map.capacity(), i,
            mixCoreSeed(config.seed, i)));
    return simulateStreams(std::move(streams), config, oracle);
}

} // namespace arcc
