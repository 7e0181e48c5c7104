/**
 * @file
 * Multi-core trace-driven system simulator (the M5 substitute).
 *
 * N cores (4 by default, SystemConfig::cores), a shared LLC (either
 * ARCC design), and the DDR2 memory system are co-simulated in
 * nanoseconds.  The processor model follows Table 7.2 in spirit: a
 * modest 2-wide core whose compute throughput between LLC accesses is
 * the benchmark's base IPC, with a configurable fraction of each
 * memory stall hidden by the out-of-order window.  Performance of a
 * mix is reported as the sum of the per-core IPCs, exactly as the
 * paper reports it.
 *
 * ## The co-simulation loop
 *
 * One event loop advances every core in global time order, as the
 * paper's M5 + DRAM model does:
 *
 *  1. the core whose pending access is earliest goes next (ties go to
 *     the lowest core index), and draws its following access from its
 *     StreamSpec generator only when it gets there -- nothing is
 *     recorded, so memory use does not grow with the budget;
 *  2. the access runs through the shared LLC; a miss first issues
 *     every background-scrub access due by now, then the dirty
 *     writebacks, then the demand fetch, all to one ChannelSet over
 *     every channel;
 *  3. the core stalls for (completion - now) x (1 - stallOverlap) on
 *     the completion that ChannelSet returned for its own fetch.
 *
 * ChannelSet is reservation-based (dram/mem_controller.hh): it
 * returns a request's completion the moment the request is issued,
 * provided each channel sees its arrivals in non-decreasing order --
 * which the time-ordered loop guarantees and ChannelSet asserts.  The
 * reported timeline is therefore exact for the model: no estimate,
 * no feedback passes.  The run ends when the last core retires its
 * budget, and background scrubbing runs up to that point.
 *
 * The loop is serial and deterministic; the parallelism lives one
 * level up, in simulateMixBatch, which fans whole jobs out across
 * the SimEngine's workers.
 */

#ifndef ARCC_CPU_SYSTEM_SIM_HH
#define ARCC_CPU_SYSTEM_SIM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/llc.hh"
#include "cpu/workloads.hh"
#include "dram/mem_controller.hh"

namespace arcc
{

class SimEngine;

/**
 * Decides which pages run in the upgraded chipkill mode.  The decision
 * is page-granular and derived either from a structured device-level
 * fault (Table 7.4 geometry) or from a target upgraded fraction.
 */
class PageUpgradeOracle
{
  public:
    /** Fault scenarios of Table 7.4. */
    enum class Scenario
    {
        None,
        Lane,    ///< both ranks upgraded: 100% of pages.
        Device,  ///< one of the ranks: 1/2.
        Bank,    ///< one bank of one rank: 1/16.
        Column,  ///< half the pages of one bank: 1/32.
        Fraction ///< pseudo-random pages at a given fraction.
    };

    /** No pages upgraded. */
    PageUpgradeOracle() = default;

    /**
     * Structured scenario evaluated against the given address map.
     * @param s      scenario; Fraction must use forFraction instead.
     * @param config memory geometry the fault is embedded in.
     */
    static PageUpgradeOracle forScenario(Scenario s,
                                         const MemoryConfig &config);

    /**
     * Pseudo-random pages upgraded at the given fraction: pages are
     * hashed by address, so no memory geometry is involved.
     * @param fraction expected fraction of pages upgraded, in [0, 1].
     */
    static PageUpgradeOracle forFraction(double fraction);

    /** @return true when addr's page operates in upgraded mode. */
    bool upgraded(std::uint64_t addr) const;

    /** @return expected fraction of pages upgraded. */
    double expectedFraction() const { return expected_; }

    /**
     * @return true when *any* page can be upgraded, i.e. paired 128B
     * traffic can occur.  ChannelShardPlan keys off this: with no
     * paired traffic every channel is its own group; with paired
     * traffic the channels a pair spans must share a group.
     */
    bool mayUpgrade() const { return expected_ > 0.0; }

    Scenario scenario() const { return scenario_; }

    /** @return human-readable scenario name. */
    static const char *name(Scenario s);

    /**
     * The scenario a CLI flag or service request names: one of
     * kScenarioNames, where "none" is Scenario::None.  std::nullopt
     * for any other name (Fraction takes a value, not a name).
     */
    static std::optional<Scenario> scenarioByName(std::string_view name);

    /** The names scenarioByName accepts, for usage and errors. */
    static constexpr const char *kScenarioNames =
        "none|lane|device|bank|column";

  private:
    Scenario scenario_ = Scenario::None;
    double expected_ = 0.0;
    double fraction_ = 0.0;
    /** HiPerf map of the Device, Bank and Column scenarios; null for
     *  the others, whose upgraded() decodes no address. */
    std::shared_ptr<AddressMap> map_;
};

/**
 * Background scrubbing interleaved with traffic (Section 4.2.2).
 *
 * When enabled, every channel carries the paper's test-pattern scrub
 * sweep as real DRAM traffic, up to the end of the run: each 64B
 * line of the channel is visited once per `periodHours`, and a visit
 * issues `Scrubber::accessesPerLine(testPatterns)` alternating
 * read/write accesses, each self-paced on the previous one's
 * completion (the scrubber keeps at most one request outstanding, so
 * an unsustainably short period degrades to continuous scrubbing
 * rather than an unbounded backlog).  Scrub traffic competes for
 * banks and the data bus exactly like demand traffic, so the
 * reported IPC degradation is *measured* contention, complementing
 * the closed-form `Scrubber::bandwidthFraction` model (the
 * examples/background_scrub.cpp walkthrough compares the two).
 */
struct BackgroundScrubConfig
{
    bool enabled = false;
    /** One full sweep of every line per this many hours. */
    double periodHours = 24.0;
    /** Run the write-0 / write-1 test patterns (6 accesses per line
     *  instead of 2) -- the paper's scrubber does. */
    bool testPatterns = true;
};

/** Simulation knobs. */
struct SystemConfig
{
    MemoryConfig mem;
    CacheConfig llc;
    ControllerConfig ctrl;
    MapPolicy mapPolicy = MapPolicy::HiPerf;
    bool sectoredLlc = false;
    /**
     * Core count.  Historically the model hard-wired 4 cores (the
     * paper's quad-core machine, and simulateStreams fatally rejected
     * any other stream count); any count >= 1 now works, with 4 still
     * the default.  simulateMix requires the mix to supply exactly
     * this many benchmarks, simulateStreams this many streams.
     */
    int cores = 4;
    /** Instructions each core retires before the run ends. */
    std::uint64_t instrsPerCore = 2'000'000;
    double cpuGhz = 3.0;
    /** Fraction of each memory stall hidden by the OoO window. */
    double stallOverlap = 0.3;
    /**
     * Unread: the simulator makes one exact pass (see the file
     * comment), so every value gives the same result.  Kept so code
     * that sets it -- such as the benchmark's pass probe, which then
     * reads 1 -- still builds.
     */
    int latencyPasses = 6;
    /** Background scrubbing interleaved with the traffic. */
    BackgroundScrubConfig backgroundScrub;
    std::uint64_t seed = 42;
};

/** Per-core outcome. */
struct CoreResult
{
    std::string benchmark;
    std::uint64_t instrs = 0;
    double ipc = 0.0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcMisses = 0;
    /** Times the core's trace wrapped while covering the instruction
     *  budget (0 for synthetic streams and unwrapped traces).  A high
     *  lap count means the trace is short relative to the budget and
     *  the run is dominated by repetition. */
    std::uint64_t traceLaps = 0;
};

/** Whole-run outcome. */
struct SimResult
{
    std::vector<CoreResult> cores;
    /** Sum of per-core IPCs (the paper's performance metric). */
    double ipcSum = 0.0;
    double elapsedNs = 0.0;
    PowerBreakdown power;
    double avgPowerMw = 0.0;
    LlcStats llcStats;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    /** Background-scrub accesses the channels absorbed (0 when the
     *  BackgroundScrubConfig is disabled). */
    std::uint64_t scrubReads = 0;
    std::uint64_t scrubWrites = 0;
};

/**
 * Run one mix on one configuration.
 *
 * @param mix    exactly config.cores benchmarks.
 * @param config simulation knobs.
 * @param oracle page upgrade decisions.
 */
SimResult simulateMix(const WorkloadMix &mix, const SystemConfig &config,
                      const PageUpgradeOracle &oracle);

/** One self-contained simulation job for the batched entry point. */
struct MixJob
{
    WorkloadMix mix;
    SystemConfig config;
    PageUpgradeOracle oracle;
};

/**
 * Run a batch of independent mix simulations across the engine's
 * workers (one job per shard), returning results in job order.  Every
 * job is deterministic given its config, so the batch is bit-identical
 * to running simulateMix in a loop, at any thread count.
 *
 * This is the entry point the bench scenario sweeps use: a figure's
 * whole (mix x scenario) grid is submitted as one batch.
 *
 * @param engine  engine the jobs run on; nullptr uses the global one.
 */
std::vector<SimResult> simulateMixBatch(const std::vector<MixJob> &jobs,
                                        SimEngine *engine = nullptr);

/**
 * One core's access source for simulateStreams: a name (reporting), a
 * generator, and the core's compute throughput between accesses.
 * Captured trace files (cpu/trace.hh) plug in here just as well as the
 * synthetic generators.
 */
struct StreamSpec
{
    std::string name;
    std::function<CoreWorkload::Access()> next;
    double baseIpc = 1.0;
    /**
     * Optional lap counter of the underlying trace (TraceStream);
     * sampled once the stream has been drawn and surfaced as
     * CoreResult::traceLaps.  Leave empty for synthetic generators.
     */
    std::function<std::uint64_t()> laps;
};

/**
 * The per-core seed spreading simulateMix applies to its run seed.
 * Capture tools that want replay-closure with a live simulateMix run
 * (tests, examples/trace_sim.cpp) must derive their per-core
 * generator seeds the same way.
 */
inline std::uint64_t
mixCoreSeed(std::uint64_t seed, int coreId)
{
    return seed + 1000003ULL * static_cast<std::uint64_t>(coreId);
}

/**
 * Wrap one synthetic benchmark generator as a simulateStreams core --
 * the factory simulateMix uses, exposed so trace-driven and synthetic
 * cores can be mixed freely in one run.
 *
 * @param benchmark Table 7.3 profile name (fatal if unknown).
 * @param memBytes  memory capacity the footprint is placed in
 *                  (AddressMap::capacity() of the run's config).
 * @param coreId    places the core's footprint region.
 * @param seed      RNG seed of this core's stream.
 */
StreamSpec syntheticStreamSpec(const std::string &benchmark,
                               std::uint64_t memBytes, int coreId,
                               std::uint64_t seed);

/**
 * Run config.cores arbitrary access streams (synthetic, trace replay,
 * or a mixture) through the co-simulation loop described in the file
 * header, on the calling thread.  simulateMix is this plus the Table
 * 7.3 generators.
 *
 * @param streams exactly config.cores entries; each generator must
 *                keep producing accesses until its core retires
 *                config.instrsPerCore instructions.
 */
SimResult simulateStreams(std::vector<StreamSpec> streams,
                          const SystemConfig &config,
                          const PageUpgradeOracle &oracle);

} // namespace arcc

#endif // ARCC_CPU_SYSTEM_SIM_HH
