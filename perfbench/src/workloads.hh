/**
 * @file
 * The four benchmark workloads and their seeded input generators.
 *
 * Each workload drives the library from outside through a public
 * entry point, makes every input from the run seed, checks every
 * output, and returns end-to-end metrics (untraced) or per-layer
 * metrics (traced).  The generators are exposed so the tests can pin
 * that they are pure functions of the seed.
 *
 *   figsweep  simulateMix over the Figure 7.1-7.3 grid (cpu/cache/dram)
 *   scrub_rw  ArccMemory reads, writes and scrubs (ecc/arcc/engine)
 *   fleet     CampaignDriver::run with checkpoints (faults/campaign)
 *   arccd     the arccd daemon over its Unix socket (service)
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arcc/arcc_memory.hh"
#include "campaign/campaign.hh"
#include "common/rng.hh"
#include "cpu/system_sim.hh"
#include "harness.hh"

namespace perfbench
{

// ----- figsweep -----------------------------------------------------

/** The 72-job grid in canonical order: per Table 7.3 mix, baseline
 *  clean, ARCC clean, then ARCC under a lane / device / bank / column
 *  fault.  Seed and budget as the figure benches use them. */
std::vector<arcc::MixJob> figsweepGrid(std::uint64_t instrs = 1'000'000);

/** The seeded job order of one sweep: a permutation of [0, jobs). */
std::vector<std::size_t> figsweepOrder(std::uint64_t seed,
                                       std::uint64_t sweep,
                                       std::size_t jobs);

Outcome runFigsweep(const Options &options, SpanLog &spans);

// ----- scrub_rw -----------------------------------------------------

/** Memory size and scrub cadence of one scrub_rw instance. */
struct ScrubRwShape
{
    int banks;
    int rows;
    /** Read/write batches between two scrubParallel sweeps. */
    std::uint64_t scrubEvery;

    arcc::FunctionalConfig config() const;
};

/** The benchmark's memory: 16 MiB of data, twice the host L2. */
ScrubRwShape scrubRwShape();

/** A small instance for layer probes of the other workloads. */
ScrubRwShape scrubRwProbeShape();

/** Seeded faults: `boot` before the boot scrub (one whole device in
 *  one rank), `field` after it (bank, column and cell faults, all on
 *  one device of the other rank, so no codeword ever holds two bad
 *  symbols and every read stays correctable). */
struct ScrubRwFaults
{
    std::vector<arcc::FunctionalFault> boot;
    std::vector<arcc::FunctionalFault> field;
};

ScrubRwFaults scrubRwFaults(std::uint64_t seed,
                            const arcc::FunctionalConfig &config);

/** One page-sized operation. */
struct RwOp
{
    bool write = false;
    std::uint64_t page = 0;
    /** Seeds the 4 KiB written by a write batch. */
    std::uint64_t dataSeed = 0;

    bool operator==(const RwOp &) const = default;
};

/** The seeded op stream: about 2/3 batch reads, 1/3 page writes. */
class RwOpStream
{
  public:
    RwOpStream(std::uint64_t seed, std::uint64_t pages);
    RwOp next();

  private:
    arcc::Rng rng_;
    std::uint64_t pages_;
};

Outcome runScrubRw(const Options &options, SpanLog &spans);

// ----- fleet --------------------------------------------------------

/** Default geometry, 100x boost, 5 years, 18-device groups, epochs of
 *  kFleetEpochTrials. */
arcc::CampaignSpec fleetSpec(std::uint64_t seed, std::uint64_t channels);

/** Channel-lifetimes per fleet campaign. */
inline constexpr std::uint64_t kFleetChannels = 1ULL << 20;

/** Trials per checkpointed epoch (arcc_campaign --epoch-trials): 32
 *  epochs per campaign, each some 70 ms of compute at the fleet's
 *  engine width, so one fsync is a few percent of an epoch at most,
 *  not the half of it that a slow disk makes of the default 4096-trial
 *  epoch. */
inline constexpr std::uint64_t kFleetEpochTrials = 1ULL << 15;

Outcome runFleet(const Options &options, SpanLog &spans);

// ----- arccd --------------------------------------------------------

/** The warm request pool (canonical request lines), popular first. */
std::vector<std::string> arccdPool(std::uint64_t seed);

/**
 * One client's seeded request sequence: pool lines drawn with
 * Zipf-like popularity, except that every 20th request is a mix
 * request never issued before by anyone (a cache miss by design).
 */
class RequestStream
{
  public:
    static constexpr std::uint64_t kColdEvery = 20;

    RequestStream(std::uint64_t seed, std::uint64_t client,
                  const std::vector<std::string> &pool);

    std::string next();
    /** True when the last next() returned a never-seen request. */
    bool lastCold() const { return lastCold_; }

  private:
    arcc::Rng rng_;
    std::uint64_t seed_;
    std::uint64_t client_;
    std::uint64_t issued_ = 0;
    bool lastCold_ = false;
    const std::vector<std::string> &pool_;
    std::vector<double> cdf_;
};

/** A never-seen mix request for (seed, client, k). */
std::string coldRequest(std::uint64_t seed, std::uint64_t client,
                        std::uint64_t k);

Outcome runArccd(const Options &options, SpanLog &spans);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
