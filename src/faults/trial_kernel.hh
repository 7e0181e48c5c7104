/**
 * @file
 * The lifetime trial kernel behind every fault Monte Carlo: Poisson
 * arrivals per device fault mode, worst-case footprints, detection at
 * the end of the scrub period (Chapter 3, Section 6, Chapter 7).
 *
 * Trial t draws its history with FaultSampler::sampleLifetime on
 * Rng::stream(seed, t), then each event's codeword footprint from the
 * same stream (the bank comes from the event), then runs observers:
 * affected pages, the fused SDC/DUE overlap scan and the per-year
 * overhead integrator.  Footprints draw after the history, so a
 * histories-only caller sees the same events.  A Trial owns every
 * buffer the draw and the scan use, so a caller that reuses one Trial
 * allocates nothing per trial once the buffers have grown.  Callers:
 * LifetimeMc (histories), SdcModel::mcArccSdcEventsDetailed (the SDC
 * count) and CampaignDriver::runTrials (both counts and affected
 * pages).
 */

#ifndef ARCC_FAULTS_TRIAL_KERNEL_HH
#define ARCC_FAULTS_TRIAL_KERNEL_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "faults/fault_model.hh"

namespace arcc
{

/** The device dimensions a fault type is confined to: the table
 *  faultsOverlap and SdcModel::pairOverlap share. */
struct FootprintScope
{
    bool oneBank, oneRow, oneCol;
};
FootprintScope footprintScope(FaultType t);

/** A fault with a fully sampled codeword-group footprint. */
struct ConcreteFault
{
    double timeHours = 0.0;
    FaultType type = FaultType::Bit;
    int group = 0;   ///< Codeword group (lockstep or relaxed rank).
    int device = 0;  ///< Device within the group.
    int bank = 0;
    int row = 0;
    int col = 0;
};

/**
 * Worst-case footprint intersection (Chapter 3): do two faults
 * produce two bad symbols in a common codeword?  A lane fault
 * blankets everything; any other pair must hit the same group from
 * *different* devices, with matching bank / row / column wherever
 * both footprints are confined to one.
 */
bool faultsOverlap(const ConcreteFault &a, const ConcreteFault &b);

/** The codeword grouping footprints are concretised onto. */
struct CodewordLayout
{
    /** Devices per codeword group (18 = ARCC relaxed, 36 = lockstep);
     *  must divide the domain's devices.  0 draws histories only. */
    int devicesPerGroup = 0;
    int rowsPerBank = 0;
    int colsPerBank = 0;
};

/** countOverlapPairs' scratch: a trial's non-lane faults grouped by
 *  codeword group in arrival order, one column per field so that the
 *  pair loop vectorises.  Group g's faults are rows
 *  [starts[g], starts[g + 1]) (the last group ends at the row count). */
struct GroupedFaults
{
    std::vector<std::uint32_t> starts;
    std::vector<double> timeHours;
    std::vector<int> device;
    std::vector<int> bank;
    std::vector<int> row;
    std::vector<int> col;
    /** footprintScope as bank (1) / row (2) / column (4) bits. */
    std::vector<unsigned> scope;
};

/** One drawn trial in arrival order; faults[i] is events[i]'s
 *  footprint (no faults for a histories-only kernel).  The rest is
 *  scratch that draw and countOverlapPairs reuse from trial to trial. */
struct Trial
{
    std::vector<FaultEvent> events;
    std::vector<ConcreteFault> faults;
    EventSortScratch sort;
    GroupedFaults grouped;

    /**
     * The calling thread's Trial, which the engine-sharded trial loops
     * (LifetimeMc, SdcModel::mcArccSdcEventsDetailed,
     * CampaignDriver::runTrials) draw into, so its buffers grow once
     * per thread rather than once per shard.  Not re-entrant: a loop
     * holding it must not run another loop that draws into it on the
     * same thread.
     */
    static Trial &forThisThread();
};

/** Draws the trials of one experiment; trial t is a pure function of
 *  (seed, t), so trials run in any order on any shard.  fatal() when
 *  layout.devicesPerGroup does not divide the domain's devices. */
class TrialKernel
{
  public:
    TrialKernel(const DomainGeometry &geom, const FaultRates &rates,
                double hours, std::uint64_t seed,
                const CodewordLayout &layout = {});

    /** Draw trial t into `out`, reusing its buffers. */
    void draw(std::uint64_t trial, Trial &out) const;

  private:
    FaultSampler sampler_;
    double hours_;
    std::uint64_t seed_;
    CodewordLayout layout_;
    int groups_ = 0;
};

/** Overlapping fault pairs (faultsOverlap) of one trial. */
struct OverlapPairs
{
    /** SDC candidates (ARCC DED's only new SDC path): pairs whose
     *  later fault j arrives before the end of the earlier fault i's
     *  scrub period, when the scrub finds i:
     *  t_j < (floor(t_i / scrubHours) + 1) * scrubHours. */
    std::uint64_t sdc = 0;
    /** DUE candidates: overlapping pairs at any separation. */
    std::uint64_t due = 0;
};

/**
 * The overlap scan over trial.faults, which must be in arrival order.
 * L lane faults among n overlap everything: they add
 * L * (n - L) + L * (L - 1) / 2 DUE pairs, and walking each lane
 * fault's scrub window (and the windows it lands in) gives their SDC
 * pairs.  Any other pair can overlap only within one codeword group,
 * so the rest are compared group by group, in arrival order, through
 * trial's scratch buffers.
 */
OverlapPairs countOverlapPairs(Trial &trial, double scrubHours);

/**
 * Affected-page observer: adds to acc[p] the fraction of the domain's
 * pages the arrival-ordered events have tainted by year gridYears[p].
 * Bank, column, device and lane faults taint exact unions of
 * (rank, bank, half-row) cells, each 1 / (ranks * banks * 2) of the
 * pages; row, word and bit faults add their few pages (overlap
 * ignored); the total caps at 1.
 */
void addAffectedFractions(const DomainGeometry &geom,
                          std::span<const FaultEvent> events,
                          std::span<const double> gridYears,
                          std::span<double> acc);

/** Per-fault-type overhead for the cumulative-overhead curves. */
using PerTypeOverhead = std::array<double, kNumFaultTypes>;

/**
 * Overhead integrator: each event adds overhead[type] from its
 * arrival onward, saturating at `cap`; adds the time-average overhead
 * over years [0, y] to acc[y - 1] for y = 1 .. acc.size().
 */
void addCumulativeOverhead(std::span<const FaultEvent> events,
                           const PerTypeOverhead &overhead, double cap,
                           std::span<double> acc);

} // namespace arcc

#endif // ARCC_FAULTS_TRIAL_KERNEL_HH
