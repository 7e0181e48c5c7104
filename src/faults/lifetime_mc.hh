/**
 * @file
 * Monte Carlo fleet-lifetime engine (Chapter 7 methodology, steps 2-4).
 *
 * Simulates fault arrivals in a fleet of memory channels over a
 * multi-year lifespan and derives:
 *
 *  - the average fraction of 4KB pages affected by faults over time
 *    (Figure 3.1), using the worst-case corruption assumption; and
 *  - the fleet-average *cumulative-mean* overhead over time, given a
 *    per-fault-type overhead (Figures 7.4, 7.5 and 7.6): each fault
 *    adds its overhead to its channel from its arrival onward, and the
 *    value reported for year X averages each channel's overhead from
 *    the beginning of year 1 through the end of year X, exactly as the
 *    paper's methodology describes.
 */

#ifndef ARCC_FAULTS_LIFETIME_MC_HH
#define ARCC_FAULTS_LIFETIME_MC_HH

#include <cstdint>
#include <vector>

#include "faults/trial_kernel.hh"

namespace arcc
{

class SimEngine;

/** Fleet Monte Carlo parameters. */
struct LifetimeMcConfig
{
    DomainGeometry geom;
    FaultRates rates = FaultRates::fieldStudy();
    /** Fleet size (the paper simulates 10000 channels). */
    int channels = 10000;
    double years = 7.0;
    /** Time-grid points per year for the affected-fraction curve. */
    int gridPerYear = 12;
    std::uint64_t seed = 2013;
};

/** Affected-fraction curve (Figure 3.1). */
struct AffectedCurve
{
    std::vector<double> timeYears;
    std::vector<double> avgFraction;
};

/**
 * The fleet Monte Carlo engine.  Deterministic for a given seed:
 * channel c's fault history is trial c of a TrialKernel, and the
 * fleet reduction folds per-shard partials in shard order, so the
 * curves are bit-identical whether the SimEngine runs 1 thread or 64.
 */
class LifetimeMc
{
  public:
    /**
     * @param engine  engine the channel shards run on; nullptr uses
     *                SimEngine::global().
     *
     * fatal() when the time grid is empty: gridPerYear < 1 or
     * years * gridPerYear < 1.
     */
    explicit LifetimeMc(const LifetimeMcConfig &config,
                        SimEngine *engine = nullptr);

    /**
     * Figure 3.1: fleet-average fraction of pages affected by at least
     * one fault, on the configured time grid.
     */
    AffectedCurve affectedFraction() const;

    /**
     * Figures 7.4 / 7.5 / 7.6: for each year X in [1, years], the
     * fleet- and time-average overhead from time 0 through year X.
     *
     * @param overhead  additive overhead contributed by each fault
     *                  type from its arrival onward.
     * @param cap       saturation value (a fully upgraded channel
     *                  cannot exceed the lane-fault overhead).
     */
    std::vector<double>
    cumulativeOverheadByYear(const PerTypeOverhead &overhead,
                             double cap) const;

    /**
     * Expected (analytic) affected fraction at time t, ignoring
     * overlaps between faults -- a cross-check for the Monte Carlo.
     */
    double analyticAffectedFraction(double years) const;

  private:
    LifetimeMcConfig config_;
    SimEngine *engine_;
};

} // namespace arcc

#endif // ARCC_FAULTS_LIFETIME_MC_HH
