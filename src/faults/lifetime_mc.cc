/**
 * @file
 * Fleet Monte Carlo implementation.
 */

#include "faults/lifetime_mc.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/units.hh"
#include "engine/sim_engine.hh"

namespace arcc
{

namespace
{

/** The channel fold both curves share: channel c is trial c of a
 *  histories-only kernel on `seed`, observe() adds it to its shard's
 *  partial, and the engine sums partials in shard order. */
template <class Observe>
std::vector<double>
fleetAverage(const LifetimeMcConfig &config, SimEngine &engine,
             std::uint64_t seed, std::size_t points, Observe observe)
{
    const TrialKernel kernel(config.geom, config.rates,
                             config.years * kHoursPerYear, seed);
    std::vector<double> avg = engine.mapReduce(
        static_cast<std::uint64_t>(config.channels),
        SimEngine::kDefaultShard, std::vector<double>(points, 0.0),
        [&](const ShardRange &shard) {
            std::vector<double> partial(points, 0.0);
            Trial &trial = Trial::forThisThread();
            for (std::uint64_t c = shard.begin; c < shard.end; ++c) {
                kernel.draw(c, trial);
                observe(trial.events, partial);
            }
            return partial;
        },
        [](std::vector<double> &acc, std::vector<double> &&partial) {
            for (std::size_t i = 0; i < acc.size(); ++i)
                acc[i] += partial[i];
        });
    for (double &v : avg)
        v /= config.channels;
    return avg;
}

} // anonymous namespace

LifetimeMc::LifetimeMc(const LifetimeMcConfig &config, SimEngine *engine)
    : config_(config),
      engine_(engine ? engine : &SimEngine::global())
{
    if (config_.channels <= 0)
        fatal("LifetimeMc: need at least one channel");
    if (config_.gridPerYear < 1)
        fatal("LifetimeMc: gridPerYear must be at least 1, got %d",
              config_.gridPerYear);
    if (!(config_.years * config_.gridPerYear >= 1.0))
        fatal("LifetimeMc: years * gridPerYear must be at least 1 "
              "(one grid point), got %g years * %d",
              config_.years, config_.gridPerYear);
}

AffectedCurve
LifetimeMc::affectedFraction() const
{
    const int points =
        static_cast<int>(config_.years * config_.gridPerYear);
    AffectedCurve curve;
    curve.timeYears.resize(points);
    for (int p = 0; p < points; ++p)
        curve.timeYears[p] =
            (p + 1) / static_cast<double>(config_.gridPerYear);
    curve.avgFraction = fleetAverage(
        config_, *engine_, config_.seed, points,
        [&](const std::vector<FaultEvent> &events,
            std::vector<double> &partial) {
            addAffectedFractions(config_.geom, events, curve.timeYears,
                                 partial);
        });
    return curve;
}

std::vector<double>
LifetimeMc::cumulativeOverheadByYear(const PerTypeOverhead &overhead,
                                     double cap) const
{
    // seed + 1 keeps this experiment's streams disjoint from
    // affectedFraction's.
    return fleetAverage(
        config_, *engine_, config_.seed + 1,
        static_cast<std::size_t>(config_.years),
        [&](const std::vector<FaultEvent> &events,
            std::vector<double> &partial) {
            addCumulativeOverhead(events, overhead, cap, partial);
        });
}

double
LifetimeMc::analyticAffectedFraction(double years) const
{
    // Independence approximation: each fault mode affects its page
    // fraction with Poisson-arrival probability 1 - exp(-rate * t).
    const double hours = years * kHoursPerYear;
    const double devices = config_.geom.totalDevices();
    double unaffected = 1.0;
    for (FaultType t : allFaultTypes()) {
        double rate = fitToPerHour(config_.rates[t]) * devices;
        double p_any = 1.0 - std::exp(-rate * hours);
        unaffected *= 1.0 - p_any * config_.geom.pageFraction(t);
    }
    return 1.0 - unaffected;
}

} // namespace arcc
