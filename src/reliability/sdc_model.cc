/**
 * @file
 * SDC / DUE model implementation.
 */

#include "reliability/sdc_model.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"
#include "ecc/reed_solomon.hh"
#include "engine/sim_engine.hh"

namespace arcc
{

SdcModelConfig
SdcModelConfig::sccdcdMachine()
{
    SdcModelConfig c;
    c.devices = 72;
    c.groups = 2;          // two 36-device lockstep ranks.
    c.devicesPerGroup = 36;
    return c;
}

SdcModelConfig
SdcModelConfig::arccMachine()
{
    SdcModelConfig c;
    c.devices = 72;
    c.groups = 4;          // 2 channels x 2 ranks of 18 devices.
    c.devicesPerGroup = 18;
    return c;
}

SdcModel::SdcModel(const SdcModelConfig &config) : config_(config)
{
    if (config_.groups * config_.devicesPerGroup != config_.devices)
        fatal("SdcModel: %d groups x %d devices != %d total",
              config_.groups, config_.devicesPerGroup, config_.devices);
}

double
SdcModel::machineRate(FaultType t) const
{
    return fitToPerHour(config_.rates[t]) * config_.devices;
}

double
SdcModel::pairOverlap(FaultType a, FaultType b) const
{
    // A lane fault blankets every group, bank, row and column: it
    // intersects anything (worst-case corruption assumption).
    if (a == FaultType::Lane || b == FaultType::Lane)
        return 1.0;

    FootprintScope sa = footprintScope(a);
    FootprintScope sb = footprintScope(b);
    double p = 1.0 / config_.groups;             // same codeword group.
    p *= 1.0 - 1.0 / config_.devicesPerGroup;    // distinct devices.
    if (sa.oneBank && sb.oneBank)
        p /= config_.banks;
    if (sa.oneRow && sb.oneRow)
        p /= config_.rowsPerBank;
    if (sa.oneCol && sb.oneCol)
        p /= config_.colsPerBank;
    return p;
}

double
SdcModel::tripleOverlap(FaultType a, FaultType b, FaultType c) const
{
    std::vector<FootprintScope> scopes;
    for (FaultType t : {a, b, c}) {
        if (t != FaultType::Lane)
            scopes.push_back(footprintScope(t));
    }
    if (scopes.size() <= 1)
        return 1.0;

    double p = std::pow(1.0 / config_.groups,
                        static_cast<double>(scopes.size()) - 1.0);
    // All three faults must sit in distinct devices of the group.
    p *= (1.0 - 1.0 / config_.devicesPerGroup) *
         (1.0 - 2.0 / config_.devicesPerGroup);

    auto dim = [&](auto member, double size) {
        int k = 0;
        for (const FootprintScope &s : scopes)
            if (s.*member)
                ++k;
        if (k >= 2)
            p *= std::pow(1.0 / size, k - 1);
    };
    dim(&FootprintScope::oneBank, config_.banks);
    dim(&FootprintScope::oneRow, config_.rowsPerBank);
    dim(&FootprintScope::oneCol, config_.colsPerBank);
    return p;
}

double
SdcModel::arccSdcEvents(double years) const
{
    const double life_hours = years * kHoursPerYear;
    const double window = config_.scrubHours / 2.0;
    double events = 0.0;
    for (FaultType a : allFaultTypes()) {
        for (FaultType b : allFaultTypes()) {
            events += machineRate(a) * life_hours * machineRate(b) *
                      window * pairOverlap(a, b);
        }
    }
    return events * config_.aliasFactor;
}

double
SdcModel::sccdcdSdcEvents(double years) const
{
    const double life_hours = years * kHoursPerYear;
    const double window = config_.scrubHours / 2.0;
    double events = 0.0;
    for (FaultType a : allFaultTypes()) {
        for (FaultType b : allFaultTypes()) {
            for (FaultType c : allFaultTypes()) {
                // a persists (arrives any time before b: L^2/2 term);
                // c must land inside b's exposure window.
                events += machineRate(a) * machineRate(b) *
                          machineRate(c) * life_hours * life_hours /
                          2.0 * window * tripleOverlap(a, b, c);
            }
        }
    }
    return events * config_.aliasFactor;
}

double
SdcModel::arccSdcPer1000MachineYears(double years) const
{
    return arccSdcEvents(years) / years * 1000.0;
}

double
SdcModel::sccdcdSdcPer1000MachineYears(double years) const
{
    return sccdcdSdcEvents(years) / years * 1000.0;
}

double
SdcModel::dueEvents(double years) const
{
    const double life_hours = years * kHoursPerYear;
    double events = 0.0;
    for (FaultType a : allFaultTypes()) {
        for (FaultType b : allFaultTypes()) {
            events += machineRate(a) * machineRate(b) * life_hours *
                      life_hours / 2.0 * pairOverlap(a, b);
        }
    }
    return events;
}

McSdcResult
SdcModel::mcArccSdcEventsDetailed(double years, double boost,
                                  int trials, std::uint64_t seed,
                                  SimEngine *engine) const
{
    if (!engine)
        engine = &SimEngine::global();

    // The machine as one trial domain whose ranks are its codeword
    // groups.
    DomainGeometry geom;
    geom.ranks = config_.groups;
    geom.devicesPerRank = config_.devicesPerGroup;
    geom.banksPerDevice = config_.banks;
    const TrialKernel kernel(
        geom, config_.rates.scaled(boost), years * kHoursPerYear, seed,
        {config_.devicesPerGroup, config_.rowsPerBank,
         config_.colsPerBank});

    // Shard the trial range; each shard's partial is pure integer
    // counters, merged in shard order on the calling thread.
    return engine->mapReduce(
        static_cast<std::uint64_t>(trials), SimEngine::kDefaultShard,
        McSdcResult{},
        [&](const ShardRange &shard) {
            McSdcResult partial;
            Trial &trial = Trial::forThisThread();
            for (std::uint64_t t = shard.begin; t < shard.end; ++t) {
                kernel.draw(t, trial);
                const std::uint64_t events =
                    countOverlapPairs(trial, config_.scrubHours).sdc;
                ++partial.trials;
                partial.events += events;
                partial.faultsSampled += trial.faults.size();
                ++partial.eventHistogram[std::min<std::uint64_t>(
                    events, McSdcResult::kHistogramBins - 1)];
            }
            return partial;
        },
        [](McSdcResult &acc, McSdcResult &&partial) {
            acc.merge(partial);
        });
}

double
SdcModel::mcArccSdcEvents(double years, double boost, int trials,
                          std::uint64_t seed, SimEngine *engine) const
{
    return mcArccSdcEventsDetailed(years, boost, trials, seed, engine)
        .eventsPerTrial();
}

double
measureMiscorrectionRate(int n, int k, int maxCorrect, int numErrors,
                         int trials, std::uint64_t seed)
{
    ReedSolomon rs(n, k);
    RsWorkspace ws;
    Rng rng(seed);
    std::vector<std::uint8_t> word(n), original(n);
    std::vector<int> pos;
    int miscorrected = 0;
    for (int t = 0; t < trials; ++t) {
        for (int i = 0; i < k; ++i)
            word[i] = static_cast<std::uint8_t>(rng.below(256));
        rs.encode(word);
        original = word;

        // numErrors distinct positions, random non-zero magnitudes.
        pos.clear();
        while (static_cast<int>(pos.size()) < numErrors) {
            int p = static_cast<int>(rng.below(n));
            if (std::find(pos.begin(), pos.end(), p) == pos.end())
                pos.push_back(p);
        }
        for (int p : pos)
            word[p] ^= static_cast<std::uint8_t>(rng.range(1, 255));

        RsDecodeView res = rs.decode(word, ws, maxCorrect);
        bool silent_wrong =
            (res.status == DecodeStatus::Clean && word != original) ||
            (res.status == DecodeStatus::Corrected && word != original);
        if (silent_wrong)
            ++miscorrected;
        word = original; // reuse the buffer next round.
    }
    return static_cast<double>(miscorrected) / trials;
}

} // namespace arcc
