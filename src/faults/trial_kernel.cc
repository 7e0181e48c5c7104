/**
 * @file
 * Lifetime trial kernel implementation.
 */

#include "faults/trial_kernel.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/units.hh"

namespace arcc
{

FootprintScope
footprintScope(FaultType t)
{
    switch (t) {
      case FaultType::Device:
      case FaultType::Lane:
        return {false, false, false};
      case FaultType::Bank:
        return {true, false, false};
      case FaultType::Column:
        return {true, false, true};
      case FaultType::Row:
        return {true, true, false};
      case FaultType::Word:
      case FaultType::Bit:
        return {true, true, true};
    }
    return {};
}

bool
faultsOverlap(const ConcreteFault &a, const ConcreteFault &b)
{
    if (a.type == FaultType::Lane || b.type == FaultType::Lane)
        return true;
    if (a.group != b.group || a.device == b.device)
        return false;
    FootprintScope sa = footprintScope(a.type);
    FootprintScope sb = footprintScope(b.type);
    if (sa.oneBank && sb.oneBank && a.bank != b.bank)
        return false;
    if (sa.oneRow && sb.oneRow && a.row != b.row)
        return false;
    if (sa.oneCol && sb.oneCol && a.col != b.col)
        return false;
    return true;
}

TrialKernel::TrialKernel(const DomainGeometry &geom,
                         const FaultRates &rates, double hours,
                         std::uint64_t seed, const CodewordLayout &layout)
    : sampler_(geom, rates), hours_(hours), seed_(seed), layout_(layout)
{
    if (layout_.devicesPerGroup == 0)
        return;
    if (layout_.devicesPerGroup < 0 ||
        geom.totalDevices() % layout_.devicesPerGroup != 0)
        fatal("TrialKernel: %d devices per group does not divide the "
              "domain's %d devices",
              layout_.devicesPerGroup, geom.totalDevices());
    groups_ = geom.totalDevices() / layout_.devicesPerGroup;
}

void
TrialKernel::draw(std::uint64_t trial, Trial &out) const
{
    Rng rng = Rng::stream(seed_, trial);
    out.events = sampler_.sampleLifetime(hours_, rng);
    out.faults.clear();
    for (std::size_t i = 0; groups_ > 0 && i < out.events.size(); ++i) {
        ConcreteFault f;
        f.timeHours = out.events[i].timeHours;
        f.type = out.events[i].type;
        f.group = static_cast<int>(rng.below(groups_));
        f.device = static_cast<int>(rng.below(layout_.devicesPerGroup));
        f.bank = out.events[i].bank;
        f.row = static_cast<int>(rng.below(layout_.rowsPerBank));
        f.col = static_cast<int>(rng.below(layout_.colsPerBank));
        out.faults.push_back(f);
    }
}

std::uint64_t
countSdcPairs(std::span<const ConcreteFault> faults, double scrubHours)
{
    std::uint64_t pairs = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        // Fault i is detected (and its pages upgraded) at the end of
        // the scrub period it arrives in.
        const double detect =
            (std::floor(faults[i].timeHours / scrubHours) + 1.0) *
            scrubHours;
        for (std::size_t j = i + 1; j < faults.size(); ++j) {
            if (faults[j].timeHours >= detect)
                break;
            if (faultsOverlap(faults[i], faults[j]))
                ++pairs;
        }
    }
    return pairs;
}

std::uint64_t
countDuePairs(std::span<const ConcreteFault> faults)
{
    std::uint64_t pairs = 0;
    for (std::size_t i = 0; i < faults.size(); ++i)
        for (std::size_t j = i + 1; j < faults.size(); ++j)
            if (faultsOverlap(faults[i], faults[j]))
                ++pairs;
    return pairs;
}

void
addAffectedFractions(const DomainGeometry &geom,
                     std::span<const FaultEvent> events,
                     std::span<const double> gridYears,
                     std::span<double> acc)
{
    // Cell (rank, bank, half) is bit (rank * banks + bank) * 2 + half.
    const std::size_t rank_cells =
        static_cast<std::size_t>(geom.banksPerDevice) * 2;
    std::vector<bool> cells(geom.ranks * rank_cells, false);
    std::size_t marked = 0;
    std::uint64_t small_pages = 0;
    const auto mark = [&](std::size_t first, std::size_t count) {
        for (std::size_t i = first; i < first + count; ++i) {
            marked += !cells[i];
            cells[i] = true;
        }
    };

    std::size_t next = 0;
    for (std::size_t p = 0; p < gridYears.size(); ++p) {
        const double hours = gridYears[p] * kHoursPerYear;
        for (; next < events.size() && events[next].timeHours <= hours;
             ++next) {
            const FaultEvent &e = events[next];
            const std::size_t rank = e.rank * rank_cells;
            const std::size_t bank = rank + e.bank * 2;
            switch (e.type) {
              case FaultType::Lane:   mark(0, cells.size()); break;
              case FaultType::Device: mark(rank, rank_cells); break;
              case FaultType::Bank:   mark(bank, 2); break;
              case FaultType::Column: mark(bank + e.half, 1); break;
              case FaultType::Row:    small_pages += geom.pagesPerRow; break;
              case FaultType::Word:
              case FaultType::Bit:    small_pages += 1; break;
            }
        }
        const double big = static_cast<double>(marked) /
                           static_cast<double>(cells.size());
        const double small = static_cast<double>(small_pages) /
                             static_cast<double>(geom.pages);
        acc[p] += std::min(1.0, big + small);
    }
}

void
addCumulativeOverhead(std::span<const FaultEvent> events,
                      const PerTypeOverhead &overhead, double cap,
                      std::span<double> acc)
{
    // Integrate the overhead step function up to each year's end.
    for (std::size_t y = 1; y <= acc.size(); ++y) {
        const double horizon = static_cast<double>(y) * kHoursPerYear;
        double integral = 0.0;
        double level = 0.0;
        double raw = 0.0;
        double prev_t = 0.0;
        for (const FaultEvent &e : events) {
            if (e.timeHours > horizon)
                break;
            integral += level * (e.timeHours - prev_t);
            raw += overhead[static_cast<int>(e.type)];
            level = std::min(raw, cap);
            prev_t = e.timeHours;
        }
        integral += level * (horizon - prev_t);
        acc[y - 1] += integral / horizon;
    }
}

} // namespace arcc
