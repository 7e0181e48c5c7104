/**
 * @file
 * Fault taxonomy and sampling implementation.
 */

#include "faults/fault_model.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "common/units.hh"

namespace arcc
{

const char *
toString(FaultType t)
{
    switch (t) {
      case FaultType::Bit:    return "bit";
      case FaultType::Word:   return "word";
      case FaultType::Column: return "column";
      case FaultType::Row:    return "row";
      case FaultType::Bank:   return "bank";
      case FaultType::Device: return "device";
      case FaultType::Lane:   return "lane";
    }
    return "?";
}

const std::array<FaultType, kNumFaultTypes> &
allFaultTypes()
{
    static const std::array<FaultType, kNumFaultTypes> types = {
        FaultType::Bit,  FaultType::Word,   FaultType::Column,
        FaultType::Row,  FaultType::Bank,   FaultType::Device,
        FaultType::Lane,
    };
    return types;
}

double
FaultRates::totalFit() const
{
    double s = 0.0;
    for (double f : fit)
        s += f;
    return s;
}

FaultRates
FaultRates::scaled(double factor) const
{
    FaultRates r = *this;
    for (double &f : r.fit)
        f *= factor;
    return r;
}

FaultRates
FaultRates::fieldStudy()
{
    FaultRates r;
    r[FaultType::Bit] = 29.8;
    r[FaultType::Word] = 0.5;
    r[FaultType::Column] = 8.8;
    r[FaultType::Row] = 6.0;
    r[FaultType::Bank] = 10.4;
    r[FaultType::Device] = 1.4;
    r[FaultType::Lane] = 0.3;
    return r;
}

double
DomainGeometry::pageFraction(FaultType t) const
{
    switch (t) {
      case FaultType::Lane:
        // Shared data lane: both ranks of the channel (Table 7.4).
        return 1.0;
      case FaultType::Device:
        // Every page in the affected rank.
        return 1.0 / ranks;
      case FaultType::Bank:
        return 1.0 / (static_cast<double>(ranks) * banksPerDevice);
      case FaultType::Column:
        // Half the pages of one bank (the half-row holding the column).
        return 1.0 /
               (2.0 * static_cast<double>(ranks) * banksPerDevice);
      case FaultType::Row:
        // The pagesPerRow pages sharing the faulty row.
        return static_cast<double>(pagesPerRow) /
               static_cast<double>(pages);
      case FaultType::Word:
      case FaultType::Bit:
        return 1.0 / static_cast<double>(pages);
    }
    // A new FaultType silently contributing zero would vanish from
    // every reliability number; fail loudly instead.
    fatal("DomainGeometry::pageFraction: unhandled fault type %d",
          static_cast<int>(t));
}

FaultSampler::FaultSampler(const DomainGeometry &geom,
                           const FaultRates &rates)
    : geom_(geom), rates_(rates)
{
}

std::vector<FaultEvent>
FaultSampler::sampleLifetime(double hours, Rng &rng) const
{
    std::vector<FaultEvent> events;
    EventSortScratch scratch;
    sampleLifetime(hours, rng, events, scratch);
    return events;
}

void
FaultSampler::sampleLifetime(double hours, Rng &rng,
                             std::vector<FaultEvent> &events,
                             EventSortScratch &scratch) const
{
    events.clear();
    const double devices = geom_.totalDevices();
    for (FaultType t : allFaultTypes()) {
        double rate_per_hour = fitToPerHour(rates_[t]) * devices;
        double mean_count = rate_per_hour * hours;
        std::uint64_t count = rng.poisson(mean_count);
        for (std::uint64_t i = 0; i < count; ++i) {
            FaultEvent e;
            e.timeHours = rng.uniform() * hours;
            e.type = t;
            e.rank = static_cast<int>(rng.below(geom_.ranks));
            e.bank = static_cast<int>(rng.below(geom_.banksPerDevice));
            e.half = static_cast<int>(rng.below(2));
            e.device = static_cast<int>(rng.below(geom_.devicesPerRank));
            events.push_back(e);
        }
    }
    sortEvents(events, scratch);
}

void
FaultSampler::sortEvents(std::vector<FaultEvent> &events)
{
    EventSortScratch scratch;
    sortEvents(events, scratch);
}

void
FaultSampler::sortEvents(std::span<FaultEvent> events,
                         EventSortScratch &scratch)
{
    // Equal timestamps must keep their type-major insertion order, so
    // lifetimes are bit-identical across standard libraries (sorting
    // on the time alone made tie order libstdc++/libc++ dependent,
    // which broke golden-pinned campaign results).  The insertion
    // index in the key settles every tie.
    using Key = EventSortScratch::Key;
    const std::size_t n = events.size();
    if (n < 2)
        return;
    ARCC_ASSERT(n <= std::numeric_limits<std::uint32_t>::max());
    const auto before = [](const Key &a, const Key &b) {
        return a.timeHours < b.timeHours ||
               (a.timeHours == b.timeHours && a.index < b.index);
    };

    std::vector<Key> &keys = scratch.keys;
    keys.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        keys[i] = {events[i].timeHours, static_cast<std::uint32_t>(i)};
    std::sort(keys.begin(), keys.end(), before);

    // Gather the events into key order.
    std::vector<FaultEvent> &unsorted = scratch.events;
    unsorted.assign(events.begin(), events.end());
    for (std::size_t k = 0; k < n; ++k)
        events[k] = unsorted[keys[k].index];
}

} // namespace arcc
