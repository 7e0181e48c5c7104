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

Trial &
Trial::forThisThread()
{
    static thread_local Trial trial;
    return trial;
}

void
TrialKernel::draw(std::uint64_t trial, Trial &out) const
{
    Rng rng = Rng::stream(seed_, trial);
    sampler_.sampleLifetime(hours_, rng, out.events, out.sort);
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

namespace
{

/** When the scrub finds a fault arriving at `hours`: the end of the
 *  scrub period it arrives in. */
double
detectHours(double hours, double scrubHours)
{
    return (std::floor(hours / scrubHours) + 1.0) * scrubHours;
}

constexpr unsigned kBankBit = 1;
constexpr unsigned kRowBit = 2;
constexpr unsigned kColBit = 4;

/** footprintScope as bank / row / column bits, by FaultType value: a
 *  table, so the scan takes no branch per fault. */
const std::array<unsigned, kNumFaultTypes> kScopeBits = [] {
    std::array<unsigned, kNumFaultTypes> bits{};
    for (FaultType t : allFaultTypes()) {
        const FootprintScope s = footprintScope(t);
        bits[static_cast<int>(t)] = (s.oneBank ? kBankBit : 0) |
                                    (s.oneRow ? kRowBit : 0) |
                                    (s.oneCol ? kColBit : 0);
    }
    return bits;
}();

} // anonymous namespace

OverlapPairs
countOverlapPairs(Trial &trial, double scrubHours)
{
    const std::vector<ConcreteFault> &faults = trial.faults;
    const std::size_t n = faults.size();
    OverlapPairs pairs;

    // Lane pairs, and a count of the other faults per group.
    GroupedFaults &grouped = trial.grouped;
    std::vector<std::uint32_t> &starts = grouped.starts;
    std::fill(starts.begin(), starts.end(), 0);
    std::uint64_t lanes = 0;
    for (std::size_t p = 0; p < n; ++p) {
        const ConcreteFault &f = faults[p];
        if (f.type != FaultType::Lane) {
            ARCC_ASSERT(f.group >= 0);
            const auto g = static_cast<std::size_t>(f.group);
            if (g >= starts.size())
                starts.resize(g + 1, 0);
            ++starts[g];
            continue;
        }
        ++lanes;
        // Later faults inside the lane fault's window, and earlier
        // non-lane faults whose window it lands in (an earlier lane
        // fault's own walk has that pair).  Windows end no earlier
        // for later arrivals, so both walks stop at the first miss.
        const double detect = detectHours(f.timeHours, scrubHours);
        for (std::size_t j = p + 1;
             j < n && faults[j].timeHours < detect; ++j)
            ++pairs.sdc;
        for (std::size_t i = p;
             i-- > 0 && f.timeHours < detectHours(faults[i].timeHours,
                                                  scrubHours);)
            pairs.sdc += faults[i].type != FaultType::Lane;
    }
    pairs.due = lanes * (n - lanes) + lanes * (lanes - 1) / 2;

    // Stable counting sort of the other faults by group: starts[g]
    // becomes group g's first row once the backward fill is done.
    std::uint32_t total = 0;
    for (std::uint32_t &s : starts) {
        total += s;
        s = total;
    }
    grouped.timeHours.resize(total);
    grouped.device.resize(total);
    grouped.bank.resize(total);
    grouped.row.resize(total);
    grouped.col.resize(total);
    grouped.scope.resize(total);
    for (std::size_t p = n; p-- > 0;) {
        const ConcreteFault &f = faults[p];
        if (f.type == FaultType::Lane)
            continue;
        const std::uint32_t r = --starts[static_cast<std::size_t>(f.group)];
        grouped.timeHours[r] = f.timeHours;
        grouped.device[r] = f.device;
        grouped.bank[r] = f.bank;
        grouped.row[r] = f.row;
        grouped.col[r] = f.col;
        grouped.scope[r] = kScopeBits[static_cast<int>(f.type)];
    }

    // Within a group, faultsOverlap is: different devices, and equal
    // coordinates in every dimension both footprints are confined to.
    // Rows are in arrival order, so i's SDC pairs are a prefix of its
    // later rows.
    const double *time = grouped.timeHours.data();
    const int *device = grouped.device.data();
    const int *bank = grouped.bank.data();
    const int *row = grouped.row.data();
    const int *col = grouped.col.data();
    const unsigned *scope = grouped.scope.data();
    for (std::size_t g = 0; g < starts.size(); ++g) {
        const std::size_t end =
            g + 1 < starts.size() ? starts[g + 1] : total;
        for (std::size_t i = starts[g]; i < end; ++i) {
            const auto overlaps = [&, i](std::size_t j) {
                const unsigned differs =
                    unsigned{bank[i] != bank[j]} * kBankBit |
                    unsigned{row[i] != row[j]} * kRowBit |
                    unsigned{col[i] != col[j]} * kColBit;
                return unsigned{device[i] != device[j]} &
                       unsigned{(differs & scope[i] & scope[j]) == 0};
            };
            // A 32-bit count keeps this loop in 32-bit vector lanes.
            unsigned due = 0;
            for (std::size_t j = i + 1; j < end; ++j)
                due += overlaps(j);
            pairs.due += due;
            const double detect = detectHours(time[i], scrubHours);
            for (std::size_t j = i + 1; j < end && time[j] < detect; ++j)
                pairs.sdc += overlaps(j);
        }
    }
    return pairs;
}

void
addAffectedFractions(const DomainGeometry &geom,
                     std::span<const FaultEvent> events,
                     std::span<const double> gridYears,
                     std::span<double> acc)
{
    // Cell (rank, bank, half) is bit (rank * banks + bank) * 2 + half
    // of a bitmap on the stack; only a domain of more than 1024 cells
    // puts it on the heap.
    const std::size_t rank_cells =
        static_cast<std::size_t>(geom.banksPerDevice) * 2;
    const std::size_t cells = geom.ranks * rank_cells;
    std::array<std::uint64_t, 16> stack_words{};
    std::vector<std::uint64_t> heap_words;
    std::uint64_t *words = stack_words.data();
    if (cells > 64 * stack_words.size()) {
        heap_words.assign((cells + 63) / 64, 0);
        words = heap_words.data();
    }
    std::size_t marked = 0;
    std::uint64_t small_pages = 0;
    const auto mark = [&](std::size_t first, std::size_t count) {
        for (std::size_t i = first; i < first + count; ++i) {
            const std::uint64_t bit = std::uint64_t{1} << (i % 64);
            marked += (words[i / 64] & bit) == 0;
            words[i / 64] |= bit;
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
              case FaultType::Lane:   mark(0, cells); break;
              case FaultType::Device: mark(rank, rank_cells); break;
              case FaultType::Bank:   mark(bank, 2); break;
              case FaultType::Column: mark(bank + e.half, 1); break;
              case FaultType::Row:    small_pages += geom.pagesPerRow; break;
              case FaultType::Word:
              case FaultType::Bit:    small_pages += 1; break;
            }
        }
        const double big = static_cast<double>(marked) /
                           static_cast<double>(cells);
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
