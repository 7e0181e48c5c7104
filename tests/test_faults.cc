/**
 * @file
 * Fault-model tests: rates, Table 7.4 page fractions, sampling, the
 * trial kernel and the lifetime Monte Carlo.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "faults/fault_model.hh"
#include "faults/lifetime_mc.hh"
#include "faults/trial_kernel.hh"

namespace arcc
{
namespace
{

TEST(FaultRates, FieldStudyTotalsAreInThePaperRange)
{
    FaultRates r = FaultRates::fieldStudy();
    EXPECT_GT(r.totalFit(), 30.0);
    EXPECT_LT(r.totalFit(), 120.0);
    // A 36-device DIMM's any-fault incidence per year should be of the
    // order the paper quotes (2.95% [2] to 8% [1]); we land near the
    // bottom of that range.
    double per_dimm_year = fitToPerYear(r.totalFit()) * 36.0;
    EXPECT_GT(per_dimm_year, 0.01);
    EXPECT_LT(per_dimm_year, 0.08);
}

TEST(FaultRates, ScalingIsUniform)
{
    FaultRates r = FaultRates::fieldStudy();
    FaultRates r4 = r.scaled(4.0);
    for (FaultType t : allFaultTypes())
        EXPECT_DOUBLE_EQ(r4[t], 4.0 * r[t]);
    EXPECT_DOUBLE_EQ(r4.totalFit(), 4.0 * r.totalFit());
}

TEST(DomainGeometry, Table74UpgradeFractions)
{
    // The ARCC memory of Table 7.1: 2 ranks per channel-pair, 8 banks.
    DomainGeometry g;
    g.ranks = 2;
    g.banksPerDevice = 8;
    g.pages = 1048576;
    g.pagesPerRow = 2;
    EXPECT_DOUBLE_EQ(g.pageFraction(FaultType::Lane), 1.0);
    EXPECT_DOUBLE_EQ(g.pageFraction(FaultType::Device), 1.0 / 2);
    EXPECT_DOUBLE_EQ(g.pageFraction(FaultType::Bank), 1.0 / 16);
    EXPECT_DOUBLE_EQ(g.pageFraction(FaultType::Column), 1.0 / 32);
    EXPECT_DOUBLE_EQ(g.pageFraction(FaultType::Row), 2.0 / 1048576);
    EXPECT_DOUBLE_EQ(g.pageFraction(FaultType::Bit), 1.0 / 1048576);
}

TEST(DomainGeometryDeathTest, UnhandledFaultTypeIsFatal)
{
    // The switch in pageFraction is exhaustive over FaultType; a value
    // outside the enum (a future type the switch forgot) must die
    // loudly instead of silently contributing 0 to every reliability
    // number.
    DomainGeometry g;
    EXPECT_EXIT(g.pageFraction(static_cast<FaultType>(99)),
                ::testing::ExitedWithCode(1),
                "unhandled fault type 99");
}

TEST(FaultSampler, SortEventsIsStableOnTimestampTies)
{
    // Forced ties: interleave three timestamps across fault types in
    // type-major insertion order, as sampleLifetime produces them.  A
    // stable sort must keep that insertion order within each tie
    // group; std::sort was free to permute it differently per
    // standard library, which broke cross-toolchain golden pinning.
    std::vector<FaultEvent> events;
    int device = 0;
    for (FaultType t : allFaultTypes()) {
        for (double time : {2.0, 1.0, 2.0}) {
            FaultEvent e;
            e.timeHours = time;
            e.type = t;
            e.device = device++; // Unique tag per insertion.
            events.push_back(e);
        }
    }
    FaultSampler::sortEvents(events);

    ASSERT_EQ(events.size(), 21u);
    // First seven: the time==1.0 events, one per type in enum order.
    for (int i = 0; i < 7; ++i) {
        EXPECT_DOUBLE_EQ(events[i].timeHours, 1.0);
        EXPECT_EQ(events[i].type, allFaultTypes()[i]) << i;
        EXPECT_EQ(events[i].device, i * 3 + 1) << i;
    }
    // Remaining fourteen: the time==2.0 ties in insertion order --
    // both events of type 0 before both events of type 1, and within
    // a type the earlier insertion first.
    for (int i = 0; i < 14; ++i) {
        const FaultEvent &e = events[7 + i];
        EXPECT_DOUBLE_EQ(e.timeHours, 2.0);
        EXPECT_EQ(e.type, allFaultTypes()[i / 2]) << i;
        EXPECT_EQ(e.device, (i / 2) * 3 + (i % 2 == 0 ? 0 : 2)) << i;
    }
}

TEST(FaultSampler, SortEventsMatchesAStableSortOnAnyInput)
{
    // sortEvents sorts on (time, insertion index) and must give a
    // stable sort's order on any input: spread times, a tight cluster
    // with one outlier, heavy ties, one time for all, and reversed
    // order, from 0 to 3000 events, through one reused scratch.
    Rng rng(2013);
    EventSortScratch scratch;
    for (int round = 0; round < 200; ++round) {
        const std::size_t n = round < 5 ? static_cast<std::size_t>(round)
                                        : rng.below(3000);
        const int shape = round % 5;
        std::vector<FaultEvent> events;
        for (std::size_t i = 0; i < n; ++i) {
            FaultEvent e;
            switch (shape) {
              case 0: e.timeHours = rng.uniform() * 43830.0; break;
              case 1:
                e.timeHours = i == 0 ? 1e6 : rng.uniform() * 1e-3;
                break;
              case 2:
                e.timeHours = static_cast<double>(rng.below(8));
                break;
              case 3: e.timeHours = 7.0; break;
              default:
                e.timeHours = static_cast<double>(n - i);
                break;
            }
            e.device = static_cast<int>(i); // Insertion tag.
            events.push_back(e);
        }
        std::vector<FaultEvent> expect = events;
        std::stable_sort(expect.begin(), expect.end(),
                         [](const FaultEvent &a, const FaultEvent &b) {
                             return a.timeHours < b.timeHours;
                         });
        FaultSampler::sortEvents(events, scratch);
        ASSERT_EQ(events.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(events[i].device, expect[i].device)
                << "round " << round << " shape " << shape << " at " << i;
        }
    }
}

TEST(FaultSampler, EventCountMatchesRates)
{
    DomainGeometry g;
    FaultRates r = FaultRates::fieldStudy();
    FaultSampler sampler(g, r);
    Rng rng(5);
    const double hours = 7 * kHoursPerYear;
    double total = 0.0;
    const int trials = 2000;
    for (int t = 0; t < trials; ++t) {
        Rng tr = rng.fork();
        total += static_cast<double>(
            sampler.sampleLifetime(hours, tr).size());
    }
    double expected =
        fitToPerHour(r.totalFit()) * g.totalDevices() * hours;
    EXPECT_NEAR(total / trials, expected, expected * 0.15);
}

TEST(FaultSampler, EventsAreSortedAndInRange)
{
    DomainGeometry g;
    FaultSampler sampler(g, FaultRates::fieldStudy().scaled(2000.0));
    Rng rng(6);
    const double hours = kHoursPerYear;
    auto events = sampler.sampleLifetime(hours, rng);
    ASSERT_GT(events.size(), 20u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_GE(events[i].timeHours, 0.0);
        EXPECT_LE(events[i].timeHours, hours);
        EXPECT_LT(events[i].rank, g.ranks);
        EXPECT_LT(events[i].bank, g.banksPerDevice);
        EXPECT_LT(events[i].device, g.devicesPerRank);
        if (i > 0) {
            EXPECT_GE(events[i].timeHours, events[i - 1].timeHours);
        }
    }
}

// --- trial kernel -------------------------------------------------------

ConcreteFault
concreteFault(FaultType type, int group, int device, int bank = 0,
              int row = 0, int col = 0, double hours = 0.0)
{
    ConcreteFault f;
    f.timeHours = hours;
    f.type = type;
    f.group = group;
    f.device = device;
    f.bank = bank;
    f.row = row;
    f.col = col;
    return f;
}

TEST(TrialKernel, LaneFaultOverlapsAnything)
{
    // Another group, the same device, every coordinate different.
    const ConcreteFault lane =
        concreteFault(FaultType::Lane, 0, 3, 1, 2, 3);
    for (FaultType t : allFaultTypes()) {
        const ConcreteFault other = concreteFault(t, 1, 3, 4, 5, 6);
        EXPECT_TRUE(faultsOverlap(lane, other)) << toString(t);
        EXPECT_TRUE(faultsOverlap(other, lane)) << toString(t);
    }
}

TEST(TrialKernel, SameDeviceOrDifferentGroupsNeverOverlap)
{
    for (FaultType a : allFaultTypes()) {
        for (FaultType b : allFaultTypes()) {
            if (a == FaultType::Lane || b == FaultType::Lane)
                continue;
            SCOPED_TRACE(std::string(toString(a)) + "/" + toString(b));
            EXPECT_FALSE(faultsOverlap(concreteFault(a, 0, 5),
                                       concreteFault(b, 0, 5)));
            EXPECT_FALSE(faultsOverlap(concreteFault(a, 0, 5),
                                       concreteFault(b, 1, 6)));
            // Control: two devices of one group at equal coordinates.
            EXPECT_TRUE(faultsOverlap(concreteFault(a, 0, 5),
                                      concreteFault(b, 0, 6)));
        }
    }
}

TEST(TrialKernel, CoordinatesMatterOnlyWhereBothFootprintsAreConfined)
{
    enum Dim { Bank, Row, Col };
    struct Case
    {
        FaultType a;
        FaultType b;
        Dim differs;
        bool overlap;
    };
    using F = FaultType;
    const Case cases[] = {
        {F::Device, F::Device, Bank, true},
        {F::Device, F::Bit, Bank, true},
        {F::Bank, F::Bank, Bank, false},
        {F::Bank, F::Bank, Row, true},
        {F::Bank, F::Bit, Row, true},
        {F::Bank, F::Column, Col, true},
        {F::Column, F::Column, Col, false},
        {F::Column, F::Column, Row, true},
        {F::Column, F::Row, Bank, false},
        {F::Column, F::Row, Row, true},
        {F::Column, F::Row, Col, true},
        {F::Column, F::Bit, Col, false},
        {F::Column, F::Bit, Row, true},
        {F::Row, F::Row, Row, false},
        {F::Row, F::Row, Col, true},
        {F::Row, F::Word, Row, false},
        {F::Row, F::Word, Col, true},
        {F::Word, F::Bit, Col, false},
        {F::Bit, F::Bit, Bank, false},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(toString(c.a)) + "/" + toString(c.b) +
                     " differing in dim " + std::to_string(c.differs));
        const ConcreteFault x = concreteFault(c.a, 0, 0, 1, 2, 3);
        ConcreteFault y = concreteFault(c.b, 0, 1, 1, 2, 3);
        int *coord[] = {&y.bank, &y.row, &y.col};
        ++*coord[c.differs];
        EXPECT_EQ(faultsOverlap(x, y), c.overlap);
        EXPECT_EQ(faultsOverlap(y, x), c.overlap);
    }
}

TEST(TrialKernel, WindowedScanEndsAtTheFirstFaultsDetection)
{
    // The scrub finds a fault arriving at hour 1 at the end of the
    // first 4-hour scrub period.
    const double scrub = 4.0;
    const double detect = 4.0;
    const ConcreteFault first =
        concreteFault(FaultType::Device, 0, 0, 0, 0, 0, 1.0);
    const ConcreteFault just_before = concreteFault(
        FaultType::Device, 0, 1, 0, 0, 0, std::nextafter(detect, 0.0));
    const ConcreteFault at_detect =
        concreteFault(FaultType::Device, 0, 1, 0, 0, 0, detect);
    Trial inside;
    inside.faults = {first, just_before};
    Trial outside;
    outside.faults = {first, at_detect};
    EXPECT_EQ(countOverlapPairs(inside, scrub).sdc, 1u);
    EXPECT_EQ(countOverlapPairs(outside, scrub).sdc, 0u);
    EXPECT_EQ(countOverlapPairs(inside, scrub).due, 1u);
    EXPECT_EQ(countOverlapPairs(outside, scrub).due, 1u);
}

void
expectSameEvent(const FaultEvent &a, const FaultEvent &b)
{
    EXPECT_EQ(a.timeHours, b.timeHours);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.half, b.half);
    EXPECT_EQ(a.device, b.device);
}

TEST(TrialKernel, EventsAreTheSamplersOnTheTrialStream)
{
    // LifetimeMc draws histories only and the campaign concretises
    // them too; both must see FaultSampler::sampleLifetime on
    // Rng::stream(seed, t), so the footprints draw after the history.
    const DomainGeometry geom;
    const FaultRates rates = FaultRates::fieldStudy().scaled(500.0);
    const double hours = 5 * kHoursPerYear;
    const FaultSampler sampler(geom, rates);
    const TrialKernel histories(geom, rates, hours, 77);
    const TrialKernel footprints(geom, rates, hours, 77,
                                 {18, 8192, 1024});
    Trial a;
    Trial b;
    for (std::uint64_t t : {0ULL, 1ULL, 2ULL, 1000ULL, 123456789ULL}) {
        SCOPED_TRACE("trial " + std::to_string(t));
        Rng rng = Rng::stream(77, t);
        const std::vector<FaultEvent> expect =
            sampler.sampleLifetime(hours, rng);
        histories.draw(t, a);
        footprints.draw(t, b);
        ASSERT_FALSE(expect.empty());
        ASSERT_EQ(a.events.size(), expect.size());
        ASSERT_EQ(b.events.size(), expect.size());
        EXPECT_TRUE(a.faults.empty());
        ASSERT_EQ(b.faults.size(), expect.size());
        for (std::size_t i = 0; i < expect.size(); ++i) {
            expectSameEvent(a.events[i], expect[i]);
            expectSameEvent(b.events[i], expect[i]);
            const ConcreteFault &f = b.faults[i];
            EXPECT_EQ(f.timeHours, expect[i].timeHours);
            EXPECT_EQ(f.type, expect[i].type);
            EXPECT_EQ(f.bank, expect[i].bank);
            EXPECT_LT(f.group, 4);
            EXPECT_LT(f.device, 18);
            EXPECT_LT(f.row, 8192);
            EXPECT_LT(f.col, 1024);
        }
    }
}

TEST(TrialKernelDeathTest, GroupingMustDivideTheDevices)
{
    EXPECT_EXIT(TrialKernel(DomainGeometry{}, FaultRates::fieldStudy(),
                            kHoursPerYear, 1, {10, 8192, 1024}),
                ::testing::ExitedWithCode(1),
                "10 devices per group does not divide");
}

TEST(TrialKernel, AffectedFractionsMatchAPerCellReference)
{
    // addAffectedFractions keeps its (rank, bank, half) cells in a
    // bitmap on the stack up to 1024 cells and on the heap past that.
    // Both must match a plain per-cell set: at the default 32 cells,
    // at exactly 1024, and at 1040 and 2048.
    Rng rng(25);
    const std::vector<double> grid = {0.5, 1, 2, 3, 5, 8, 10};
    for (auto [ranks, banks] : {std::pair{2, 8}, std::pair{64, 8},
                                std::pair{65, 8}, std::pair{64, 16}}) {
        DomainGeometry geom;
        geom.ranks = ranks;
        geom.banksPerDevice = banks;
        const std::size_t cells = static_cast<std::size_t>(ranks) *
                                  static_cast<std::size_t>(banks) * 2;
        for (int round = 0; round < 40; ++round) {
            SCOPED_TRACE(std::to_string(cells) + " cells, round " +
                         std::to_string(round));
            std::vector<FaultEvent> events(rng.below(300));
            for (FaultEvent &e : events) {
                e.timeHours = rng.uniform() * 10 * kHoursPerYear;
                // A lane fault taints every cell; keep them rare.
                e.type = rng.below(1000) == 0
                             ? FaultType::Lane
                             : allFaultTypes()[rng.below(
                                   kNumFaultTypes - 1)];
                e.rank = static_cast<int>(rng.below(ranks));
                e.bank = static_cast<int>(rng.below(banks));
                e.half = static_cast<int>(rng.below(2));
            }
            FaultSampler::sortEvents(events);
            std::vector<double> got(grid.size(), 0.0);
            addAffectedFractions(geom, events, grid, got);

            std::vector<bool> tainted(cells, false);
            std::uint64_t small_pages = 0;
            std::size_t next = 0;
            for (std::size_t p = 0; p < grid.size(); ++p) {
                for (; next < events.size() &&
                       events[next].timeHours <= grid[p] * kHoursPerYear;
                     ++next) {
                    const FaultEvent &e = events[next];
                    if (e.type == FaultType::Row)
                        small_pages += geom.pagesPerRow;
                    if (e.type == FaultType::Word ||
                        e.type == FaultType::Bit)
                        small_pages += 1;
                    for (int r = 0; r < ranks; ++r)
                        for (int b = 0; b < banks; ++b)
                            for (int h = 0; h < 2; ++h) {
                                const bool hit =
                                    e.type == FaultType::Lane ||
                                    (e.type == FaultType::Device &&
                                     r == e.rank) ||
                                    (e.type == FaultType::Bank &&
                                     r == e.rank && b == e.bank) ||
                                    (e.type == FaultType::Column &&
                                     r == e.rank && b == e.bank &&
                                     h == e.half);
                                if (hit)
                                    tainted[(r * banks + b) * 2 + h] = true;
                            }
                }
                const auto marked = static_cast<double>(
                    std::count(tainted.begin(), tainted.end(), true));
                const double expect = std::min(
                    1.0, marked / static_cast<double>(cells) +
                             static_cast<double>(small_pages) /
                                 static_cast<double>(geom.pages));
                EXPECT_EQ(got[p], expect) << "year " << grid[p];
            }
        }
    }
}

// --- lifetime Monte Carlo ----------------------------------------------

TEST(LifetimeMc, AffectedFractionIsMonotoneAndMatchesAnalytic)
{
    LifetimeMcConfig cfg;
    cfg.channels = 3000;
    cfg.years = 7.0;
    cfg.gridPerYear = 4;
    LifetimeMc mc(cfg);
    AffectedCurve curve = mc.affectedFraction();
    ASSERT_EQ(curve.timeYears.size(), curve.avgFraction.size());
    for (std::size_t i = 1; i < curve.avgFraction.size(); ++i)
        EXPECT_GE(curve.avgFraction[i], curve.avgFraction[i - 1]);
    double mc7 = curve.avgFraction.back();
    double an7 = mc.analyticAffectedFraction(7.0);
    EXPECT_NEAR(mc7, an7, an7 * 0.25 + 1e-4);
    // "Just a few percent during most of the lifetime" (Chapter 3).
    EXPECT_LT(mc7, 0.05);
    EXPECT_GT(mc7, 0.001);
}

TEST(LifetimeMc, FourXRatesRoughlyQuadrupleTheFraction)
{
    LifetimeMcConfig cfg;
    cfg.channels = 3000;
    cfg.gridPerYear = 2;
    LifetimeMc mc1(cfg);
    cfg.rates = FaultRates::fieldStudy().scaled(4.0);
    LifetimeMc mc4(cfg);
    double f1 = mc1.affectedFraction().avgFraction.back();
    double f4 = mc4.affectedFraction().avgFraction.back();
    EXPECT_GT(f4, 2.5 * f1);
    EXPECT_LT(f4, 4.5 * f1);
}

TEST(LifetimeMc, OverheadCurveGrowsAndRespectsCap)
{
    LifetimeMcConfig cfg;
    cfg.channels = 2000;
    // Extreme rates so the cap actually binds.
    cfg.rates = FaultRates::fieldStudy().scaled(3000.0);
    LifetimeMc mc(cfg);
    PerTypeOverhead overhead{};
    for (FaultType t : allFaultTypes())
        overhead[static_cast<int>(t)] = 0.5;
    auto by_year = mc.cumulativeOverheadByYear(overhead, 1.0);
    ASSERT_EQ(by_year.size(), 7u);
    for (std::size_t y = 1; y < by_year.size(); ++y)
        EXPECT_GE(by_year[y], by_year[y - 1] - 1e-12);
    for (double v : by_year)
        EXPECT_LE(v, 1.0 + 1e-12);
    EXPECT_GT(by_year.back(), 0.5);
}

TEST(LifetimeMc, ZeroOverheadFaultsCostNothing)
{
    LifetimeMcConfig cfg;
    cfg.channels = 500;
    LifetimeMc mc(cfg);
    PerTypeOverhead overhead{};
    auto by_year = mc.cumulativeOverheadByYear(overhead, 1.0);
    for (double v : by_year)
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(LifetimeMcDeathTest, EmptyTimeGridIsFatal)
{
    // 0.2 years at 4 points per year has no grid point: the curve
    // would be empty, and a negative gridPerYear would size it near
    // 2^64.
    LifetimeMcConfig cfg;
    cfg.channels = 100;
    cfg.years = 0.2;
    cfg.gridPerYear = 4;
    EXPECT_EXIT(LifetimeMc mc(cfg), ::testing::ExitedWithCode(1),
                "years . gridPerYear must be at least 1");
    cfg.years = 7.0;
    for (int grid : {0, -3}) {
        cfg.gridPerYear = grid;
        EXPECT_EXIT(LifetimeMc mc(cfg), ::testing::ExitedWithCode(1),
                    "gridPerYear must be at least 1, got " +
                        std::to_string(grid));
    }
}

TEST(LifetimeMc, DeterministicForAGivenSeed)
{
    LifetimeMcConfig cfg;
    cfg.channels = 500;
    cfg.gridPerYear = 2;
    LifetimeMc a(cfg), b(cfg);
    EXPECT_EQ(a.affectedFraction().avgFraction,
              b.affectedFraction().avgFraction);
}

} // namespace
} // namespace arcc
