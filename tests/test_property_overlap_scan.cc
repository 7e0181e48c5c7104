/**
 * @file
 * Property tests for the trial kernel's overlap scan: over seeded
 * random fault lists, countOverlapPairs must equal the reference it
 * replaces -- every pair (i, j), i before j in arrival order, tested
 * with faultsOverlap, a DUE candidate if they overlap and an SDC
 * candidate if j also arrives before i's detection,
 * t_j < (floor(t_i / scrub) + 1) * scrub.
 *
 * The lists are built to reach every branch of the scan: none, one
 * and several lane faults (lane-lane pairs included), repeated
 * devices, coordinates drawn from two or three values so that equal
 * and unequal ones both occur in every dimension, arrival times
 * exactly at and just before a detection boundary, forced time ties,
 * and 1, 2, 4 and 8 codeword groups (72, 36, 18 and 9 devices per
 * group).  One Trial serves every list, so scratch left over from a
 * list with more groups or faults must not leak into the next.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "faults/trial_kernel.hh"

namespace arcc
{
namespace
{

/** The all-pairs reference with the documented window rule. */
OverlapPairs
referencePairs(const std::vector<ConcreteFault> &faults, double scrub)
{
    OverlapPairs pairs;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const double detect =
            (std::floor(faults[i].timeHours / scrub) + 1.0) * scrub;
        for (std::size_t j = i + 1; j < faults.size(); ++j) {
            if (!faultsOverlap(faults[i], faults[j]))
                continue;
            ++pairs.due;
            if (faults[j].timeHours < detect)
                ++pairs.sdc;
        }
    }
    return pairs;
}

/** An arrival time in scrub period `period`: the period's start
 *  (which is the previous period's detection), the instant before
 *  its end, its middle, or anywhere in it. */
double
arrivalTime(Rng &rng, double scrub, std::uint64_t period)
{
    const double start = static_cast<double>(period) * scrub;
    switch (rng.below(4)) {
      case 0:
        return start;
      case 1:
        return std::nextafter(
            (static_cast<double>(period) + 1.0) * scrub, 0.0);
      case 2:
        return start + scrub / 2;
      default:
        return start + rng.uniform() * scrub;
    }
}

/** A random fault list in arrival order over `groups` groups. */
std::vector<ConcreteFault>
randomFaults(Rng &rng, int groups, int devicesPerGroup, double scrub,
             std::uint64_t lanes)
{
    const std::uint64_t n = lanes + rng.below(40);
    // A few scrub periods, so that windows hold several faults.
    const std::uint64_t periods = 1 + rng.below(12);
    std::vector<ConcreteFault> faults;
    for (std::uint64_t k = 0; k < n; ++k) {
        ConcreteFault f;
        f.type = k < lanes ? FaultType::Lane
                           : allFaultTypes()[rng.below(kNumFaultTypes)];
        f.timeHours = !faults.empty() && rng.below(5) == 0
                          ? faults[rng.below(faults.size())].timeHours
                          : arrivalTime(rng, scrub, rng.below(periods));
        f.group = static_cast<int>(rng.below(groups));
        f.device = static_cast<int>(
            rng.below(std::min(devicesPerGroup, 3)));
        f.bank = static_cast<int>(rng.below(2));
        f.row = static_cast<int>(rng.below(3));
        f.col = static_cast<int>(rng.below(3));
        faults.push_back(f);
    }
    // Arrival order; ties keep their insertion order, as the
    // sampler's do.
    std::stable_sort(faults.begin(), faults.end(),
                     [](const ConcreteFault &a, const ConcreteFault &b) {
                         return a.timeHours < b.timeHours;
                     });
    return faults;
}

TEST(OverlapScanProperty, FusedScanEqualsTheReferencePairLoop)
{
    Rng rng(0x6f7665726c6170ULL); // "overlap"
    Trial trial;
    // What the lists exercised, so a generator change cannot quietly
    // stop reaching a branch.
    std::uint64_t lane_lane_window_pairs = 0;
    std::uint64_t lane_pairs_past_window = 0;
    std::uint64_t grouped_sdc = 0;
    int lists = 0;
    for (int round = 0; round < 1500; ++round) {
        const int groups = 1 << rng.below(4); // 1, 2, 4, 8
        const int devices_per_group = 72 / groups;
        const double scrub = rng.below(2) == 0 ? 4.0 : 3.7;
        const std::uint64_t lane_choice[] = {0, 1, 2 + rng.below(5)};
        const std::uint64_t lanes = lane_choice[round % 3];
        trial.faults = randomFaults(rng, groups, devices_per_group,
                                    scrub, lanes);
        const OverlapPairs want = referencePairs(trial.faults, scrub);
        const OverlapPairs got = countOverlapPairs(trial, scrub);
        ASSERT_EQ(got.due, want.due)
            << "round " << round << ", " << trial.faults.size()
            << " faults, " << lanes << " lanes, " << groups << " groups";
        ASSERT_EQ(got.sdc, want.sdc)
            << "round " << round << ", " << trial.faults.size()
            << " faults, " << lanes << " lanes, " << groups << " groups";
        ++lists;

        for (std::size_t i = 0; i < trial.faults.size(); ++i) {
            const ConcreteFault &a = trial.faults[i];
            const double detect =
                (std::floor(a.timeHours / scrub) + 1.0) * scrub;
            for (std::size_t j = i + 1; j < trial.faults.size(); ++j) {
                const ConcreteFault &b = trial.faults[j];
                const bool inside = b.timeHours < detect;
                const bool lane = a.type == FaultType::Lane ||
                                  b.type == FaultType::Lane;
                lane_lane_window_pairs += inside &&
                                          a.type == FaultType::Lane &&
                                          b.type == FaultType::Lane;
                lane_pairs_past_window += lane && !inside;
                grouped_sdc += !lane && inside && faultsOverlap(a, b);
            }
        }
    }
    EXPECT_EQ(lists, 1500);
    EXPECT_GT(lane_lane_window_pairs, 1000u);
    EXPECT_GT(lane_pairs_past_window, 10000u);
    EXPECT_GT(grouped_sdc, 1000u);
}

TEST(OverlapScanProperty, KernelTrialsMatchTheReferenceAtEveryGrouping)
{
    // Drawn trials at a boost where a lifetime holds ~360 faults and
    // ~1.9 lane faults, through one Trial for all four groupings.
    const DomainGeometry geom;
    const FaultRates rates = FaultRates::fieldStudy().scaled(2000.0);
    const double hours = 5 * kHoursPerYear;
    Trial trial;
    for (int devices_per_group : {72, 36, 18, 9}) {
        SCOPED_TRACE(std::to_string(devices_per_group) +
                     " devices per group");
        const TrialKernel kernel(geom, rates, hours, 20130223,
                                 {devices_per_group, 8192, 1024});
        std::uint64_t lane_faults = 0;
        for (std::uint64_t t = 0; t < 24; ++t) {
            kernel.draw(t, trial);
            for (const ConcreteFault &f : trial.faults)
                lane_faults += f.type == FaultType::Lane;
            const OverlapPairs want = referencePairs(trial.faults, 4.0);
            const OverlapPairs got = countOverlapPairs(trial, 4.0);
            EXPECT_EQ(got.due, want.due) << "trial " << t;
            EXPECT_EQ(got.sdc, want.sdc) << "trial " << t;
        }
        EXPECT_GT(lane_faults, 10u);
    }
}

} // namespace
} // namespace arcc
