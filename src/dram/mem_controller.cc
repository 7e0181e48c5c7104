/**
 * @file
 * Channel timing / power model implementation.
 */

#include "dram/mem_controller.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"

namespace arcc
{

MemChannel::MemChannel(const MemoryConfig &config,
                       const ControllerConfig &ctrl)
    : config_(config),
      ctrl_(ctrl),
      dev_(config.device),
      banks_(config.device.banks),
      ranks_(config.ranksPerChannel),
      bankFree_(static_cast<std::size_t>(banks_) * ranks_, 0.0),
      rankActReady_(ranks_, 0.0),
      rankState_(ranks_)
{
}

double
MemChannel::admissionTime(double arrival) const
{
    std::size_t depth = static_cast<std::size_t>(ctrl_.queueDepth);
    if (outstanding_.size() < depth)
        return arrival;
    // The request must wait until enough older requests drain that a
    // queue slot frees up.
    double frees = outstanding_[outstanding_.size() - depth];
    return std::max(arrival, frees);
}

void
MemChannel::noteOutstanding(double completion)
{
    outstanding_.push_back(completion);
    // Bound memory: drop entries that can no longer matter.
    std::size_t depth = static_cast<std::size_t>(ctrl_.queueDepth);
    while (outstanding_.size() > 4 * depth)
        outstanding_.pop_front();
}

double
MemChannel::earliestIssue(double arrival, const DramCoord &coord,
                          bool paired) const
{
    double t = admissionTime(arrival);
    const std::size_t bank_idx =
        static_cast<std::size_t>(coord.rank) * banks_ + coord.bank;
    t = std::max(t, bankFree_[bank_idx]);
    t = std::max(t, rankActReady_[coord.rank]);
    if (paired && ctrl_.pairing == PairingPolicy::FifoPartition) {
        // Strict FIFO sub-line queue: no bypassing earlier issues.
        t = std::max(t, lastIssue_);
    }
    return t;
}

void
MemChannel::accountActivity(RankState &rank, double start, double end)
{
    if (start > rank.accountedTo) {
        double gap = start - rank.accountedTo;
        if (ctrl_.enablePowerDown && gap > ctrl_.powerDownThresholdNs) {
            rank.standbyTime += ctrl_.powerDownThresholdNs;
            rank.powerDownTime += gap - ctrl_.powerDownThresholdNs;
        } else {
            rank.standbyTime += gap;
        }
        rank.accountedTo = start;
    }
    if (end > rank.accountedTo) {
        rank.activeTime += end - rank.accountedTo;
        rank.accountedTo = end;
    }
}

MemResponse
MemChannel::commit(double issue, const DramCoord &coord, bool is_write,
                   int devicesTouched)
{
    const double tck = dev_.tCK;
    const double t_rcd = dev_.tRCD * tck;
    const double t_cl = dev_.clCycles * tck;
    const double t_cwl = (dev_.clCycles - 1) * tck; // DDR2: CWL = CL-1
    const double t_burst = dev_.burstCycles() * tck;
    const double t_rc = dev_.tRC * tck;
    const double t_rrd = dev_.tRRD * tck;
    const double t_wr = dev_.tWR * tck;
    const double t_rp = dev_.tRP * tck;
    const double t_wtr = dev_.tWTR * tck;

    const double cas_offset = t_rcd + (is_write ? t_cwl : t_cl);

    // Bus constraint, plus turnaround when the direction flips.
    double bus_ready = busFree_;
    if (accesses_ > 0 && lastWasWrite_ != is_write)
        bus_ready += t_wtr;
    double data_start = std::max(issue + cas_offset, bus_ready);
    // If the bus forced a delay, hold the ACT back so the row is not
    // sitting open longer than needed (closed-page controllers chain
    // ACT->CAS->PRE back to back).
    double eff_issue = data_start - cas_offset;
    double completion = data_start + t_burst;

    const std::size_t bank_idx =
        static_cast<std::size_t>(coord.rank) * banks_ + coord.bank;
    double bank_busy_until = eff_issue + t_rc;
    if (is_write) {
        bank_busy_until =
            std::max(bank_busy_until, completion + t_wr + t_rp);
    }
    bankFree_[bank_idx] = bank_busy_until;
    rankActReady_[coord.rank] = eff_issue + t_rrd;
    lastIssue_ = std::max(lastIssue_, eff_issue);
    busFree_ = completion;
    lastWasWrite_ = is_write;

    // Power: the rank's devices are in active standby while the bank
    // cycles; all devices of the rank pay background, only the accessed
    // devices pay ACT/PRE + burst energy.
    accountActivity(rankState_[coord.rank], eff_issue, bank_busy_until);
    double e_dyn = dev_.actPreEnergy() +
                   (is_write ? dev_.writeBurstEnergy()
                             : dev_.readBurstEnergy());
    power_.dynamicNj += e_dyn * devicesTouched;

    noteOutstanding(completion);
    ++accesses_;

    MemResponse resp;
    resp.issueTime = eff_issue;
    resp.completion = completion;
    return resp;
}

MemResponse
MemChannel::schedule(double arrival, const DramCoord &coord,
                     bool is_write, int devicesTouched)
{
    double t = earliestIssue(arrival, coord, /*paired=*/false);
    return commit(t, coord, is_write, devicesTouched);
}

void
MemChannel::finalize(double endTime)
{
    for (int r = 0; r < ranks_; ++r) {
        RankState &rank = rankState_[r];
        if (endTime > rank.accountedTo) {
            double gap = endTime - rank.accountedTo;
            if (ctrl_.enablePowerDown &&
                gap > ctrl_.powerDownThresholdNs) {
                rank.standbyTime += ctrl_.powerDownThresholdNs;
                rank.powerDownTime += gap - ctrl_.powerDownThresholdNs;
            } else {
                rank.standbyTime += gap;
            }
            rank.accountedTo = endTime;
        }
        // mW * ns = pJ; divide by 1e3 for nJ.
        double nj = (rank.activeTime * dev_.pActiveStandby() +
                     rank.standbyTime * dev_.pPrechargeStandby() +
                     rank.powerDownTime * dev_.pPowerDown()) *
                    1e-3 * config_.devicesPerRank;
        power_.backgroundNj += nj;
    }
    // Refresh: every device refreshes every tREFI regardless of state.
    double refreshes = endTime / dev_.tREFI;
    power_.refreshNj += refreshes * dev_.refreshEnergy() *
                        config_.devicesPerRank * ranks_;
}

} // namespace arcc
