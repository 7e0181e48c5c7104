/**
 * @file
 * Channel timing / power model implementation.
 */

#include "dram/mem_controller.hh"

#include <algorithm>
#include <limits>

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
    if (ctrl.queueDepth < 1)
        fatal("MemChannel: queueDepth must be >= 1, got %d",
              ctrl.queueDepth);
    recent_.assign(static_cast<std::size_t>(ctrl.queueDepth),
                   -std::numeric_limits<double>::infinity());

    const double tck = dev_.tCK;
    const double t_rcd = dev_.tRCD * tck;
    const double t_cl = dev_.clCycles * tck;
    const double t_cwl = (dev_.clCycles - 1) * tck; // DDR2: CWL = CL-1
    tBurst_ = dev_.burstCycles() * tck;
    tRc_ = dev_.tRC * tck;
    tRrd_ = dev_.tRRD * tck;
    tWr_ = dev_.tWR * tck;
    tRp_ = dev_.tRP * tck;
    tWtr_ = dev_.tWTR * tck;
    casOffset_[0] = t_rcd + t_cl;
    casOffset_[1] = t_rcd + t_cwl;
    accessNj_[0] = dev_.actPreEnergy() + dev_.readBurstEnergy();
    accessNj_[1] = dev_.actPreEnergy() + dev_.writeBurstEnergy();
}

double
MemChannel::admissionTime(double arrival) const
{
    // The request must wait until the queueDepth-th youngest request
    // drains and a queue slot frees up.
    return std::max(arrival, recent_[recentNext_]);
}

void
MemChannel::noteOutstanding(double completion)
{
    recent_[recentNext_] = completion;
    if (++recentNext_ == recent_.size())
        recentNext_ = 0;
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
    const double cas_offset = casOffset_[is_write];

    // Bus constraint, plus turnaround when the direction flips.
    double bus_ready = busFree_;
    if (accesses_ > 0 && lastWasWrite_ != is_write)
        bus_ready += tWtr_;
    double data_start = std::max(issue + cas_offset, bus_ready);
    // If the bus forced a delay, hold the ACT back so the row is not
    // sitting open longer than needed (closed-page controllers chain
    // ACT->CAS->PRE back to back).
    double eff_issue = data_start - cas_offset;
    double completion = data_start + tBurst_;

    const std::size_t bank_idx =
        static_cast<std::size_t>(coord.rank) * banks_ + coord.bank;
    double bank_busy_until = eff_issue + tRc_;
    if (is_write) {
        bank_busy_until =
            std::max(bank_busy_until, completion + tWr_ + tRp_);
    }
    bankFree_[bank_idx] = bank_busy_until;
    rankActReady_[coord.rank] = eff_issue + tRrd_;
    lastIssue_ = std::max(lastIssue_, eff_issue);
    busFree_ = completion;
    lastWasWrite_ = is_write;

    // Power: the rank's devices are in active standby while the bank
    // cycles; all devices of the rank pay background, only the accessed
    // devices pay ACT/PRE + burst energy.
    accountActivity(rankState_[coord.rank], eff_issue, bank_busy_until);
    power_.dynamicNj += accessNj_[is_write] * devicesTouched;

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
