/**
 * @file
 * Closed-page DDR2 memory channel timing and power model.  Callers
 * decode addresses with an AddressMap (dram/address_map.hh) and drive
 * the channels through a ChannelSet (dram/channel_shard.hh).
 *
 * The model is a reservation-based FCFS simulator: each channel's
 * requests must be presented in non-decreasing arrival-time order
 * (ChannelSet asserts this) and each request immediately reserves the
 * earliest feasible ACT slot on its bank and data-burst slot on the
 * channel bus, honouring tRC, tRRD, tRCD, CL/CWL, bus occupancy,
 * read/write turnaround, and a bounded request queue.  With a closed-page policy
 * and in-order issue this reproduces event-driven results exactly.
 *
 * Upgraded (128B) ARCC lines are *paired* accesses: the two 64B
 * sub-lines live at the same coordinates of the two channels
 * (Section 4.1) and must issue in lockstep (Section 4.2.4).  Both
 * pairing designs from the paper are modelled:
 *
 *  - PairingPolicy::FifoPartition -- the sub-line queue is a strict
 *    FIFO; a paired request cannot bypass any earlier request, so its
 *    issue serialises behind the youngest issue in both channels.
 *  - PairingPolicy::Pointer -- the partner entry is promoted to the
 *    head of the other channel's queue, so only physical resource
 *    availability constrains the lockstep issue.
 *
 * Power follows the Micron power-calculator formulation: per-access
 * ACT/PRE and burst energies, state-dependent background power with
 * optional precharge power-down, and refresh energy.
 */

#ifndef ARCC_DRAM_MEM_CONTROLLER_HH
#define ARCC_DRAM_MEM_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "dram/address_map.hh"
#include "dram/dram_params.hh"

namespace arcc
{

/** Lockstep coordination design for upgraded sub-lines (Sec 4.2.4). */
enum class PairingPolicy
{
    FifoPartition,
    Pointer,
};

/** Controller knobs. */
struct ControllerConfig
{
    /** Per-channel request queue capacity (>= 1). */
    int queueDepth = 32;
    /** Enter precharge power-down after this much rank idle time (ns). */
    double powerDownThresholdNs = 100.0;
    /** Model power-down at all. */
    bool enablePowerDown = true;
    PairingPolicy pairing = PairingPolicy::Pointer;
};

/** Timing outcome of one access. */
struct MemResponse
{
    double issueTime = 0.0;  ///< ACT issue (ns).
    double completion = 0.0; ///< data burst finished (ns).
};

/** Energy breakdown for reporting (nJ). */
struct PowerBreakdown
{
    double dynamicNj = 0.0;
    double backgroundNj = 0.0;
    double refreshNj = 0.0;
    double totalNj() const
    {
        return dynamicNj + backgroundNj + refreshNj;
    }
    /** Average power in mW over the given wall time (ns). */
    double
    avgPowerMw(double elapsed_ns) const
    {
        return elapsed_ns > 0 ? totalNj() / elapsed_ns * 1e3 : 0.0;
    }
};

/**
 * One DDR2 channel: banks, data bus, request queue and per-rank power
 * state tracking.
 */
class MemChannel
{
  public:
    /** fatal() when ctrl.queueDepth < 1. */
    MemChannel(const MemoryConfig &config, const ControllerConfig &ctrl);

    /**
     * Earliest feasible ACT time for a request arriving at `arrival`
     * for the given coordinates, without committing any state.
     */
    double earliestIssue(double arrival, const DramCoord &coord,
                         bool paired) const;

    /**
     * Commit a request with ACT at `issue` (must be >= the value
     * earliestIssue returned for the same request).
     * @param devicesTouched devices consuming ACT + burst energy.
     */
    MemResponse commit(double issue, const DramCoord &coord,
                       bool is_write, int devicesTouched);

    /**
     * Convenience: schedule an unpaired request arriving at `arrival`.
     */
    MemResponse schedule(double arrival, const DramCoord &coord,
                         bool is_write, int devicesTouched);

    /** Account background + refresh energy up to endTime. */
    void finalize(double endTime);

    /** Energy accumulated so far (valid after finalize). */
    const PowerBreakdown &breakdown() const { return power_; }

    /** Number of accesses committed. */
    std::uint64_t accesses() const { return accesses_; }

    /** Arrival adjusted for queue backpressure. */
    double admissionTime(double arrival) const;

    /** Record an admitted request for queue occupancy tracking. */
    void noteOutstanding(double completion);

  private:
    struct RankState
    {
        /** End of the merged "some bank active" window. */
        double activeEnd = 0.0;
        /** Accumulated active (IDD3N) time. */
        double activeTime = 0.0;
        /** Accumulated precharge-standby (IDD2N) time. */
        double standbyTime = 0.0;
        /** Accumulated power-down (IDD2P) time. */
        double powerDownTime = 0.0;
        /** Time fully accounted so far. */
        double accountedTo = 0.0;
    };

    /** Merge [start, end) into the rank's active-window accounting. */
    void accountActivity(RankState &rank, double start, double end);

    const MemoryConfig &config_;
    ControllerConfig ctrl_;
    const DeviceParams &dev_;

    int banks_;
    int ranks_;

    /** Device timings in ns, fixed at construction. */
    double tBurst_ = 0.0;
    double tRc_ = 0.0;
    double tRrd_ = 0.0;
    double tWr_ = 0.0;
    double tRp_ = 0.0;
    double tWtr_ = 0.0;
    /** ACT-to-data offset (tRCD + CL or CWL), indexed by is_write. */
    double casOffset_[2] = {};
    /** Per-device ACT/PRE + burst energy (nJ), indexed by is_write. */
    double accessNj_[2] = {};

    /** bankFree_[rank * banks_ + bank]: earliest next ACT. */
    std::vector<double> bankFree_;
    /** Per-rank earliest next ACT honouring tRRD. */
    std::vector<double> rankActReady_;
    std::vector<RankState> rankState_;

    double busFree_ = 0.0;
    bool lastWasWrite_ = false;
    /** Youngest committed ACT time (for FIFO-partition pairing). */
    double lastIssue_ = 0.0;

    /** Completions of the last queueDepth requests, a ring whose
     *  oldest entry is at recentNext_; -inf marks an unused slot, so
     *  a queue that never filled delays no admission. */
    std::vector<double> recent_;
    std::size_t recentNext_ = 0;

    PowerBreakdown power_;
    std::uint64_t accesses_ = 0;
};

} // namespace arcc

#endif // ARCC_DRAM_MEM_CONTROLLER_HH
