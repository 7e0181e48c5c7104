/**
 * @file
 * DRAM channel state: ChannelSet, the memory system's one front
 * door, and ChannelShardPlan, a partition of the channels into groups
 * that no access crosses.
 *
 *  - ChannelSet owns the MemChannel timing/power state for a set of
 *    the system's channels -- all of them (the system simulator), or
 *    one shard's group -- and carries the paired (upgraded 128B)
 *    lockstep-issue logic.  Callers decode addresses with their own
 *    AddressMap.
 *
 *  - ChannelShardPlan partitions the channel ids into shard groups
 *    such that every access -- including a paired access, whose two
 *    sub-lines land in two different channels under the interleaved
 *    maps -- touches channels of exactly one group.  The partition is
 *    a pure function of the AddressMap and the "can upgraded traffic
 *    occur" flag, never of the thread count, so it is a legal shard
 *    boundary under the engine's determinism contract (see
 *    docs/ARCHITECTURE.md).
 */

#ifndef ARCC_DRAM_CHANNEL_SHARD_HH
#define ARCC_DRAM_CHANNEL_SHARD_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "dram/mem_controller.hh"

namespace arcc
{

/**
 * The DRAM timing and power state of a disjoint set of channels.
 *
 * A ChannelSet accepts pre-decoded coordinates (the caller owns the
 * AddressMap) whose channel ids must belong to the set.  Each
 * channel's arrival times must be non-decreasing across calls, as
 * MemChannel's reservation model requires; the set asserts it.  A set
 * is single-threaded: callers that shard traffic across threads give
 * each shard its own set over a disjoint group of channels.
 */
class ChannelSet
{
  public:
    /**
     * @param config   memory configuration; must outlive the set.
     * @param ctrl     controller knobs (queue depth, pairing policy).
     * @param channels global channel ids this set owns.
     */
    ChannelSet(const MemoryConfig &config, const ControllerConfig &ctrl,
               std::vector<int> channels);

    /** @return true when this set owns the given global channel id. */
    bool owns(int channel) const;

    /**
     * Issue one unpaired 64B access at pre-decoded coordinates.
     * @return data-ready time (ns).
     */
    double access(double now, const DramCoord &coord, bool is_write);

    /**
     * Issue one upgraded 128B access: sub-lines `a` and `b` issue in
     * lockstep when they live in two channels (both must be owned by
     * this set), or back to back when a non-interleaving map puts
     * them in the same channel.
     * @return data-ready time of the later sub-line (ns).
     */
    double accessPaired(double now, const DramCoord &a,
                        const DramCoord &b, bool is_write);

    /** Account background + refresh energy up to endTime; call once. */
    void finalize(double endTime);

    /** Summed power breakdown of the owned channels (in channel-id
     *  order, so the floating-point sum is reproducible). */
    PowerBreakdown breakdown() const;

    /** Total accesses committed across the owned channels. */
    std::uint64_t accesses() const;

    /** The owned global channel ids, ascending. */
    const std::vector<int> &channels() const { return ids_; }

  private:
    /** The owned channel `id`, after asserting that `now` is not
     *  earlier than that channel's previous arrival. */
    MemChannel &arrive(int id, double now);

    const MemoryConfig &config_;
    std::vector<int> ids_;
    /** Dense lookup: global channel id -> index into channels_, or -1. */
    std::vector<int> index_;
    std::vector<std::unique_ptr<MemChannel>> channels_;
    /** Latest arrival per owned channel, indexed like channels_. */
    std::vector<double> lastArrival_;
};

/**
 * Deterministic partition of the channel ids into shard groups.
 *
 * Two channels share a group iff a paired access can span them, which
 * is probed directly from the AddressMap: for every 128B-aligned pair
 * the channels of the two sub-lines are unioned.  Under the
 * interleaved maps (HiPerf, ClosePage) this yields {2k, 2k+1} pairs;
 * under the Base map sub-lines share a channel and every group is a
 * singleton.  When `pairable` is false (the upgrade oracle can never
 * upgrade a page, so no paired traffic exists) the plan skips the
 * union and shards per channel.
 *
 * Group boundaries depend only on (map, pairable) -- never on the
 * thread count -- and groups are emitted in ascending order of their
 * lowest channel id, so a shard-order merge over the plan is
 * bit-identical at any thread count.
 */
class ChannelShardPlan
{
  public:
    ChannelShardPlan(const AddressMap &map, bool pairable);

    /** Number of shard groups (== the back-end's shard count). */
    std::size_t groups() const { return groups_.size(); }

    /** Global channel ids of group `g`, ascending. */
    const std::vector<int> &group(std::size_t g) const
    {
        return groups_[g];
    }

    /** Group index owning the given global channel id. */
    int groupOf(int channel) const { return groupOf_[channel]; }

  private:
    std::vector<std::vector<int>> groups_;
    std::vector<int> groupOf_;
};

} // namespace arcc

#endif // ARCC_DRAM_CHANNEL_SHARD_HH
