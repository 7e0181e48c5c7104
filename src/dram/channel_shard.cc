/**
 * @file
 * ChannelSet / ChannelShardPlan implementation.
 */

#include "dram/channel_shard.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "common/units.hh"

namespace arcc
{

ChannelSet::ChannelSet(const MemoryConfig &config,
                       const ControllerConfig &ctrl,
                       std::vector<int> channels)
    : config_(config), ids_(std::move(channels)),
      index_(config.channels, -1), lastArrival_(ids_.size(), 0.0)
{
    std::sort(ids_.begin(), ids_.end());
    for (std::size_t i = 0; i < ids_.size(); ++i) {
        int id = ids_[i];
        ARCC_ASSERT(id >= 0 && id < config.channels);
        index_[id] = static_cast<int>(i);
        channels_.push_back(std::make_unique<MemChannel>(config, ctrl));
    }
}

bool
ChannelSet::owns(int channel) const
{
    return channel >= 0 &&
           channel < static_cast<int>(index_.size()) &&
           index_[channel] >= 0;
}

MemChannel &
ChannelSet::arrive(int id, double now)
{
    ARCC_ASSERT(owns(id));
    double &last = lastArrival_[index_[id]];
    ARCC_ASSERT_MSG(now >= last,
                    "channel %d: arrival %.3f ns after one at %.3f ns",
                    id, now, last);
    last = now;
    return *channels_[index_[id]];
}

double
ChannelSet::access(double now, const DramCoord &coord, bool is_write)
{
    MemResponse r = arrive(coord.channel, now)
                        .schedule(now, coord, is_write,
                                  config_.devicesPerAccess);
    return r.completion;
}

double
ChannelSet::accessPaired(double now, const DramCoord &a,
                         const DramCoord &b, bool is_write)
{
    if (a.channel == b.channel) {
        // A mapping without channel interleaving (e.g. the Base map)
        // cannot fetch the pair in parallel; the 128B line costs two
        // sequential accesses on the one channel, which is exactly why
        // Section 4.1 requires the interleaved maps.
        MemChannel &ch = arrive(a.channel, now);
        MemResponse r1 =
            ch.schedule(now, a, is_write, config_.devicesPerAccess);
        MemResponse r2 =
            ch.schedule(now, b, is_write, config_.devicesPerAccess);
        return std::max(r1.completion, r2.completion);
    }

    // The two sub-lines issue in lockstep (Section 4.2.4): a common
    // ACT time no earlier than either channel allows.
    MemChannel &cha = arrive(a.channel, now);
    MemChannel &chb = arrive(b.channel, now);
    double t = std::max(cha.earliestIssue(now, a, true),
                        chb.earliestIssue(now, b, true));
    MemResponse ra =
        cha.commit(t, a, is_write, config_.devicesPerAccess);
    MemResponse rb =
        chb.commit(t, b, is_write, config_.devicesPerAccess);
    return std::max(ra.completion, rb.completion);
}

void
ChannelSet::finalize(double endTime)
{
    for (auto &ch : channels_)
        ch->finalize(endTime);
}

PowerBreakdown
ChannelSet::breakdown() const
{
    PowerBreakdown total;
    for (const auto &ch : channels_) {
        total.dynamicNj += ch->breakdown().dynamicNj;
        total.backgroundNj += ch->breakdown().backgroundNj;
        total.refreshNj += ch->breakdown().refreshNj;
    }
    return total;
}

std::uint64_t
ChannelSet::accesses() const
{
    std::uint64_t n = 0;
    for (const auto &ch : channels_)
        n += ch->accesses();
    return n;
}

ChannelShardPlan::ChannelShardPlan(const AddressMap &map, bool pairable)
{
    const int n = map.channels();
    std::vector<int> parent(n);
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&](int c) {
        while (parent[c] != c)
            c = parent[c] = parent[parent[c]];
        return c;
    };

    if (pairable) {
        // Probe the map directly: union the channels of the two
        // sub-lines of each 128B pair.  All three policies derive the
        // channel from low line-index bits, so a small prefix of the
        // address space visits every (pair -> channel) relation; the
        // probe is still capped by capacity for tiny configurations.
        std::uint64_t pairs =
            std::min<std::uint64_t>(map.capacity() /
                                        kUpgradedLineBytes,
                                    4096);
        for (std::uint64_t p = 0; p < pairs; ++p) {
            std::uint64_t base = p * kUpgradedLineBytes;
            int a = map.decode(base).channel;
            int b = map.decode(base + kLineBytes).channel;
            int ra = find(a);
            int rb = find(b);
            if (ra != rb)
                parent[std::max(ra, rb)] = std::min(ra, rb);
        }
    }

    // Emit groups in ascending order of their lowest channel id: the
    // root of each union is its minimum member, so walking the
    // channels in order lists the groups deterministically.
    groupOf_.assign(n, -1);
    for (int c = 0; c < n; ++c) {
        int root = find(c);
        if (groupOf_[root] < 0) {
            groupOf_[root] = static_cast<int>(groups_.size());
            groups_.emplace_back();
        }
        groupOf_[c] = groupOf_[root];
        groups_[groupOf_[c]].push_back(c);
    }
}

} // namespace arcc
