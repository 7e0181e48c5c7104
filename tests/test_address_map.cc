/**
 * @file
 * Address-map tests: bijectivity, the channel-alternation property
 * ARCC depends on, and the page geometry behind Table 7.4.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "common/units.hh"
#include "dram/address_map.hh"

namespace arcc
{
namespace
{

struct MapCase
{
    const char *config;
    MapPolicy policy;
};

/**
 * arccConfig() at 3 channels x 3 ranks with 3 pages per row: 9 GiB
 * with 64 lines per row slice.  The channel and rank counts are not
 * powers of two, so a decode by shifts and masks would go wrong here.
 */
MemoryConfig
arccConfig3x3()
{
    MemoryConfig cfg = arccConfig();
    cfg.pagesPerRow = 3;
    cfg = withChannels(cfg, 3);
    cfg.ranksPerChannel = 3;
    return cfg;
}

MemoryConfig
configByName(const std::string &name)
{
    if (name == "baseline")
        return baselineConfig();
    if (name == "arcc")
        return arccConfig();
    if (name == "arcc4")
        return arccConfig4();
    if (name == "arcc8")
        return arccConfig8();
    if (name == "lot9")
        return lotEcc9Config();
    return arccConfig3x3();
}

/** The division-based decode AddressMap::decode replaced: peel each
 *  field off the line index with % and /, in the policy's order. */
DramCoord
referenceDecode(const MemoryConfig &cfg, MapPolicy policy,
                const AddressMap &map, std::uint64_t addr)
{
    std::uint64_t line = addr / kLineBytes;
    auto take = [&line](std::uint64_t count) {
        std::uint64_t v = line % count;
        line /= count;
        return v;
    };
    const std::uint64_t channels = cfg.channels;
    const std::uint64_t ranks = cfg.ranksPerChannel;
    const std::uint64_t banks = cfg.device.banks;
    DramCoord c;
    switch (policy) {
      case MapPolicy::HiPerf:
        c.channel = static_cast<int>(take(channels));
        c.column = static_cast<std::uint32_t>(take(map.linesPerRow()));
        c.bank = static_cast<int>(take(banks));
        c.rank = static_cast<int>(take(ranks));
        break;
      case MapPolicy::ClosePage:
        c.channel = static_cast<int>(take(channels));
        c.column = static_cast<std::uint32_t>(take(map.linesPerRow()));
        c.rank = static_cast<int>(take(ranks));
        c.bank = static_cast<int>(take(banks));
        break;
      case MapPolicy::Base:
        c.column = static_cast<std::uint32_t>(take(map.linesPerRow()));
        c.channel = static_cast<int>(take(channels));
        c.bank = static_cast<int>(take(banks));
        c.rank = static_cast<int>(take(ranks));
        break;
    }
    c.row = static_cast<std::uint32_t>(take(map.rows()));
    return c;
}

class MapSweep : public ::testing::TestWithParam<MapCase>
{
};

TEST_P(MapSweep, DecodeEncodeRoundTripsOnRandomAddresses)
{
    MemoryConfig cfg = configByName(GetParam().config);
    AddressMap map(cfg, GetParam().policy);
    Rng rng(1);
    for (int t = 0; t < 5000; ++t) {
        std::uint64_t addr =
            (rng.below(map.capacity() / kLineBytes)) * kLineBytes;
        DramCoord c = map.decode(addr);
        EXPECT_EQ(map.encode(c), addr);
        EXPECT_EQ(c, referenceDecode(cfg, GetParam().policy, map, addr));
    }
    // Both ends of the map, where an off-by-one reciprocal shows first.
    const std::uint64_t last = map.capacity() - kLineBytes;
    for (std::uint64_t addr : {std::uint64_t{0}, kLineBytes + 1,
                               last - kLineBytes, last + kLineBytes - 1}) {
        DramCoord c = map.decode(addr);
        EXPECT_EQ(map.encode(c), addr & ~(kLineBytes - 1));
        EXPECT_EQ(c, referenceDecode(cfg, GetParam().policy, map, addr));
    }
}

TEST_P(MapSweep, CoordinatesStayInRange)
{
    MemoryConfig cfg = configByName(GetParam().config);
    AddressMap map(cfg, GetParam().policy);
    Rng rng(2);
    for (int t = 0; t < 5000; ++t) {
        std::uint64_t addr =
            (rng.below(map.capacity() / kLineBytes)) * kLineBytes;
        DramCoord c = map.decode(addr);
        EXPECT_LT(c.channel, cfg.channels);
        EXPECT_LT(c.rank, cfg.ranksPerChannel);
        EXPECT_LT(c.bank, cfg.device.banks);
        EXPECT_LT(c.column, map.linesPerRow());
        EXPECT_LT(c.row, map.rows());
    }
}

TEST_P(MapSweep, DistinctCoordinatesForDistinctLines)
{
    MemoryConfig cfg = configByName(GetParam().config);
    AddressMap map(cfg, GetParam().policy);
    std::set<std::tuple<int, int, int, std::uint32_t, std::uint32_t>>
        seen;
    // Walk a contiguous region; every line must land somewhere unique.
    for (std::uint64_t line = 0; line < 4096; ++line) {
        DramCoord c = map.decode(line * kLineBytes);
        auto key = std::make_tuple(c.channel, c.rank, c.bank, c.row,
                                   c.column);
        EXPECT_TRUE(seen.insert(key).second) << "line " << line;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigsAllPolicies, MapSweep,
    ::testing::Values(MapCase{"baseline", MapPolicy::HiPerf},
                      MapCase{"baseline", MapPolicy::ClosePage},
                      MapCase{"baseline", MapPolicy::Base},
                      MapCase{"arcc", MapPolicy::HiPerf},
                      MapCase{"arcc", MapPolicy::ClosePage},
                      MapCase{"arcc", MapPolicy::Base},
                      MapCase{"arcc4", MapPolicy::HiPerf},
                      MapCase{"arcc4", MapPolicy::ClosePage},
                      MapCase{"arcc8", MapPolicy::HiPerf},
                      MapCase{"arcc8", MapPolicy::Base},
                      MapCase{"lot9", MapPolicy::HiPerf},
                      MapCase{"arcc3x3", MapPolicy::HiPerf},
                      MapCase{"arcc3x3", MapPolicy::ClosePage},
                      MapCase{"arcc3x3", MapPolicy::Base}),
    [](const ::testing::TestParamInfo<MapCase> &info) {
        std::string policy =
            info.param.policy == MapPolicy::HiPerf      ? "HiPerf"
            : info.param.policy == MapPolicy::ClosePage ? "ClosePage"
                                                        : "Base";
        return std::string(info.param.config) + "_" + policy;
    });

TEST(AddressMap, AdjacentLinesAlternateChannelsUnderHiPerf)
{
    // Section 4.1: the two 64B sub-lines of an upgraded 128B line must
    // live in different channels at otherwise identical coordinates.
    AddressMap map(arccConfig(), MapPolicy::HiPerf);
    Rng rng(3);
    for (int t = 0; t < 2000; ++t) {
        std::uint64_t pair_base =
            (rng.below(map.capacity() / kUpgradedLineBytes)) *
            kUpgradedLineBytes;
        DramCoord a = map.decode(pair_base);
        DramCoord b = map.decode(pair_base + kLineBytes);
        EXPECT_NE(a.channel, b.channel);
        EXPECT_EQ(a.rank, b.rank);
        EXPECT_EQ(a.bank, b.bank);
        EXPECT_EQ(a.row, b.row);
        EXPECT_EQ(a.column, b.column);
    }
}

TEST(AddressMap, PairsSpanAdjacentEvenOddChannelsOnWideConfigs)
{
    // The property ChannelShardPlan's probe discovers: under the
    // interleaved maps a 128B pair always spans channels {2k, 2k+1},
    // so the plan can shard a 2N-channel system into N pairable
    // groups (and N*2 clean-traffic groups) instead of one.
    for (int channels : {4, 8}) {
        SCOPED_TRACE("channels=" + std::to_string(channels));
        AddressMap map(withChannels(arccConfig(), channels),
                       MapPolicy::HiPerf);
        Rng rng(4);
        for (int t = 0; t < 2000; ++t) {
            std::uint64_t pair_base =
                (rng.below(map.capacity() / kUpgradedLineBytes)) *
                kUpgradedLineBytes;
            DramCoord a = map.decode(pair_base);
            DramCoord b = map.decode(pair_base + kLineBytes);
            EXPECT_EQ(a.channel % 2, 0);
            EXPECT_EQ(b.channel, a.channel + 1);
        }
    }
}

TEST(AddressMap, PageIsContainedInOneRankBankRowHalf)
{
    // Table 7.4's fractions need every 4KB page to live in a single
    // (rank, bank, row, half-row) at all (channel, column) positions.
    AddressMap map(arccConfig(), MapPolicy::HiPerf);
    Rng rng(4);
    std::uint64_t pages = map.capacity() / kPageBytes;
    for (int t = 0; t < 200; ++t) {
        std::uint64_t page = rng.below(pages);
        DramCoord first = map.decode(page * kPageBytes);
        bool first_half = first.column < map.linesPerRow() / 2;
        for (std::uint64_t l = 0; l < kLinesPerPage; ++l) {
            DramCoord c =
                map.decode(page * kPageBytes + l * kLineBytes);
            EXPECT_EQ(c.rank, first.rank);
            EXPECT_EQ(c.bank, first.bank);
            EXPECT_EQ(c.row, first.row);
            EXPECT_EQ(c.column < map.linesPerRow() / 2, first_half);
        }
    }
}

TEST(AddressMap, PageSpreadsAcrossAllChannels)
{
    AddressMap map(arccConfig(), MapPolicy::HiPerf);
    std::set<int> channels;
    for (std::uint64_t l = 0; l < kLinesPerPage; ++l)
        channels.insert(map.decode(l * kLineBytes).channel);
    EXPECT_EQ(static_cast<int>(channels.size()),
              arccConfig().channels);
}

TEST(AddressMap, TwoPagesPerRowAsThePaperAssumes)
{
    // Section 7.1: two 4KB pages per row.  Count distinct pages whose
    // lines map to row 0 / bank 0 / rank 0.
    MemoryConfig cfg = arccConfig();
    AddressMap map(cfg, MapPolicy::HiPerf);
    std::set<std::uint64_t> pages;
    for (std::uint64_t addr = 0; addr < map.capacity();
         addr += kLineBytes) {
        DramCoord c = map.decode(addr);
        if (c.row == 0 && c.bank == 0 && c.rank == 0)
            pages.insert(addr / kPageBytes);
        if (addr > 64 * kPageBytes)
            break; // the first rows are enough.
    }
    EXPECT_EQ(pages.size(), static_cast<std::size_t>(cfg.pagesPerRow));
}

TEST(AddressMap, CapacityMatchesConfig)
{
    for (const char *name : {"baseline", "arcc", "lot9"}) {
        MemoryConfig cfg = configByName(name);
        AddressMap map(cfg, MapPolicy::HiPerf);
        EXPECT_EQ(map.capacity(), cfg.dataBytes()) << name;
    }
    // Both Table 7.1 configs are 4 GB of data.
    EXPECT_EQ(baselineConfig().dataBytes(), 4 * kGiB);
    EXPECT_EQ(arccConfig().dataBytes(), 4 * kGiB);
}

} // namespace
} // namespace arcc
