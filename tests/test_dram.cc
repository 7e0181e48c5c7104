/**
 * @file
 * DRAM parameter, timing and power-model tests.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/units.hh"
#include "dram/channel_shard.hh"
#include "dram/dram_params.hh"

namespace arcc
{
namespace
{

TEST(DramParams, Table71Configurations)
{
    MemoryConfig base = baselineConfig();
    EXPECT_EQ(base.device.width, DeviceWidth::X4);
    EXPECT_EQ(base.channels, 2);
    EXPECT_EQ(base.ranksPerChannel, 1);
    EXPECT_EQ(base.devicesPerRank, 36);
    EXPECT_EQ(base.devicesPerAccess, 36);

    MemoryConfig ar = arccConfig();
    EXPECT_EQ(ar.device.width, DeviceWidth::X8);
    EXPECT_EQ(ar.channels, 2);
    EXPECT_EQ(ar.ranksPerChannel, 2);
    EXPECT_EQ(ar.devicesPerRank, 18);
    EXPECT_EQ(ar.devicesPerAccess, 18);

    // Same total devices and the same 128-bit data bus per channel.
    EXPECT_EQ(base.totalDevices(), ar.totalDevices());
    EXPECT_EQ(base.dataBusBits(), 128);
    EXPECT_EQ(ar.dataBusBits(), 128);
}

TEST(DramParams, StorageOverheadIs12Point5Percent)
{
    for (const MemoryConfig &c : {baselineConfig(), arccConfig()}) {
        double overhead =
            static_cast<double>(c.devicesPerRank -
                                c.dataDevicesPerRank) /
            c.dataDevicesPerRank;
        EXPECT_DOUBLE_EQ(overhead, 0.125) << c.name;
    }
}

TEST(DramParams, DeviceDensityMatchesGeometry)
{
    for (const DeviceParams &d : {ddr2_667_x4(), ddr2_667_x8()}) {
        std::uint64_t bits = static_cast<std::uint64_t>(d.banks) *
                             d.rowsPerBank * d.rowBytes * 8;
        EXPECT_EQ(bits, static_cast<std::uint64_t>(d.densityMbit) *
                            kMiB) << d.name;
    }
}

TEST(DramParams, EnergiesArePositiveAndOrdered)
{
    for (const DeviceParams &d : {ddr2_667_x4(), ddr2_667_x8()}) {
        EXPECT_GT(d.actPreEnergy(), 0.0);
        EXPECT_GT(d.readBurstEnergy(), 0.0);
        EXPECT_GT(d.writeBurstEnergy(), d.readBurstEnergy() * 0.5);
        EXPECT_GT(d.refreshEnergy(), 0.0);
        // Background power states are ordered: power-down < standby <
        // active standby.
        EXPECT_LT(d.pPowerDown(), d.pPrechargeStandby());
        EXPECT_LT(d.pPrechargeStandby(), d.pActiveStandby());
    }
}

TEST(DramParams, X8BurstEnergyExceedsX4)
{
    // Twice the DQ pins toggle.
    EXPECT_GT(ddr2_667_x8().readBurstEnergy(),
              ddr2_667_x4().readBurstEnergy());
}

// --- timing ------------------------------------------------------------

TEST(MemChannel, IdleReadLatencyIsActPlusCasPlusBurst)
{
    MemoryConfig cfg = arccConfig();
    ControllerConfig ctrl;
    MemChannel ch(cfg, ctrl);
    DramCoord coord{};
    MemResponse r = ch.schedule(0.0, coord, false, 18);
    const DeviceParams &d = cfg.device;
    double expect =
        (d.tRCD + d.clCycles + d.burstCycles()) * d.tCK;
    EXPECT_DOUBLE_EQ(r.completion, expect);
}

TEST(MemChannel, SameBankBackToBackSerialisesOnTrc)
{
    MemoryConfig cfg = arccConfig();
    MemChannel ch(cfg, ControllerConfig{});
    DramCoord coord{};
    MemResponse r1 = ch.schedule(0.0, coord, false, 18);
    MemResponse r2 = ch.schedule(0.0, coord, false, 18);
    const DeviceParams &d = cfg.device;
    EXPECT_GE(r2.issueTime - r1.issueTime, d.tRC * d.tCK - 1e-9);
}

TEST(MemChannel, DifferentBanksOverlapUpToTheBus)
{
    MemoryConfig cfg = arccConfig();
    MemChannel ch(cfg, ControllerConfig{});
    DramCoord a{};
    DramCoord b{};
    b.bank = 1;
    MemResponse r1 = ch.schedule(0.0, a, false, 18);
    MemResponse r2 = ch.schedule(0.0, b, false, 18);
    const DeviceParams &d = cfg.device;
    // Bank-level parallelism: the second access completes one burst
    // after the first, far sooner than a tRC turnaround.
    EXPECT_LT(r2.completion - r1.completion,
              d.tRC * d.tCK);
    EXPECT_GE(r2.completion - r1.completion,
              d.burstCycles() * d.tCK - 1e-9);
}

TEST(MemChannel, QueueBackpressureDelaysAdmission)
{
    MemoryConfig cfg = arccConfig();
    ControllerConfig ctrl;
    ctrl.queueDepth = 4;
    MemChannel ch(cfg, ctrl);
    DramCoord coord{};
    double last = 0.0;
    for (int i = 0; i < 16; ++i) {
        MemResponse r = ch.schedule(0.0, coord, false, 18);
        last = r.completion;
    }
    // 16 same-bank requests at depth 4: admission must have pushed
    // later requests well past 4 * tRC.
    EXPECT_GT(last, 15 * cfg.device.tRC * cfg.device.tCK - 1e-9);
}

// --- the memory system: an AddressMap plus a ChannelSet ------------------

TEST(MemorySystem, PairedAccessTouchesBothChannelsInLockstep)
{
    const MemoryConfig cfg = arccConfig();
    const AddressMap map(cfg, MapPolicy::HiPerf);
    ChannelSet mem(cfg, ControllerConfig{}, {0, 1});
    double t_paired = mem.accessPaired(0.0, map.decode(0),
                                       map.decode(kLineBytes), false);
    EXPECT_GT(t_paired, 0.0);
    EXPECT_EQ(mem.accesses(), 2u); // one access in each channel.
}

TEST(MemorySystem, PairedCompletionNotEarlierThanUnpaired)
{
    const MemoryConfig cfg = arccConfig();
    const AddressMap map(cfg, MapPolicy::HiPerf);
    ChannelSet a(cfg, ControllerConfig{}, {0, 1});
    ChannelSet b(cfg, ControllerConfig{}, {0, 1});
    double unpaired = a.access(0.0, map.decode(0), false);
    double paired = b.accessPaired(0.0, map.decode(0),
                                   map.decode(kLineBytes), false);
    EXPECT_GE(paired, unpaired - 1e-9);
}

TEST(MemorySystem, ArrivalOrderMonotonicityHolds)
{
    const MemoryConfig cfg = arccConfig();
    const AddressMap map(cfg, MapPolicy::HiPerf);
    ChannelSet mem(cfg, ControllerConfig{}, {0, 1});
    Rng rng(5);
    double now = 0.0;
    for (int i = 0; i < 500; ++i) {
        now += rng.uniform() * 10.0;
        std::uint64_t addr = rng.below(map.capacity() / 64) * 64;
        double done = mem.access(now, map.decode(addr), rng.chance(0.3));
        // Completions need not be monotonic across banks, but must
        // never precede their arrival.
        EXPECT_GE(done, now);
    }
}

// --- power ---------------------------------------------------------------

TEST(MemorySystem, DynamicEnergyScalesWithDevicesPerAccess)
{
    const MemoryConfig base_cfg = baselineConfig();
    const MemoryConfig ar_cfg = arccConfig();
    const AddressMap base_map(base_cfg, MapPolicy::HiPerf);
    const AddressMap ar_map(ar_cfg, MapPolicy::HiPerf);
    ChannelSet base(base_cfg, ControllerConfig{}, {0, 1});
    ChannelSet ar(ar_cfg, ControllerConfig{}, {0, 1});
    // Identical request streams.
    double t = 0.0;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t addr =
            static_cast<std::uint64_t>(i) * 64 * 257 % (1 << 28);
        base.access(t, base_map.decode(addr), false);
        ar.access(t, ar_map.decode(addr), false);
        t += 60.0;
    }
    base.finalize(t);
    ar.finalize(t);
    // 36 vs 18 devices per access: ARCC dynamic energy must be well
    // below the baseline's (not exactly half: x8 bursts cost more).
    EXPECT_LT(ar.breakdown().dynamicNj,
              0.65 * base.breakdown().dynamicNj);
    EXPECT_GT(ar.breakdown().dynamicNj,
              0.40 * base.breakdown().dynamicNj);
}

TEST(MemorySystem, BackgroundEnergyAccruesWithTime)
{
    const MemoryConfig cfg = arccConfig();
    const AddressMap map(cfg, MapPolicy::HiPerf);
    ChannelSet mem(cfg, ControllerConfig{}, {0, 1});
    mem.access(0.0, map.decode(0), false);
    mem.finalize(1e6); // 1 ms idle tail.
    PowerBreakdown p = mem.breakdown();
    EXPECT_GT(p.backgroundNj, 0.0);
    EXPECT_GT(p.refreshNj, 0.0);
    EXPECT_GT(p.totalNj(), p.dynamicNj);
}

TEST(MemorySystem, PowerDownCutsIdleBackgroundPower)
{
    ControllerConfig with_pd;
    with_pd.enablePowerDown = true;
    ControllerConfig no_pd;
    no_pd.enablePowerDown = false;

    const MemoryConfig cfg = arccConfig();
    ChannelSet a(cfg, with_pd, {0, 1});
    ChannelSet b(cfg, no_pd, {0, 1});
    a.finalize(1e7);
    b.finalize(1e7);
    EXPECT_LT(a.breakdown().backgroundNj,
              0.5 * b.breakdown().backgroundNj);
}

TEST(PowerBreakdown, AvgPowerIsEnergyOverTime)
{
    PowerBreakdown p;
    p.dynamicNj = 500.0;
    p.backgroundNj = 300.0;
    p.refreshNj = 200.0;
    EXPECT_DOUBLE_EQ(p.totalNj(), 1000.0);
    EXPECT_DOUBLE_EQ(p.avgPowerMw(1e6), 1.0); // 1000 nJ / 1 ms = 1 mW.
}


TEST(MemChannel, WriteToReadTurnaroundAddsTwtr)
{
    MemoryConfig cfg = arccConfig();
    MemChannel ch(cfg, ControllerConfig{});
    const DeviceParams &d = cfg.device;
    DramCoord a{};
    DramCoord b{};
    b.bank = 1;
    MemResponse w = ch.schedule(0.0, a, /*is_write=*/true, 18);
    MemResponse r = ch.schedule(0.0, b, /*is_write=*/false, 18);
    // The read burst cannot start before the write burst plus tWTR.
    double earliest = w.completion + d.tWTR * d.tCK +
                      d.burstCycles() * d.tCK;
    EXPECT_GE(r.completion, earliest - 1e-9);
}

TEST(MemChannel, FifoPartitionConstrainsPairedIssue)
{
    MemoryConfig cfg = arccConfig();
    ControllerConfig ctrl;
    ctrl.pairing = PairingPolicy::FifoPartition;
    MemChannel ch(cfg, ctrl);
    DramCoord busy{};
    // Occupy the channel so lastIssue advances well past zero.
    for (int i = 0; i < 4; ++i)
        ch.schedule(0.0, busy, false, 18);
    DramCoord other{};
    other.bank = 5;
    other.rank = 1;
    // A paired request to an idle bank may not bypass earlier issues
    // under strict FIFO; the pointer design may.
    double fifo = ch.earliestIssue(0.0, other, /*paired=*/true);
    double free = ch.earliestIssue(0.0, other, /*paired=*/false);
    EXPECT_GT(fifo, free);
}

TEST(ChannelShardPlan, PairableGroupsFollowTheMapInterleave)
{
    MemoryConfig cfg = arccConfig();
    // HiPerf / ClosePage interleave adjacent lines over the channels,
    // so the 128B pair spans channels {0, 1}: one pairable group.
    for (MapPolicy p : {MapPolicy::HiPerf, MapPolicy::ClosePage}) {
        AddressMap map(cfg, p);
        ChannelShardPlan plan(map, /*pairable=*/true);
        ASSERT_EQ(plan.groups(), 1u);
        EXPECT_EQ(plan.group(0), (std::vector<int>{0, 1}));
        EXPECT_EQ(plan.groupOf(0), 0);
        EXPECT_EQ(plan.groupOf(1), 0);
    }
    // The Base map keeps the pair in one channel: singleton groups.
    AddressMap base(cfg, MapPolicy::Base);
    ChannelShardPlan base_plan(base, /*pairable=*/true);
    ASSERT_EQ(base_plan.groups(), 2u);
    EXPECT_EQ(base_plan.group(0), (std::vector<int>{0}));
    EXPECT_EQ(base_plan.group(1), (std::vector<int>{1}));
}

TEST(ChannelShardPlan, UnpairableTrafficShardsPerChannel)
{
    // With no upgraded pages possible there is no paired traffic, so
    // every channel is its own shard regardless of the interleave.
    AddressMap map(arccConfig(), MapPolicy::HiPerf);
    ChannelShardPlan plan(map, /*pairable=*/false);
    ASSERT_EQ(plan.groups(), 2u);
    EXPECT_EQ(plan.groupOf(0), 0);
    EXPECT_EQ(plan.groupOf(1), 1);
}

TEST(ChannelShardPlan, WideConfigsFanOutPastTwoShards)
{
    // The 4- and 8-channel configurations exist to widen the back-end
    // shard fan: pairable traffic groups channels {2k, 2k+1} under
    // the interleaved maps, unpairable traffic shards per channel.
    for (int channels : {4, 8}) {
        SCOPED_TRACE("channels=" + std::to_string(channels));
        MemoryConfig cfg = withChannels(arccConfig(), channels);
        AddressMap map(cfg, MapPolicy::HiPerf);

        ChannelShardPlan paired(map, /*pairable=*/true);
        ASSERT_EQ(paired.groups(),
                  static_cast<std::size_t>(channels / 2));
        for (std::size_t g = 0; g < paired.groups(); ++g) {
            int lo = static_cast<int>(2 * g);
            EXPECT_EQ(paired.group(g),
                      (std::vector<int>{lo, lo + 1}));
            EXPECT_EQ(paired.groupOf(lo), static_cast<int>(g));
            EXPECT_EQ(paired.groupOf(lo + 1), static_cast<int>(g));
        }

        ChannelShardPlan solo(map, /*pairable=*/false);
        ASSERT_EQ(solo.groups(),
                  static_cast<std::size_t>(channels));
        for (int c = 0; c < channels; ++c)
            EXPECT_EQ(solo.group(solo.groupOf(c)),
                      (std::vector<int>{c}));
    }
}

TEST(MemoryConfigChannels, WithChannelsScalesCapacityOnly)
{
    MemoryConfig base = arccConfig();
    MemoryConfig wide = withChannels(base, 8);
    EXPECT_EQ(wide.channels, 8);
    EXPECT_EQ(wide.ranksPerChannel, base.ranksPerChannel);
    EXPECT_EQ(wide.devicesPerRank, base.devicesPerRank);
    EXPECT_EQ(wide.dataBytes(), base.dataBytes() * 4);
    EXPECT_EQ(wide.name, base.name + " @8ch");
    EXPECT_EQ(arccConfig4().channels, 4);
    EXPECT_EQ(arccConfig8().channels, 8);
}

TEST(MemoryConfigChannelsDeathTest, IndivisibleRowSplitIsFatal)
{
    // 2 pages/row = 128 lines cannot interleave over 3 channels.
    EXPECT_EXIT(withChannels(arccConfig(), 3),
                ::testing::ExitedWithCode(1), "split over");
    EXPECT_EXIT(withChannels(arccConfig(), 0),
                ::testing::ExitedWithCode(1), ">= 1 channel");
}

TEST(ChannelSet, MatchesMemorySystemRequestForRequest)
{
    // The back-end split: one ChannelSet over every channel against
    // ChannelShardPlan's per-group sets, each request routed to the
    // group owning its channel.  Channels share no state, so the
    // split must reproduce the single set request for request.
    const MemoryConfig cfg = arccConfig4();
    const AddressMap map(cfg, MapPolicy::HiPerf);
    const ChannelShardPlan plan(map, /*pairable=*/true);
    ASSERT_EQ(plan.groups(), 2u);
    ChannelSet all(cfg, ControllerConfig{}, {0, 1, 2, 3});
    std::vector<ChannelSet> shards;
    shards.reserve(plan.groups());
    for (std::size_t g = 0; g < plan.groups(); ++g)
        shards.emplace_back(cfg, ControllerConfig{}, plan.group(g));

    Rng rng(11);
    double now = 0.0;
    for (int i = 0; i < 400; ++i) {
        now += rng.uniform() * 8.0;
        bool paired = rng.chance(0.3);
        bool is_write = rng.chance(0.3);
        std::uint64_t addr =
            rng.below(map.capacity() / kUpgradedLineBytes) *
            kUpgradedLineBytes;
        DramCoord a = map.decode(addr);
        ChannelSet &shard = shards[plan.groupOf(a.channel)];
        if (paired) {
            DramCoord b = map.decode(addr + kLineBytes);
            EXPECT_EQ(all.accessPaired(now, a, b, is_write),
                      shard.accessPaired(now, a, b, is_write));
        } else {
            EXPECT_EQ(all.access(now, a, is_write),
                      shard.access(now, a, is_write));
        }
        std::uint64_t split_accesses = 0;
        for (const ChannelSet &s : shards)
            split_accesses += s.accesses();
        EXPECT_EQ(all.accesses(), split_accesses);
    }
    all.finalize(now);
    double split_nj = 0.0;
    for (ChannelSet &s : shards) {
        EXPECT_GT(s.accesses(), 0u);
        s.finalize(now);
        split_nj += s.breakdown().totalNj();
    }
    EXPECT_DOUBLE_EQ(all.breakdown().totalNj(), split_nj);
}

TEST(ChannelSet, RejectsCoordinatesItDoesNotOwn)
{
    MemoryConfig cfg = arccConfig();
    ChannelSet set(cfg, ControllerConfig{}, {1});
    EXPECT_TRUE(set.owns(1));
    EXPECT_FALSE(set.owns(0));
    DramCoord foreign{};
    foreign.channel = 0;
    EXPECT_DEATH(set.access(0.0, foreign, false), "assertion");
}

TEST(ChannelSetDeathTest, ArrivalsMustNotGoBackInTimeOnAChannel)
{
    // The reservation model is exact only when each channel sees its
    // arrivals in order; an earlier arrival is a caller bug.
    MemoryConfig cfg = arccConfig();
    ChannelSet set(cfg, ControllerConfig{}, {0, 1});
    DramCoord ch0{};
    DramCoord ch1{};
    ch1.channel = 1;
    set.access(100.0, ch0, false);
    set.access(50.0, ch1, false); // another channel keeps its own order.
    set.access(100.0, ch0, true); // a tie is in order.
    EXPECT_DEATH(set.access(99.0, ch0, false), "channel 0: arrival");
    EXPECT_DEATH(set.accessPaired(60.0, ch1, ch0, false),
                 "channel 0: arrival");
}

TEST(MemorySystem, PairedAccessFallsBackUnderBaseMap)
{
    // The Base map keeps adjacent lines in one channel: a paired
    // access degrades to two sequential accesses instead of asserting.
    const MemoryConfig cfg = arccConfig();
    const AddressMap base(cfg, MapPolicy::Base);
    ChannelSet mem(cfg, ControllerConfig{}, {0, 1});
    double done = mem.accessPaired(0.0, base.decode(0),
                                   base.decode(kLineBytes), false);
    EXPECT_GT(done, 0.0);
    EXPECT_EQ(mem.accesses(), 2u);

    const AddressMap hiperf(cfg, MapPolicy::HiPerf);
    ChannelSet lockstep(cfg, ControllerConfig{}, {0, 1});
    double parallel = lockstep.accessPaired(
        0.0, hiperf.decode(0), hiperf.decode(kLineBytes), false);
    EXPECT_GT(done, parallel)
        << "without channel interleaving the pair serialises "
           "(Section 4.1's requirement)";
}

} // namespace
} // namespace arcc
