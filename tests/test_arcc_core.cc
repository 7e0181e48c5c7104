/**
 * @file
 * Tests for the ARCC core: page table, scheme codecs, functional
 * memory, and the test-pattern scrubber.
 */

#include <gtest/gtest.h>

#include "arcc/arcc_memory.hh"
#include "arcc/ecc_scheme.hh"
#include "arcc/page_table.hh"
#include "arcc/scrubber.hh"
#include "common/rng.hh"

namespace arcc
{
namespace
{

std::vector<std::uint8_t>
randomLine(Rng &rng, std::size_t bytes = 64)
{
    std::vector<std::uint8_t> v(bytes);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.below(256));
    return v;
}

/** XOR every byte of device v's slice with fresh non-zero garbage. */
void
killDevice(const LineCodec &codec, DeviceSlices &slices, int v, Rng &rng)
{
    const int sb = codec.sliceBytes();
    for (int i = 0; i < sb; ++i)
        slices[v * sb + i] ^= static_cast<std::uint8_t>(rng.range(1, 255));
}

// --- PageTable ---------------------------------------------------------

TEST(PageTable, BootsUpgradedAndTracksCounts)
{
    PageTable pt(100);
    EXPECT_EQ(pt.count(PageMode::Upgraded), 100u);
    EXPECT_DOUBLE_EQ(pt.upgradedFraction(), 1.0);
    pt.setMode(5, PageMode::Relaxed);
    pt.setMode(6, PageMode::Relaxed);
    EXPECT_EQ(pt.count(PageMode::Relaxed), 2u);
    EXPECT_EQ(pt.count(PageMode::Upgraded), 98u);
    EXPECT_DOUBLE_EQ(pt.upgradedFraction(), 0.98);
    EXPECT_EQ(pt.downgradesPerformed(), 2u);
    pt.setMode(5, PageMode::Upgraded);
    EXPECT_EQ(pt.upgradesPerformed(), 1u);
}

TEST(PageTable, RedundantTransitionsAreNoOps)
{
    PageTable pt(10, PageMode::Relaxed);
    pt.setMode(3, PageMode::Relaxed);
    EXPECT_EQ(pt.upgradesPerformed(), 0u);
    EXPECT_EQ(pt.downgradesPerformed(), 0u);
}

// --- scheme codecs -------------------------------------------------------

struct CodecCase
{
    const char *which;
    int killDevices;
    bool correctable;
};

std::unique_ptr<LineCodec>
makeCodec(const std::string &which)
{
    // Case names drop the "arcc-" of the ARCC modes' registry keys.
    if (which == "relaxed" || which == "upgraded" ||
        which == "upgraded2")
        return codecs::make("arcc-" + which);
    return codecs::make(which);
}

class CodecSweep : public ::testing::TestWithParam<CodecCase>
{
};

TEST_P(CodecSweep, DeviceKillBehaviour)
{
    const CodecCase &c = GetParam();
    auto codec = makeCodec(c.which);
    Rng rng(1000);
    LineWorkspace ws;
    DeviceSlices slices;
    for (int t = 0; t < 60; ++t) {
        auto data = randomLine(rng, codec->dataBytes());
        codec->encodeInto(data, slices, ws);
        ASSERT_EQ(static_cast<int>(slices.size()),
                  codec->devices() * codec->sliceBytes());

        // Kill whole devices (Figure 2.1's failure model).
        std::vector<int> victims;
        while (static_cast<int>(victims.size()) < c.killDevices) {
            int v = static_cast<int>(rng.below(codec->devices()));
            if (std::find(victims.begin(), victims.end(), v) ==
                victims.end())
                victims.push_back(v);
        }
        for (int v : victims)
            killDevice(*codec, slices, v, rng);

        std::vector<std::uint8_t> out(codec->dataBytes());
        DecodeResult res;
        codec->decodeInto(slices, out, {}, ws, res);
        if (c.correctable) {
            EXPECT_NE(res.status, DecodeStatus::Detected)
                << c.which << " kill=" << c.killDevices;
            EXPECT_EQ(out, data);
        } else {
            EXPECT_EQ(res.status, DecodeStatus::Detected)
                << c.which << " kill=" << c.killDevices;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ChipkillGuarantees, CodecSweep,
    ::testing::Values(
        // Single chipkill correct for every scheme.
        CodecCase{"sccdcd", 1, true}, CodecCase{"relaxed", 1, true},
        CodecCase{"upgraded", 1, true},
        CodecCase{"upgraded2", 1, true}, CodecCase{"lot9", 1, true},
        CodecCase{"lot18", 1, true},
        // Double chipkill: only the sparing decode corrects two.
        CodecCase{"dcs", 2, true}, CodecCase{"sccdcd", 2, false},
        CodecCase{"upgraded", 2, false}, CodecCase{"lot9", 2, false},
        // Guaranteed detection beyond the correction radius.
        CodecCase{"upgraded2", 2, false}),
    [](const ::testing::TestParamInfo<CodecCase> &info) {
        return std::string(info.param.which) + "_kill" +
               std::to_string(info.param.killDevices) +
               (info.param.correctable ? "_corrects" : "_detects");
    });

TEST(CodecSweepExtra, DcsTripleKillIsAlmostAlwaysDetected)
{
    // Three whole-device failures exceed double chip sparing.  A d=5
    // code decoded to radius 2 can occasionally miscorrect a weight-3
    // pattern (it sits at distance >= 2 from other codewords), so the
    // guarantee is statistical, not absolute -- assert the DUE rate
    // dominates and silent *success* never fabricates the original.
    auto codec = makeCodec("dcs");
    Rng rng(2024);
    LineWorkspace ws;
    DeviceSlices slices;
    int detected = 0;
    const int trials = 200;
    for (int t = 0; t < trials; ++t) {
        auto data = randomLine(rng, codec->dataBytes());
        codec->encodeInto(data, slices, ws);
        std::vector<int> victims;
        while (victims.size() < 3) {
            int v = static_cast<int>(rng.below(codec->devices()));
            if (std::find(victims.begin(), victims.end(), v) ==
                victims.end())
                victims.push_back(v);
        }
        for (int v : victims)
            killDevice(*codec, slices, v, rng);
        std::vector<std::uint8_t> out(codec->dataBytes());
        DecodeResult res;
        codec->decodeInto(slices, out, {}, ws, res);
        if (res.status == DecodeStatus::Detected)
            ++detected;
        else
            EXPECT_NE(out, data) << "cannot reconstruct 3 lost devices";
    }
    EXPECT_GT(detected, trials * 8 / 10);
}

TEST(CodecGeometry, StorageOverheadMatchesThePaper)
{
    // Relaxed and upgraded store the same 12.5% overhead -- the whole
    // point of the codeword-combining trick (contribution #2).
    auto relaxed = codecs::make("arcc-relaxed");
    auto upgraded = codecs::make("arcc-upgraded");
    auto stored = [](const LineCodec &c) {
        return c.devices() * c.sliceBytes();
    };
    EXPECT_EQ(stored(*relaxed), 72);    // 64B data + 8B check.
    EXPECT_EQ(stored(*upgraded), 144);  // 128B data + 16B check.
    double rel_overhead =
        static_cast<double>(stored(*relaxed)) / relaxed->dataBytes() -
        1.0;
    double upg_overhead =
        static_cast<double>(stored(*upgraded)) /
            upgraded->dataBytes() - 1.0;
    EXPECT_DOUBLE_EQ(rel_overhead, 0.125);
    EXPECT_DOUBLE_EQ(upg_overhead, 0.125);
}

TEST(CodecGeometry, UpgradedSliceFootprintEqualsRelaxed)
{
    // A page upgrade must not move storage: each device keeps 4 bytes
    // per 64B line slot in both modes.
    auto relaxed = codecs::make("arcc-relaxed");
    auto upgraded = codecs::make("arcc-upgraded");
    EXPECT_EQ(relaxed->sliceBytes(), upgraded->sliceBytes());
    EXPECT_EQ(upgraded->devices(), 2 * relaxed->devices());
}

// --- functional memory ---------------------------------------------------

TEST(ArccMemory, RoundTripInBothModes)
{
    ArccMemory mem(FunctionalConfig::arccSmall());
    Rng rng(2);
    std::uint64_t page = 3;
    std::uint64_t base = page * kPageBytes;

    // Boot mode is Upgraded.
    auto w1 = randomLine(rng);
    mem.write(base, w1);
    auto r1 = mem.read(base);
    EXPECT_EQ(r1.status, DecodeStatus::Clean);
    EXPECT_EQ(r1.data, w1);

    // Relax the page and round-trip again.
    mem.setPageMode(page, PageMode::Relaxed);
    auto r2 = mem.read(base);
    EXPECT_EQ(r2.data, w1) << "mode change must preserve contents";
    auto w2 = randomLine(rng);
    mem.write(base + 64, w2);
    EXPECT_EQ(mem.read(base + 64).data, w2);
    EXPECT_EQ(mem.read(base).data, w1);
}

TEST(ArccMemory, UpgradePreservesWholePage)
{
    ArccMemory mem(FunctionalConfig::arccSmall());
    Rng rng(3);
    std::uint64_t page = 7;
    std::uint64_t base = page * kPageBytes;
    mem.setPageMode(page, PageMode::Relaxed);

    std::vector<std::vector<std::uint8_t>> lines;
    for (std::uint64_t l = 0; l < kLinesPerPage; ++l) {
        lines.push_back(randomLine(rng));
        mem.write(base + l * kLineBytes, lines.back());
    }
    mem.setPageMode(page, PageMode::Upgraded);
    for (std::uint64_t l = 0; l < kLinesPerPage; ++l) {
        auto r = mem.read(base + l * kLineBytes);
        EXPECT_EQ(r.status, DecodeStatus::Clean);
        EXPECT_EQ(r.data, lines[l]) << "line " << l;
    }
}

TEST(ArccMemory, RelaxedModeTouchesHalfTheDevices)
{
    ArccMemory mem(FunctionalConfig::arccSmall());
    std::uint64_t page = 1;
    std::uint64_t addr = page * kPageBytes;

    mem.setPageMode(page, PageMode::Relaxed);
    auto before = mem.stats().deviceReads;
    mem.read(addr);
    auto relaxed_touch = mem.stats().deviceReads - before;

    mem.setPageMode(page, PageMode::Upgraded);
    before = mem.stats().deviceReads;
    mem.read(addr);
    auto upgraded_touch = mem.stats().deviceReads - before;

    EXPECT_EQ(relaxed_touch, 18u);
    EXPECT_EQ(upgraded_touch, 36u);
}

TEST(ArccMemory, DeviceFaultIsCorrectedInRelaxedMode)
{
    ArccMemory mem(FunctionalConfig::arccSmall());
    Rng rng(4);
    std::uint64_t page = 5;
    std::uint64_t base = page * kPageBytes;
    mem.setPageMode(page, PageMode::Relaxed);
    auto data = randomLine(rng);
    mem.write(base, data);

    FunctionalFault f;
    f.channel = 0;
    f.rank = 0;
    f.device = 7;
    f.scope = FaultScope::Device;
    f.kind = FaultKind::Corrupt;
    mem.injectFault(f);

    auto r = mem.read(base);
    // Whatever rank/channel the line maps to, at most one device per
    // codeword is bad: the relaxed code must cope.
    EXPECT_NE(r.status, DecodeStatus::Detected);
    EXPECT_EQ(r.data, data);
}

TEST(ArccMemory, TwoDeviceFaultsNeedTheUpgradedMode)
{
    FunctionalConfig cfg = FunctionalConfig::arccSmall();
    ArccMemory mem(cfg);
    Rng rng(5);

    // Find a relaxed-mode address on channel 0, rank 0.
    std::uint64_t addr = 0;
    std::uint64_t page = mem.pageOf(addr);
    std::uint64_t base = page * kPageBytes;
    mem.setPageMode(page, PageMode::Relaxed);
    auto data = randomLine(rng);
    mem.write(base, data);

    for (int dev : {2, 9}) {
        FunctionalFault f;
        f.channel = 0;
        f.rank = 0;
        f.device = dev;
        f.scope = FaultScope::Device;
        f.kind = FaultKind::Corrupt;
        mem.injectFault(f);
    }

    // Two bad symbols per relaxed codeword: a DUE (or worse).
    auto r = mem.read(base);
    EXPECT_NE(r.status, DecodeStatus::Clean);

    // Upgrading the page brings four check symbols per codeword --
    // but correction strength under plain ARCC stays 1, so the double
    // fault is now *reliably detected*, not corrected (Section 6.1).
    mem.setPageMode(page, PageMode::Upgraded);
    auto r2 = mem.read(base);
    EXPECT_EQ(r2.status, DecodeStatus::Detected);
}

TEST(ArccMemory, DcsSparingCorrectsTwoFaultsAfterDiagnosis)
{
    FunctionalConfig cfg = FunctionalConfig::arccSmall();
    cfg.scheme = SchemeKind::ArccDcs;
    ArccMemory mem(cfg);
    Rng rng(6);
    std::uint64_t page = 0;
    std::uint64_t base = 0;
    auto data = randomLine(rng);
    mem.write(base, data); // page boots Upgraded.

    // First device fails and is diagnosed (remapped / erased).
    FunctionalFault f1;
    f1.channel = 0;
    f1.rank = 0;
    f1.device = 3;
    f1.scope = FaultScope::Device;
    f1.kind = FaultKind::Corrupt;
    mem.injectFault(f1);
    mem.spareDevice(0, 0, 3);

    // Second device fails later in the other channel of the pair.
    FunctionalFault f2 = f1;
    f2.channel = 1;
    f2.device = 11;
    mem.injectFault(f2);

    auto r = mem.read(base);
    EXPECT_NE(r.status, DecodeStatus::Detected)
        << "erasure + 1 error is within 2e+f <= 4";
    EXPECT_EQ(r.data, data);
    (void)page;
}

TEST(ArccMemory, StuckAtFaultsRespondToOverlay)
{
    ArccMemory mem(FunctionalConfig::arccSmall());
    std::uint64_t addr = 0;
    FunctionalFault f;
    f.channel = 0;
    f.rank = 0;
    f.device = 0;
    f.scope = FaultScope::Device;
    f.kind = FaultKind::StuckAt1;
    mem.injectFault(f);

    mem.rawFill(addr, 0x00);
    EXPECT_FALSE(mem.rawCheck(addr, 0x00)) << "stuck-at-1 visible";
    mem.rawFill(addr, 0xff);
    EXPECT_TRUE(mem.rawCheck(addr, 0xff))
        << "all-ones is what a stuck-at-1 device returns anyway";
}

TEST(ArccMemory, RawSnapshotRestoreRoundTrips)
{
    ArccMemory mem(FunctionalConfig::arccSmall());
    Rng rng(7);
    auto data = randomLine(rng);
    mem.write(0, data);
    auto snap = mem.rawSnapshot(0);
    mem.rawFill(0, 0xAA);
    mem.rawRestore(0, snap);
    EXPECT_EQ(mem.read(0).data, data);
}

TEST(ArccMemory, BaselineSchemeHasNoUpgradedMode)
{
    ArccMemory mem(FunctionalConfig::baselineSmall());
    EXPECT_EQ(mem.pageTable().mode(0), PageMode::Relaxed);
    EXPECT_EXIT(mem.setPageMode(0, PageMode::Upgraded),
                ::testing::ExitedWithCode(1), "no upgraded mode");
}

TEST(ArccMemory, Level2UpgradeCorrectsAcrossFourChannels)
{
    ArccMemory mem(FunctionalConfig::arccWide());
    Rng rng(8);
    std::uint64_t page = 2;
    std::uint64_t base = page * kPageBytes;
    std::vector<std::vector<std::uint8_t>> lines;
    for (int l = 0; l < 8; ++l) {
        lines.push_back(randomLine(rng));
        mem.write(base + l * kLineBytes, lines[l]);
    }
    mem.setPageMode(page, PageMode::Upgraded2);
    for (int l = 0; l < 8; ++l)
        EXPECT_EQ(mem.read(base + l * kLineBytes).data, lines[l]);

    // RS(72,64) with maxCorrect 2 (ARCC+DCS) rides out two whole-
    // device failures even without sparing diagnosis.
    for (auto [ch, dev] : {std::pair{0, 1}, {2, 5}}) {
        FunctionalFault f;
        f.channel = ch;
        f.rank = 0;
        f.device = dev;
        f.scope = FaultScope::Device;
        f.kind = FaultKind::Corrupt;
        mem.injectFault(f);
    }
    for (int l = 0; l < 8; ++l) {
        auto r = mem.read(base + l * kLineBytes);
        EXPECT_NE(r.status, DecodeStatus::Detected) << l;
        EXPECT_EQ(r.data, lines[l]) << l;
    }
}

// --- scrubber ------------------------------------------------------------

TEST(Scrubber, CleanMemoryStaysCleanAndRelaxes)
{
    ArccMemory mem(FunctionalConfig::arccSmall());
    Rng rng(9);
    for (std::uint64_t p = 0; p < 4; ++p)
        mem.write(p * kPageBytes, randomLine(rng));

    Scrubber scrubber;
    ScrubReport boot = scrubber.bootScrub(mem);
    EXPECT_TRUE(boot.faultyPages.empty());
    EXPECT_EQ(boot.pagesRelaxed, mem.pageTable().pages());
    EXPECT_EQ(mem.pageTable().count(PageMode::Relaxed),
              mem.pageTable().pages());
    // Contents survived the 0x00/0xff test patterns.
    EXPECT_EQ(mem.read(0).data.size(), kLineBytes);
}

TEST(Scrubber, HiddenStuckAtFaultIsFoundOnlyByTestPatterns)
{
    // A stuck-at-1 in a location whose content is currently all-1s is
    // invisible to a read-only scrub; the paper's write-0/write-1
    // pattern scrub (Section 4.2.2) must find it.
    FunctionalConfig cfg = FunctionalConfig::arccSmall();

    auto run = [&](bool test_patterns) {
        ArccMemory mem(cfg);
        Scrubber(ScrubberConfig{.testPatterns = false,
                                .relaxCleanPages = true,
                                .allowLevel2 = false})
            .scrub(mem);
        std::vector<std::uint8_t> ones(64, 0xff);
        mem.write(0, ones); // content matches the stuck value.
        FunctionalFault f;
        f.channel = 0;
        f.rank = 0;
        f.device = 1;
        // A single stuck cell under the line whose content is all-1s:
        // a read-only scrub sees nothing anywhere.
        f.scope = FaultScope::Cell;
        f.bank = 0;
        f.row = 0;
        f.col = 0;
        f.kind = FaultKind::StuckAt1;
        mem.injectFault(f);

        ScrubberConfig sc;
        sc.testPatterns = test_patterns;
        ScrubReport rep = Scrubber(sc).scrub(mem);
        return rep.faultyPages.size();
    };

    EXPECT_EQ(run(false), 0u) << "conventional scrub misses it";
    EXPECT_GT(run(true), 0u) << "pattern scrub must find it";
}

TEST(Scrubber, FaultyPageIsUpgradedAndDataSurvives)
{
    ArccMemory mem(FunctionalConfig::arccSmall());
    Rng rng(10);
    Scrubber scrubber;
    scrubber.bootScrub(mem); // everything relaxed.

    std::vector<std::vector<std::uint8_t>> lines;
    std::uint64_t page = 0;
    for (std::uint64_t l = 0; l < kLinesPerPage; ++l) {
        lines.push_back(randomLine(rng));
        mem.write(page * kPageBytes + l * kLineBytes, lines[l]);
    }

    FunctionalFault f;
    f.channel = 0;
    f.rank = 0;
    f.device = 4;
    f.scope = FaultScope::Device;
    f.kind = FaultKind::Corrupt;
    mem.injectFault(f);

    ScrubReport rep = scrubber.scrub(mem);
    EXPECT_FALSE(rep.faultyPages.empty());
    EXPECT_GT(rep.pagesUpgraded, 0u);
    EXPECT_EQ(mem.pageTable().mode(page), PageMode::Upgraded);

    for (std::uint64_t l = 0; l < kLinesPerPage; ++l) {
        auto r = mem.read(page * kPageBytes + l * kLineBytes);
        EXPECT_NE(r.status, DecodeStatus::Detected);
        EXPECT_EQ(r.data, lines[l]) << "line " << l;
    }
}

TEST(Scrubber, OnlyAffectedPagesAreUpgraded)
{
    // A device fault in rank 0 must upgrade rank-0 pages and leave
    // rank-1 pages relaxed: the page-by-page reaction that drives the
    // whole power story (Table 7.4).
    ArccMemory mem(FunctionalConfig::arccSmall());
    Scrubber scrubber;
    scrubber.bootScrub(mem);

    FunctionalFault f;
    f.channel = 0;
    f.rank = 0;
    f.device = 2;
    f.scope = FaultScope::Device;
    f.kind = FaultKind::Corrupt;
    mem.injectFault(f);
    scrubber.scrub(mem);

    double upgraded = mem.pageTable().upgradedFraction();
    EXPECT_NEAR(upgraded, 0.5, 0.01)
        << "device fault upgrades one of the two ranks (Table 7.4)";
}

TEST(Scrubber, BankFaultUpgradesItsBankShare)
{
    ArccMemory mem(FunctionalConfig::arccSmall());
    Scrubber scrubber;
    scrubber.bootScrub(mem);
    FunctionalFault f;
    f.channel = 1;
    f.rank = 1;
    f.device = 0;
    f.scope = FaultScope::Bank;
    f.bank = 1;
    f.kind = FaultKind::Corrupt;
    mem.injectFault(f);
    scrubber.scrub(mem);
    // 2 ranks x 2 banks in the small config: 1/4 of pages.
    EXPECT_NEAR(mem.pageTable().upgradedFraction(), 0.25, 0.01);
}

TEST(Scrubber, ClosedFormOverheadMatchesSection422)
{
    // 4 GB over a 128-bit 667 MT/s channel: 0.4 s per pass, 2.4 s per
    // scrub, 0.0167% of bandwidth at one scrub per 4 hours.
    double bus_bytes = 667e6 * 16.0;
    double pass = 4.0 * 1024 * 1024 * 1024 / bus_bytes;
    EXPECT_NEAR(pass, 0.4, 0.01);
    double scrub = Scrubber::scrubSeconds(4.0 * 1024 * 1024 * 1024,
                                          bus_bytes);
    EXPECT_NEAR(scrub, 2.4, 0.1);
    EXPECT_NEAR(Scrubber::bandwidthFraction(scrub, 4.0), 0.000167,
                0.00002);
}

TEST(Scrubber, SecondFaultEscalatesToLevel2)
{
    ArccMemory mem(FunctionalConfig::arccWide());
    Scrubber scrubber;
    scrubber.bootScrub(mem);

    FunctionalFault f;
    f.channel = 0;
    f.rank = 0;
    f.device = 3;
    f.scope = FaultScope::Device;
    f.kind = FaultKind::Corrupt;
    mem.injectFault(f);
    scrubber.scrub(mem);
    EXPECT_GT(mem.pageTable().count(PageMode::Upgraded), 0u);

    // The same pages keep failing the scrub (hard fault): next scrub
    // escalates them to the 8-check-symbol mode of Chapter 5.1.
    scrubber.scrub(mem);
    EXPECT_GT(mem.pageTable().count(PageMode::Upgraded2), 0u);
}

} // namespace
} // namespace arcc
