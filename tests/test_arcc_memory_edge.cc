/**
 * @file
 * Edge-case tests for the functional memory: faults on check devices,
 * lane-scope overlays, partial-bit stuck-ats, writes into groups with
 * uncorrectable errors, fault bookkeeping, and geometry validation.
 */

#include <gtest/gtest.h>

#include "arcc/arcc_memory.hh"
#include "arcc/scrubber.hh"
#include "common/rng.hh"

namespace arcc
{
namespace
{

std::vector<std::uint8_t>
randomLine(Rng &rng)
{
    std::vector<std::uint8_t> v(kLineBytes);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.below(256));
    return v;
}

TEST(ArccMemoryEdge, FaultOnACheckDeviceIsStillCorrected)
{
    // Devices 16 and 17 of a relaxed rank hold the check symbols; a
    // chipkill code must not care which device dies.
    ArccMemory mem(FunctionalConfig::arccSmall());
    Rng rng(1);
    mem.setPageMode(0, PageMode::Relaxed);
    auto data = randomLine(rng);
    mem.write(0, data);

    FunctionalFault f;
    f.channel = 0;
    f.rank = 0;
    f.device = 17; // check device.
    f.scope = FaultScope::Device;
    f.kind = FaultKind::Corrupt;
    mem.injectFault(f);

    auto r = mem.read(0);
    EXPECT_NE(r.status, DecodeStatus::Detected);
    EXPECT_EQ(r.data, data);
}

TEST(ArccMemoryEdge, LaneScopeHitsEveryRankOfTheChannel)
{
    // A lane fault is a shared data-lane defect: the same device
    // position fails in *both* ranks of the channel (Table 7.4 says
    // both ranks upgrade).
    ArccMemory mem(FunctionalConfig::arccSmall());
    Scrubber scrubber;
    scrubber.bootScrub(mem);

    FunctionalFault f;
    f.channel = 0;
    f.rank = 0; // ignored for Lane scope.
    f.device = 4;
    f.scope = FaultScope::Lane;
    f.kind = FaultKind::Corrupt;
    mem.injectFault(f);

    scrubber.scrub(mem);
    // Every page has lines in channel 0, so every page is faulty.
    EXPECT_DOUBLE_EQ(mem.pageTable().upgradedFraction(), 1.0);
}

TEST(ArccMemoryEdge, PartialBitMaskStuckAtOnlyFlipsMaskedBits)
{
    ArccMemory mem(FunctionalConfig::arccSmall());
    mem.setPageMode(0, PageMode::Relaxed);
    std::vector<std::uint8_t> zeros(kLineBytes, 0);
    mem.write(0, zeros);

    FunctionalFault f;
    f.channel = 0;
    f.rank = 0;
    f.device = 2;
    f.scope = FaultScope::Cell;
    f.bank = 0;
    f.row = 0;
    f.col = 0;
    f.kind = FaultKind::StuckAt1;
    f.mask = 0x01; // a single stuck bit per slice byte.
    mem.injectFault(f);

    auto r = mem.read(0);
    ASSERT_EQ(r.status, DecodeStatus::Corrected);
    EXPECT_EQ(r.data, zeros);
    // The corruption magnitude was exactly the masked bit: verify via
    // raw readback that unmasked bits stayed zero.
    mem.rawFill(0, 0x00);
    EXPECT_FALSE(mem.rawCheck(0, 0x00));
    mem.rawFill(0, 0xfe); // stuck bit forces 0xff there.
    EXPECT_FALSE(mem.rawCheck(0, 0xfe));
}

TEST(ArccMemoryEdge, WriteIntoDueGroupStillProducesValidCodewords)
{
    // Two dead devices make a relaxed group uncorrectable.  A write
    // must still leave *stored* codewords valid (garbage-in respected,
    // structure preserved) so later reads flag errors from the
    // overlay, not from torn encoding.
    ArccMemory mem(FunctionalConfig::arccSmall());
    Rng rng(3);
    std::uint64_t page = 0;
    mem.setPageMode(page, PageMode::Relaxed);
    mem.write(0, randomLine(rng));

    for (int dev : {3, 8}) {
        FunctionalFault f;
        f.channel = 0;
        f.rank = 0;
        f.device = dev;
        f.scope = FaultScope::Device;
        f.kind = FaultKind::Corrupt;
        mem.injectFault(f);
    }
    auto broken = mem.read(0);
    EXPECT_NE(broken.status, DecodeStatus::Clean);

    // Overwrite the line: the new write re-encodes everything.
    auto fresh = randomLine(rng);
    mem.write(0, fresh);
    // Remove the faults: the stored bits must now decode cleanly to
    // the new data (the write was not corrupted by the overlay).
    mem.clearFaults();
    auto r = mem.read(0);
    EXPECT_EQ(r.status, DecodeStatus::Clean);
    EXPECT_EQ(r.data, fresh);
}

TEST(ArccMemoryEdge, FaultBookkeeping)
{
    ArccMemory mem(FunctionalConfig::arccSmall());
    EXPECT_TRUE(mem.faults().empty());
    FunctionalFault f;
    f.channel = 1;
    f.rank = 1;
    f.device = 5;
    mem.injectFault(f);
    EXPECT_EQ(mem.faults().size(), 1u);
    mem.clearFaults();
    EXPECT_TRUE(mem.faults().empty());
}

TEST(ArccMemoryEdge, InjectFaultValidatesCoordinates)
{
    ArccMemory mem(FunctionalConfig::arccSmall());
    FunctionalFault f;
    f.channel = 9; // out of range.
    EXPECT_DEATH(mem.injectFault(f), "assertion");
}

TEST(ArccMemoryEdge, StatsCountReadsAndWrites)
{
    ArccMemory mem(FunctionalConfig::arccSmall());
    Rng rng(4);
    auto line = randomLine(rng);
    mem.write(0, line);
    mem.read(0);
    mem.read(64);
    EXPECT_EQ(mem.stats().writes, 1u);
    EXPECT_EQ(mem.stats().reads, 2u);
    EXPECT_GT(mem.stats().deviceWrites, 0u);
    EXPECT_GT(mem.stats().deviceReads, 0u);
}

TEST(ArccMemoryEdge, AccessBatchMatchesPerLineReads)
{
    // Every line of two upgraded pages, written with distinct content,
    // some lines hit by a device fault: the batched path must return
    // exactly what per-line read() returns, status included.
    ArccMemory mem(FunctionalConfig::arccSmall());
    ArccMemory ref(FunctionalConfig::arccSmall());
    Rng rng(11);
    std::vector<std::uint64_t> addrs;
    for (std::uint64_t addr = 0; addr < 2 * kPageBytes;
         addr += kLineBytes) {
        auto line = randomLine(rng);
        mem.write(addr, line);
        ref.write(addr, line);
        addrs.push_back(addr);
    }
    FunctionalFault f;
    f.channel = 0;
    f.rank = 0;
    f.device = 3;
    f.kind = FaultKind::Corrupt;
    mem.injectFault(f);
    ref.injectFault(f);

    auto batch = mem.accessBatch(addrs);
    ASSERT_EQ(batch.size(), addrs.size());
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        ReadResult one = ref.read(addrs[i]);
        EXPECT_EQ(batch[i].status, one.status) << "line " << i;
        EXPECT_EQ(batch[i].data, one.data) << "line " << i;
    }
}

TEST(ArccMemoryEdge, AccessBatchAmortizesGroupDecodes)
{
    // Upgraded pages decode a 128B group per access: a sequential
    // 64B-line sweep through accessBatch must touch the devices half
    // as often as per-line read() calls do.
    ArccMemory batched(FunctionalConfig::arccSmall());
    ArccMemory single(FunctionalConfig::arccSmall());
    std::vector<std::uint64_t> addrs;
    for (std::uint64_t addr = 0; addr < kPageBytes;
         addr += kLineBytes)
        addrs.push_back(addr);

    batched.accessBatch(addrs);
    for (std::uint64_t addr : addrs)
        single.read(addr);

    EXPECT_EQ(batched.stats().reads, single.stats().reads);
    EXPECT_EQ(2 * batched.stats().deviceReads,
              single.stats().deviceReads);
}

TEST(ArccMemoryEdge, AccessBatchCountsDecodeWorkNotLines)
{
    // corrected / dues count decode operations, so a batched sweep of
    // a faulty upgraded page (2 lines per 128B group) records half of
    // what per-line read() calls do -- while every returned line
    // still carries its own status.
    ArccMemory batched(FunctionalConfig::arccSmall());
    ArccMemory single(FunctionalConfig::arccSmall());
    FunctionalFault f;
    f.channel = 0;
    f.rank = 0;
    f.device = 2;
    f.kind = FaultKind::Corrupt;
    batched.injectFault(f);
    single.injectFault(f);

    std::vector<std::uint64_t> addrs;
    for (std::uint64_t addr = 0; addr < kPageBytes;
         addr += kLineBytes)
        addrs.push_back(addr);

    auto results = batched.accessBatch(addrs);
    for (std::uint64_t addr : addrs)
        single.read(addr);

    ASSERT_GT(single.stats().corrected, 0u);
    EXPECT_EQ(2 * batched.stats().corrected,
              single.stats().corrected);
    for (const ReadResult &r : results)
        EXPECT_EQ(r.status, DecodeStatus::Corrected);
}

TEST(ArccMemoryEdge, SpareListIsIdempotent)
{
    ArccMemory mem(FunctionalConfig::arccSmall());
    mem.spareDevice(0, 0, 7);
    mem.spareDevice(0, 0, 7);
    EXPECT_EQ(mem.sparedDevices(0, 0).size(), 1u);
    EXPECT_TRUE(mem.sparedDevices(1, 1).empty());
}

TEST(ArccMemoryEdge, GeometriesThePageTableCannotCoverAreFatal)
{
    // Three channels truncate the 128 lines of a row to 42 each: an
    // 8064-byte memory whose single page leaves a tail no page mode
    // governs (read(4160) would index past the page table).
    FunctionalConfig tail = FunctionalConfig::arccSmall();
    tail.channels = 3;
    tail.ranksPerChannel = tail.banks = tail.rows = 1;
    EXPECT_EXIT(ArccMemory{tail}, ::testing::ExitedWithCode(1),
                "capacity 8064 B .* not a whole number");

    // Whole pages, but rows do not hold whole pages per channel: the
    // rule AddressMap enforces.
    FunctionalConfig split = tail;
    split.ranksPerChannel = 2;
    split.banks = 2;
    split.rows = 8;
    ASSERT_EQ(split.capacity() % kPageBytes, 0u);
    EXPECT_EXIT(ArccMemory{split}, ::testing::ExitedWithCode(1),
                "pagesPerRow = 2 .* channels = 3");

    FunctionalConfig no_channels = FunctionalConfig::arccSmall();
    no_channels.channels = 0;
    EXPECT_EXIT(ArccMemory{no_channels}, ::testing::ExitedWithCode(1),
                "channels = 0, need at least 1");
    FunctionalConfig negative = FunctionalConfig::arccSmall();
    negative.banks = -2;
    EXPECT_EXIT(ArccMemory{negative}, ::testing::ExitedWithCode(1),
                "banks = -2, need at least 0");
    negative = FunctionalConfig::arccSmall();
    negative.pagesPerRow = -1;
    EXPECT_EXIT(ArccMemory{negative}, ::testing::ExitedWithCode(1),
                "pagesPerRow = -1");
}

} // namespace
} // namespace arcc
