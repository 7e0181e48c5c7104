/**
 * @file
 * LLC tests: both ARCC designs of Section 4.2.3.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/llc.hh"
#include "common/rng.hh"

namespace arcc
{
namespace
{

CacheConfig
smallCache()
{
    CacheConfig c;
    c.sizeBytes = 64 * kKiB; // 64 sets x 16 ways x 64B.
    c.assoc = 16;
    return c;
}

// --- shared behaviour across both designs ------------------------------

class LlcBothDesigns : public ::testing::TestWithParam<bool>
{
  protected:
    std::unique_ptr<BaseLlc>
    make(const CacheConfig &c)
    {
        if (GetParam())
            return std::make_unique<SectoredLlc>(c);
        return std::make_unique<PairedTagLlc>(c);
    }
};

TEST_P(LlcBothDesigns, MissThenHit)
{
    auto llc = make(smallCache());
    EXPECT_FALSE(llc->access(0x1000, false, false).hit);
    EXPECT_TRUE(llc->access(0x1000, false, false).hit);
    EXPECT_TRUE(llc->access(0x1020, false, false).hit) // same line.
        << "sub-line offsets must hit";
    EXPECT_EQ(llc->stats().hits, 2u);
    EXPECT_EQ(llc->stats().misses, 1u);
}

TEST_P(LlcBothDesigns, UpgradedFillBringsTheSibling)
{
    auto llc = make(smallCache());
    EXPECT_FALSE(llc->access(0x2000, false, true).hit);
    // The 128B fetch brought the second sub-line: this is the
    // prefetch effect behind Figure 7.3's improvements.
    EXPECT_TRUE(llc->access(0x2040, false, true).hit);
}

TEST_P(LlcBothDesigns, DirtyUpgradedLineWritesBackPaired)
{
    CacheConfig cfg = smallCache();
    auto llc = make(cfg);
    llc->access(0x3000, true, true); // dirty upgraded fill.

    // Evict it by flooding its set(s) with conflicting lines.
    std::uint64_t stride = cfg.sizeBytes; // same set index, new tags.
    bool saw_paired_wb = false;
    for (int i = 1; i <= 40; ++i) {
        LlcOutcome out =
            llc->access(0x3000 + i * stride, false, false);
        for (const Writeback &wb : out.writebacks) {
            if (wb.paired) {
                saw_paired_wb = true;
                EXPECT_EQ(wb.addr % kUpgradedLineBytes, 0u)
                    << "paired writeback must be 128B-aligned";
            }
        }
    }
    EXPECT_TRUE(saw_paired_wb)
        << "both sub-lines must leave memory-ward together";
}

TEST_P(LlcBothDesigns, CleanEvictionsProduceNoWriteback)
{
    CacheConfig cfg = smallCache();
    auto llc = make(cfg);
    Rng rng(1);
    std::uint64_t wbs = 0;
    for (int i = 0; i < 4000; ++i) {
        auto out = llc->access(rng.below(1 << 24) * kLineBytes, false,
                               false);
        wbs += out.writebacks.size();
    }
    EXPECT_EQ(wbs, 0u);
}

TEST_P(LlcBothDesigns, FlushEmptiesTheCache)
{
    auto llc = make(smallCache());
    llc->access(0x4000, false, false);
    llc->flush();
    EXPECT_FALSE(llc->access(0x4000, false, false).hit);
}

INSTANTIATE_TEST_SUITE_P(Designs, LlcBothDesigns,
                         ::testing::Values(false, true));

// --- paired-tag specifics ----------------------------------------------

TEST(PairedTagLlc, LruEvictsTheColdestLine)
{
    CacheConfig cfg = smallCache();
    PairedTagLlc llc(cfg);
    std::uint64_t stride = cfg.sizeBytes; // all map to set 0.
    // Fill all 16 ways.
    for (int w = 0; w < 16; ++w)
        llc.access(w * stride, false, false);
    // Touch every way except way 3.
    for (int w = 0; w < 16; ++w)
        if (w != 3)
            llc.access(w * stride, false, false);
    // The next fill must evict way 3's line.
    llc.access(16 * stride, false, false);
    // Probe the survivors first (probing a miss would fill and evict
    // somebody else), the victim last.
    for (int w = 0; w < 16; ++w) {
        if (w != 3) {
            EXPECT_TRUE(llc.access(w * stride, false, false).hit)
                << "way " << w;
        }
    }
    EXPECT_TRUE(llc.access(16 * stride, false, false).hit);
    EXPECT_FALSE(llc.access(3 * stride, false, false).hit);
}

TEST(PairedTagLlc, SiblingRecencyIsCoupled)
{
    // Touching one sub-line must refresh the other's recency, so a
    // rarely-used sibling is not evicted from under an upgraded line
    // (Section 4.2.3).
    CacheConfig cfg = smallCache();
    PairedTagLlc llc(cfg);
    std::uint64_t stride = cfg.sizeBytes;

    llc.access(0x0, false, true); // upgraded pair in sets 0 and 1.
    // Fill the rest of set 1 (the sibling's set) with singles.
    for (int w = 1; w < 16; ++w)
        llc.access(0x40 + w * stride, false, false);
    // Keep touching ONLY the first sub-line (set 0) many times; the
    // sibling in set 1 must stay hot by recency coupling.
    for (int i = 0; i < 8; ++i)
        llc.access(0x0, false, false);
    // Now one more fill into set 1 evicts some line: it must not be
    // the sibling.
    llc.access(0x40 + 16 * stride, false, false);
    EXPECT_TRUE(llc.access(0x40, false, true).hit)
        << "coupled recency should have protected the sibling";
}

TEST(PairedTagLlc, EvictingOneSubLineDragsOutTheSibling)
{
    CacheConfig cfg = smallCache();
    PairedTagLlc llc(cfg);
    std::uint64_t stride = cfg.sizeBytes;

    llc.access(0x0, false, true); // pair in sets 0 and 1.
    // Force eviction of the set-0 sub-line by filling set 0 and never
    // touching the pair again.
    for (int w = 1; w <= 16; ++w)
        llc.access(w * stride, false, false);
    // The sibling in set 1 must have been dragged out with its mate
    // (probe the sibling first -- probing 0x0 would refill the pair).
    EXPECT_FALSE(llc.access(0x40, false, true).hit);
}

TEST(PairedTagLlc, ReplacementSignalsSecondTagAccess)
{
    CacheConfig cfg = smallCache();
    PairedTagLlc llc(cfg);
    std::uint64_t stride = cfg.sizeBytes;
    for (int w = 0; w < 16; ++w)
        EXPECT_FALSE(llc.access(w * stride, false, false).replaced);
    EXPECT_TRUE(llc.access(16 * stride, false, false).replaced);
}

// --- sectored specifics --------------------------------------------------

TEST(SectoredLlc, HalvesEffectiveCapacityForSparseAccess)
{
    // With 128B frames and single-sub-line fills, a sparse working set
    // of N distinct 64B lines occupies N frames: the sectored design
    // thrashes at half the distinct-line capacity of the paired-tag
    // design.  This is the paper's argument for rejecting it.
    CacheConfig cfg = smallCache();
    PairedTagLlc paired(cfg);
    SectoredLlc sectored(cfg);

    // Working set: 600 random lines, one per 128B frame (no spatial
    // pairs).  That fits the 1024-line paired-tag design comfortably
    // but overflows the sectored design's 512 frames.
    Rng rng(2);
    std::vector<std::uint64_t> lines;
    for (int i = 0; i < 600; ++i) {
        // One random 64B line per 128B frame; the random sub-line
        // offset spreads the lines over all of the paired design's
        // sets (a fixed offset would alias to the even sets only).
        lines.push_back(rng.below(1 << 20) * kUpgradedLineBytes +
                        rng.below(2) * kLineBytes);
    }
    for (int pass = 0; pass < 6; ++pass) {
        for (std::uint64_t addr : lines) {
            paired.access(addr, false, false);
            sectored.access(addr, false, false);
        }
    }
    EXPECT_GT(sectored.stats().missRate(),
              paired.stats().missRate() * 1.5);
}

TEST(SectoredLlc, SecondSubsectorFillsWithoutEviction)
{
    CacheConfig cfg = smallCache();
    SectoredLlc llc(cfg);
    EXPECT_FALSE(llc.access(0x0, false, false).hit);
    LlcOutcome out = llc.access(0x40, false, false);
    EXPECT_FALSE(out.hit);
    EXPECT_FALSE(out.replaced) << "same frame, no victim needed";
    EXPECT_TRUE(llc.access(0x0, false, false).hit);
    EXPECT_TRUE(llc.access(0x40, false, false).hit);
}


// --- the recency-ordered design against the original model -------------

/**
 * The paired-tag design as first written: an array of 24-byte ways
 * stamped from a per-access clock, whose victim is the first invalid
 * way, else the least recently used one.  PairedTagLlc keeps each set
 * in recency order instead and must agree with this access for access.
 */
class ReferencePairedTagLlc : public BaseLlc
{
  public:
    explicit ReferencePairedTagLlc(const CacheConfig &config)
        : BaseLlc(config),
          sets_(config.sizeBytes /
                (static_cast<std::uint64_t>(config.assoc) *
                 config.lineBytes)),
          lines_(sets_ * config.assoc)
    {
    }

    LlcOutcome
    access(std::uint64_t addr, bool is_write, bool upgraded) override
    {
        LlcOutcome out;
        ++clock_;
        std::uint64_t line_addr = addr & ~(kLineBytes - 1);
        if (Line *l = find(line_addr)) {
            out.hit = true;
            ++stats_.hits;
            l->lastUse = clock_;
            if (is_write)
                l->dirty = true;
            if (l->upgraded) {
                if (Line *sib = find(line_addr ^ kLineBytes))
                    sib->lastUse = clock_;
            }
            return out;
        }
        ++stats_.misses;
        fill(line_addr, is_write, upgraded, out);
        if (upgraded) {
            std::uint64_t sib = line_addr ^ kLineBytes;
            if (Line *l = find(sib))
                l->upgraded = true;
            else
                fill(sib, /*dirty=*/false, /*upgraded=*/true, out);
            ++stats_.pairedFills;
        }
        return out;
    }

    void
    flush() override
    {
        for (Line &l : lines_)
            l = Line{};
        clock_ = 0;
    }

    bool checkInvariants() const override { return true; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        bool upgraded = false;
        std::uint64_t lineAddr = 0;
        std::uint64_t lastUse = 0;
    };

    Line *
    set(std::uint64_t line_addr)
    {
        return &lines_[((line_addr / kLineBytes) & (sets_ - 1)) *
                       config_.assoc];
    }

    Line *
    find(std::uint64_t line_addr)
    {
        Line *base = set(line_addr);
        for (int w = 0; w < config_.assoc; ++w)
            if (base[w].valid && base[w].lineAddr == line_addr)
                return &base[w];
        return nullptr;
    }

    void
    fill(std::uint64_t line_addr, bool dirty, bool upgraded,
         LlcOutcome &out)
    {
        Line *base = set(line_addr);
        Line *slot = nullptr;
        for (int w = 0; w < config_.assoc && !slot; ++w)
            if (!base[w].valid)
                slot = &base[w];
        if (!slot) {
            slot = &base[0];
            for (int w = 1; w < config_.assoc; ++w)
                if (base[w].lastUse < slot->lastUse)
                    slot = &base[w];
        }
        if (slot->valid) {
            out.replaced = true;
            ++stats_.evictions;
            if (slot->dirty) {
                Writeback wb;
                wb.addr = slot->upgraded
                              ? slot->lineAddr & ~(kUpgradedLineBytes - 1)
                              : slot->lineAddr;
                wb.paired = slot->upgraded;
                out.writebacks.push_back(wb);
                if (slot->upgraded)
                    ++stats_.pairedWritebacks;
            }
            if (slot->upgraded) {
                // The sibling leaves too, covered by the paired
                // writeback above.
                slot->valid = false;
                if (Line *sib = find(slot->lineAddr ^ kLineBytes)) {
                    sib->valid = false;
                    ++stats_.evictions;
                }
            }
        }
        *slot = Line{true, dirty, upgraded, line_addr, clock_};
    }

    std::uint64_t sets_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
};

/**
 * One seeded stream through PairedTagLlc and the reference: runs of
 * adjacent lines between jumps (a hot eighth of the footprint takes a
 * third of the jumps), 30% writes, over four times the cache's lines.
 * Pages upgrade one by one as the run goes on, the way faults upgrade
 * them, so the stream mixes relaxed and upgraded lines and turns
 * resident relaxed lines into siblings of upgraded ones.
 */
void
expectMatchesReference(const CacheConfig &cfg, int accesses)
{
    PairedTagLlc llc(cfg);
    ReferencePairedTagLlc ref(cfg);
    const std::uint64_t lines = 4 * cfg.sizeBytes / kLineBytes;
    auto upgraded_at = [&](std::uint64_t addr, int i) {
        std::uint64_t z = Rng::mix64(addr / kPageBytes);
        return z % (accesses + accesses / 2) < static_cast<unsigned>(i);
    };
    Rng rng(2013);
    std::uint64_t line = 0;
    std::uint64_t paired_wbs = 0, single_wbs = 0;
    for (int i = 0; i < accesses; ++i) {
        if (rng.chance(0.5))
            line = (line + 1) % lines;
        else if (rng.chance(0.3))
            line = rng.below(lines / 8);
        else
            line = rng.below(lines);
        const std::uint64_t addr = line * kLineBytes + rng.below(kLineBytes);
        const bool write = rng.chance(0.3);
        const bool upgraded = upgraded_at(addr, i);

        const LlcOutcome got = llc.access(addr, write, upgraded);
        const LlcOutcome want = ref.access(addr, write, upgraded);
        ASSERT_EQ(got.hit, want.hit) << "access " << i;
        ASSERT_EQ(got.replaced, want.replaced) << "access " << i;
        ASSERT_EQ(got.writebacks.size(), want.writebacks.size())
            << "access " << i;
        for (std::size_t k = 0; k < got.writebacks.size(); ++k) {
            ASSERT_EQ(got.writebacks[k].addr, want.writebacks[k].addr)
                << "access " << i << " writeback " << k;
            ASSERT_EQ(got.writebacks[k].paired, want.writebacks[k].paired)
                << "access " << i << " writeback " << k;
            ++(got.writebacks[k].paired ? paired_wbs : single_wbs);
        }
        if (i % 256 == 0) {
            ASSERT_TRUE(llc.checkInvariants()) << "after access " << i;
        }
    }
    EXPECT_TRUE(llc.checkInvariants());

    const LlcStats &a = llc.stats(), &b = ref.stats();
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.pairedFills, b.pairedFills);
    EXPECT_EQ(a.pairedWritebacks, b.pairedWritebacks);
    // The stream reached every path it is meant to compare.
    EXPECT_GT(a.hits, static_cast<std::uint64_t>(accesses) / 10);
    EXPECT_GT(a.pairedFills, static_cast<std::uint64_t>(accesses) / 10);
    EXPECT_GT(paired_wbs, 100u);
    EXPECT_GT(single_wbs, 100u);
}

TEST(PairedTagLlc, MatchesTheReferenceModelAtTheTestGeometry)
{
    expectMatchesReference(smallCache(), 100000);
}

TEST(PairedTagLlc, MatchesTheReferenceModelAtTheDefaultGeometry)
{
    CacheConfig cfg; // 1 MiB, 16-way: the system simulator's LLC.
    ASSERT_EQ(cfg.sizeBytes, 1 * kMiB);
    ASSERT_EQ(cfg.assoc, 16);
    expectMatchesReference(cfg, 400000);
}

// --- structural invariants under random traffic --------------------------

class LlcInvariantSweep : public ::testing::TestWithParam<bool>
{
};

TEST_P(LlcInvariantSweep, HoldUnderRandomMixedTraffic)
{
    CacheConfig cfg = smallCache();
    std::unique_ptr<BaseLlc> llc;
    if (GetParam())
        llc = std::make_unique<SectoredLlc>(cfg);
    else
        llc = std::make_unique<PairedTagLlc>(cfg);

    Rng rng(99);
    // Pages alternate upgraded / relaxed deterministically by hash so
    // the upgraded flag is consistent per 128B pair.
    auto page_upgraded = [](std::uint64_t addr) {
        std::uint64_t z = (addr / kPageBytes) * 0x9e3779b97f4a7c15ULL;
        z ^= z >> 31;
        return (z & 1) != 0;
    };
    for (int i = 0; i < 30000; ++i) {
        std::uint64_t addr = rng.below(1 << 22) * kLineBytes;
        llc->access(addr, rng.chance(0.3), page_upgraded(addr));
        if (i % 512 == 0) {
            ASSERT_TRUE(llc->checkInvariants()) << "after access " << i;
        }
    }
    EXPECT_TRUE(llc->checkInvariants());
}

INSTANTIATE_TEST_SUITE_P(Designs, LlcInvariantSweep,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool> &i) {
                             return i.param ? "sectored" : "pairedTag";
                         });

} // namespace
} // namespace arcc
