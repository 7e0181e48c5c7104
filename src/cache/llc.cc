/**
 * @file
 * LLC model implementations.
 */

#include "cache/llc.hh"

#include <algorithm>

#include "common/logging.hh"

namespace arcc
{

namespace
{

/** Sibling 64B line of addr within its 128B pair. */
std::uint64_t
pairSibling(std::uint64_t line_addr)
{
    return line_addr ^ kLineBytes;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// PairedTagLlc
// ---------------------------------------------------------------------

PairedTagLlc::PairedTagLlc(const CacheConfig &config)
    : BaseLlc(config), assoc_(config.assoc)
{
    static_assert(kFlags < kLineBytes, "flags live in the line offset");
    sets_ = config.sizeBytes /
            (static_cast<std::uint64_t>(config.assoc) * config.lineBytes);
    ARCC_ASSERT(sets_ > 1 && (sets_ & (sets_ - 1)) == 0);
    ways_.assign(sets_ * assoc_, kEmpty);
}

std::uint64_t
PairedTagLlc::setOf(std::uint64_t line_addr) const
{
    return (line_addr / kLineBytes) & (sets_ - 1);
}

std::uint64_t *
PairedTagLlc::ways(std::uint64_t line_addr)
{
    return &ways_[setOf(line_addr) * assoc_];
}

int
PairedTagLlc::find(const std::uint64_t *set, std::uint64_t line_addr) const
{
    for (int w = 0; w < assoc_; ++w) {
        if ((set[w] & ~kFlags) == line_addr)
            return w;
    }
    return -1;
}

void
PairedTagLlc::touch(std::uint64_t *set, int w)
{
    std::uint64_t entry = set[w];
    std::copy_backward(set, set + w, set + w + 1);
    set[0] = entry;
}

void
PairedTagLlc::fill(std::uint64_t *set, std::uint64_t entry,
                   LlcOutcome &out)
{
    const std::uint64_t victim = set[assoc_ - 1];
    std::copy_backward(set, set + assoc_ - 1, set + assoc_);
    set[0] = entry;
    if (victim == kEmpty)
        return;

    out.replaced = true;
    ++stats_.evictions;
    const std::uint64_t line_addr = victim & ~kFlags;
    const bool upgraded = (victim & kUpgraded) != 0;
    if (victim & kDirty) {
        Writeback wb;
        wb.addr = upgraded ? (line_addr & ~(kUpgradedLineBytes - 1))
                           : line_addr;
        wb.paired = upgraded;
        out.writebacks.push_back(wb);
        if (upgraded)
            ++stats_.pairedWritebacks;
    }
    if (upgraded) {
        // Both sub-lines leave together; the sibling was already
        // covered by the paired writeback above.  It lives in the
        // adjacent set, never in this one.
        std::uint64_t sib = pairSibling(line_addr);
        std::uint64_t *sset = ways(sib);
        int w = find(sset, sib);
        if (w >= 0) {
            std::copy(sset + w + 1, sset + assoc_, sset + w);
            sset[assoc_ - 1] = kEmpty;
            ++stats_.evictions;
        }
    }
}

LlcOutcome
PairedTagLlc::access(std::uint64_t addr, bool is_write, bool upgraded)
{
    LlcOutcome out;
    const std::uint64_t line_addr = addr & ~(kLineBytes - 1);
    const std::uint64_t dirty = is_write ? kDirty : 0;

    std::uint64_t *set = ways(line_addr);
    int w = find(set, line_addr);
    if (w >= 0) {
        out.hit = true;
        ++stats_.hits;
        set[w] |= dirty;
        touch(set, w);
        if (set[0] & kUpgraded) {
            // Keep the sibling's recency in sync (coupled recency).
            std::uint64_t sib = pairSibling(line_addr);
            std::uint64_t *sset = ways(sib);
            int sw = find(sset, sib);
            if (sw >= 0)
                touch(sset, sw);
        }
        return out;
    }

    ++stats_.misses;
    fill(set, line_addr | dirty | (upgraded ? kUpgraded : 0), out);
    if (upgraded) {
        // The 128B fetch brings the sibling too.
        std::uint64_t sib = pairSibling(line_addr);
        std::uint64_t *sset = ways(sib);
        int sw = find(sset, sib);
        if (sw < 0)
            fill(sset, sib | kUpgraded, out);
        else
            sset[sw] |= kUpgraded;
        ++stats_.pairedFills;
    }
    return out;
}

void
PairedTagLlc::flush()
{
    std::fill(ways_.begin(), ways_.end(), kEmpty);
}

bool
PairedTagLlc::checkInvariants() const
{
    for (std::uint64_t set = 0; set < sets_; ++set) {
        const std::uint64_t *base = &ways_[set * assoc_];
        bool empty_seen = false;
        for (int w = 0; w < assoc_; ++w) {
            const std::uint64_t entry = base[w];
            // Empty ways sit behind every valid one.
            if (entry == kEmpty) {
                empty_seen = true;
                continue;
            }
            if (empty_seen)
                return false;
            const std::uint64_t line_addr = entry & ~kFlags;
            // Only the flags use the offset bits, and the tag maps
            // back to its set.
            if (line_addr % kLineBytes != 0 || setOf(line_addr) != set)
                return false;
            if (!(entry & kUpgraded))
                continue;
            // Upgraded invariant: the sibling is resident in the
            // adjacent set and flagged.
            std::uint64_t sib = pairSibling(line_addr);
            const std::uint64_t *sset = &ways_[setOf(sib) * assoc_];
            int sw = find(sset, sib);
            if (sw < 0 || !(sset[sw] & kUpgraded))
                return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// SectoredLlc
// ---------------------------------------------------------------------

SectoredLlc::SectoredLlc(const CacheConfig &config)
    : BaseLlc(config)
{
    sets_ = config.sizeBytes / (static_cast<std::uint64_t>(config.assoc) *
                                kUpgradedLineBytes);
    ARCC_ASSERT(sets_ > 1 && (sets_ & (sets_ - 1)) == 0);
    frames_.assign(sets_ * config.assoc, Frame{});
}

std::uint64_t
SectoredLlc::setOf(std::uint64_t frame_addr) const
{
    return (frame_addr / kUpgradedLineBytes) & (sets_ - 1);
}

SectoredLlc::Frame *
SectoredLlc::find(std::uint64_t frame_addr)
{
    std::uint64_t set = setOf(frame_addr);
    Frame *base = &frames_[set * config_.assoc];
    for (int w = 0; w < config_.assoc; ++w) {
        if (base[w].valid && base[w].frameAddr == frame_addr)
            return &base[w];
    }
    return nullptr;
}

int
SectoredLlc::victimWay(std::uint64_t set) const
{
    const Frame *base = &frames_[set * config_.assoc];
    int victim = 0;
    std::uint64_t best = ~0ULL;
    for (int w = 0; w < config_.assoc; ++w) {
        if (!base[w].valid)
            return w;
        if (base[w].lastUse < best) {
            best = base[w].lastUse;
            victim = w;
        }
    }
    return victim;
}

void
SectoredLlc::evictFrame(Frame &f, LlcOutcome &out)
{
    if (f.upgraded && (f.subDirty[0] || f.subDirty[1])) {
        Writeback wb;
        wb.addr = f.frameAddr;
        wb.paired = true;
        out.writebacks.push_back(wb);
        ++stats_.pairedWritebacks;
    } else {
        for (int s = 0; s < 2; ++s) {
            if (f.subValid[s] && f.subDirty[s]) {
                Writeback wb;
                wb.addr = f.frameAddr + s * kLineBytes;
                wb.paired = false;
                out.writebacks.push_back(wb);
            }
        }
    }
    f.valid = false;
    ++stats_.evictions;
}

LlcOutcome
SectoredLlc::access(std::uint64_t addr, bool is_write, bool upgraded)
{
    LlcOutcome out;
    ++clock_;
    std::uint64_t line_addr = addr & ~(kLineBytes - 1);
    std::uint64_t frame_addr = addr & ~(kUpgradedLineBytes - 1);
    int sub = static_cast<int>((line_addr - frame_addr) / kLineBytes);

    Frame *f = find(frame_addr);
    if (f && f->subValid[sub]) {
        out.hit = true;
        ++stats_.hits;
        f->lastUse = clock_;
        if (is_write)
            f->subDirty[sub] = true;
        return out;
    }

    ++stats_.misses;
    if (!f) {
        std::uint64_t set = setOf(frame_addr);
        int way = victimWay(set);
        Frame &slot = frames_[set * config_.assoc + way];
        if (slot.valid) {
            out.replaced = true;
            evictFrame(slot, out);
        }
        slot.valid = true;
        slot.upgraded = false;
        slot.subValid[0] = slot.subValid[1] = false;
        slot.subDirty[0] = slot.subDirty[1] = false;
        slot.frameAddr = frame_addr;
        f = &slot;
    }
    f->lastUse = clock_;
    f->subValid[sub] = true;
    f->subDirty[sub] = f->subDirty[sub] || is_write;
    if (upgraded) {
        f->upgraded = true;
        f->subValid[0] = f->subValid[1] = true;
        ++stats_.pairedFills;
    }
    return out;
}

void
SectoredLlc::flush()
{
    for (auto &f : frames_)
        f = Frame{};
    clock_ = 0;
}

bool
SectoredLlc::checkInvariants() const
{
    for (std::uint64_t set = 0; set < sets_; ++set) {
        for (int w = 0; w < config_.assoc; ++w) {
            const Frame &f = frames_[set * config_.assoc + w];
            if (!f.valid)
                continue;
            if (setOf(f.frameAddr) != set)
                return false;
            if (f.frameAddr % kUpgradedLineBytes != 0)
                return false;
            // An upgraded frame always holds both sub-sectors.
            if (f.upgraded && (!f.subValid[0] || !f.subValid[1]))
                return false;
            // A dirty sub-sector must be valid.
            for (int sx = 0; sx < 2; ++sx)
                if (f.subDirty[sx] && !f.subValid[sx])
                    return false;
        }
    }
    return true;
}

} // namespace arcc
