/**
 * @file
 * Last-level cache models with ARCC upgraded-line support.
 *
 * Section 4.2.3 of the paper needs the LLC to hold both relaxed 64B
 * lines and upgraded 128B lines, and to write *both* sub-lines of an
 * upgraded line back together (the four check symbols of each codeword
 * span both sub-lines).  Two designs are provided:
 *
 *  - PairedTagLlc (the paper's proposal): a conventional 64B-line LLC
 *    where each tag carries an "upgraded" bit.  The two sub-lines of an
 *    upgraded line land in adjacent sets (their addresses differ by one
 *    line).  The replacement policy uses the recency of the most
 *    recently used sub-line for both, and evicting one sub-line drags
 *    its sibling out with it.  Each replacement needs a second tag
 *    access (the caller charges the latency).
 *
 *  - SectoredLlc (the alternative the paper rejects): 128B sectors with
 *    two 64B sub-sector valid bits.  Costs effective capacity when
 *    spatial locality is low.
 */

#ifndef ARCC_CACHE_LLC_HH
#define ARCC_CACHE_LLC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"

namespace arcc
{

/** LLC geometry. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 1 * kMiB;
    int assoc = 16;
    int lineBytes = 64;
    /** Hit latency in ns (Table 7.2: 10 cycles). */
    double hitLatencyNs = 3.4;
    /** Extra latency charged per replacement second tag access (ns). */
    double secondTagAccessNs = 1.0;
};

/** A writeback the cache wants sent to memory. */
struct Writeback
{
    std::uint64_t addr = 0;
    /** True when this is a paired 128B (upgraded-line) writeback. */
    bool paired = false;
};

/**
 * The dirty evictions of one access, held inline so that no access
 * allocates.  Either design evicts at most two dirty lines per access:
 * the paired-tag design one per fill (the demand line and, for an
 * upgraded miss, its sibling), the sectored design the two sub-sectors
 * of one frame.
 */
class WritebackList
{
  public:
    static constexpr std::size_t kCapacity = 2;

    void
    push_back(const Writeback &wb)
    {
        ARCC_ASSERT(size_ < kCapacity);
        items_[size_++] = wb;
    }

    const Writeback *begin() const { return items_; }
    const Writeback *end() const { return items_ + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const Writeback &operator[](std::size_t i) const { return items_[i]; }

  private:
    Writeback items_[kCapacity];
    std::size_t size_ = 0;
};

/** Outcome of one LLC access. */
struct LlcOutcome
{
    bool hit = false;
    /** A replacement happened (charge the second tag access). */
    bool replaced = false;
    /** Dirty evictions to forward to memory, in eviction order. */
    WritebackList writebacks;
};

/** Running LLC statistics. */
struct LlcStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t pairedFills = 0;
    std::uint64_t pairedWritebacks = 0;

    double
    missRate() const
    {
        std::uint64_t total = hits + misses;
        return total ? static_cast<double>(misses) / total : 0.0;
    }
};

/** Interface shared by the two LLC designs. */
class BaseLlc
{
  public:
    explicit BaseLlc(const CacheConfig &config) : config_(config) {}
    virtual ~BaseLlc() = default;

    /**
     * Access one 64B line.
     *
     * @param addr     byte address (any alignment; line-aligned inside).
     * @param is_write  store (marks the line dirty).
     * @param upgraded the line belongs to an upgraded page: on a miss
     *                 the fill brings both sub-lines of the 128B pair.
     */
    virtual LlcOutcome access(std::uint64_t addr, bool is_write,
                              bool upgraded) = 0;

    const LlcStats &stats() const { return stats_; }
    const CacheConfig &config() const { return config_; }

    /** Invalidate everything (used between experiment phases). */
    virtual void flush() = 0;

    /**
     * Structural self-check (debug hook): verifies the design's
     * internal invariants -- e.g. that every upgraded sub-line's
     * sibling is resident and also flagged.  @return true when sound.
     */
    virtual bool checkInvariants() const = 0;

  protected:
    CacheConfig config_;
    LlcStats stats_;
};

/**
 * The paper's paired-tag 64B-line design.
 *
 * Each way is one word: the line address with the dirty and upgraded
 * flags in its (always zero) offset bits, or kEmpty.  A set keeps its
 * ways in recency order, most recent first and empty ways last, so a
 * fill evicts the last way and a touch moves one way to the front.
 */
class PairedTagLlc : public BaseLlc
{
  public:
    explicit PairedTagLlc(const CacheConfig &config);

    LlcOutcome access(std::uint64_t addr, bool is_write,
                      bool upgraded) override;
    void flush() override;
    bool checkInvariants() const override;

  private:
    static constexpr std::uint64_t kDirty = 1;
    static constexpr std::uint64_t kUpgraded = 2;
    static constexpr std::uint64_t kFlags = kDirty | kUpgraded;
    /** An empty way; its flag-free bits are never a line address. */
    static constexpr std::uint64_t kEmpty = ~0ULL;

    std::uint64_t setOf(std::uint64_t line_addr) const;
    std::uint64_t *ways(std::uint64_t line_addr);
    /** @return the way of `set` holding line_addr, or -1. */
    int find(const std::uint64_t *set, std::uint64_t line_addr) const;
    /** Make way `w` of `set` the most recently used. */
    void touch(std::uint64_t *set, int w);
    /** Insert `entry` as the most recent way of `set`, evicting the
     *  least recent one (and an upgraded victim's sibling). */
    void fill(std::uint64_t *set, std::uint64_t entry, LlcOutcome &out);

    std::uint64_t sets_;
    int assoc_;
    std::vector<std::uint64_t> ways_; // sets_ x assoc_
};

/** The sectored alternative. */
class SectoredLlc : public BaseLlc
{
  public:
    explicit SectoredLlc(const CacheConfig &config);

    LlcOutcome access(std::uint64_t addr, bool is_write,
                      bool upgraded) override;
    void flush() override;
    bool checkInvariants() const override;

  private:
    struct Frame
    {
        bool valid = false;
        bool upgraded = false;
        bool subValid[2] = {false, false};
        bool subDirty[2] = {false, false};
        std::uint64_t frameAddr = 0;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t setOf(std::uint64_t frame_addr) const;
    Frame *find(std::uint64_t frame_addr);
    int victimWay(std::uint64_t set) const;
    void evictFrame(Frame &f, LlcOutcome &out);

    std::uint64_t sets_;
    std::vector<Frame> frames_;
    std::uint64_t clock_ = 0;
};

} // namespace arcc

#endif // ARCC_CACHE_LLC_HH
