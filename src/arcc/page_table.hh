/**
 * @file
 * Page-mode bookkeeping (Section 4.2.1).
 *
 * Each physical page entry (and its TLB entry) carries a flag giving
 * the chipkill strength the page currently operates at.  The paper's
 * base design needs one bit (relaxed / upgraded); the Chapter 5.1
 * extension adds a second upgraded level, so the flag here is a small
 * enum.  The OS boots with every page upgraded and the first scrub
 * relaxes the fault-free ones.
 */

#ifndef ARCC_ARCC_PAGE_TABLE_HH
#define ARCC_ARCC_PAGE_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace arcc
{

/** Chipkill strength a page operates at. */
enum class PageMode : std::uint8_t
{
    Relaxed = 0,   ///< 2 check symbols / codeword, single-channel line.
    Upgraded = 1,  ///< 4 check symbols, two channels in lockstep.
    Upgraded2 = 2, ///< 8 check symbols, four channels (Chapter 5.1).
};

/** Display name. */
const char *toString(PageMode m);

/**
 * The per-page mode table.
 */
class PageTable
{
  public:
    /**
     * @param pages   number of 4KB physical pages.
     * @param initial boot-time mode (the paper boots Upgraded).
     */
    explicit PageTable(std::uint64_t pages,
                       PageMode initial = PageMode::Upgraded);

    /** @return current mode of a page. */
    PageMode
    mode(std::uint64_t page) const
    {
        ARCC_ASSERT(page < modes_.size());
        return modes_[page];
    }

    /** Set a page's mode (scrub-time upgrades / boot-time relaxing). */
    void setMode(std::uint64_t page, PageMode mode);

    /** Total pages tracked. */
    std::uint64_t pages() const { return modes_.size(); }

    /** Pages currently in the given mode. */
    std::uint64_t count(PageMode m) const;

    /** Fraction of pages at Upgraded or stronger. */
    double upgradedFraction() const;

    /** Lifetime number of strength increases. */
    std::uint64_t upgradesPerformed() const { return upgrades_; }
    /** Lifetime number of strength decreases. */
    std::uint64_t downgradesPerformed() const { return downgrades_; }

  private:
    std::vector<PageMode> modes_;
    std::uint64_t counts_[3] = {0, 0, 0};
    std::uint64_t upgrades_ = 0;
    std::uint64_t downgrades_ = 0;
};

} // namespace arcc

#endif // ARCC_ARCC_PAGE_TABLE_HH
