/**
 * @file
 * Physical-address-to-DRAM-coordinate mapping.
 *
 * Section 4.1 of the paper relies on the conventional mapping policies
 * (SDRAM_BASE_MAP, SDRAM_HIPERF_MAP, SDRAM_CLOSE_PAGE_MAP in DRAMsim
 * terms) placing *adjacent 64B lines in different memory channels*;
 * that property is what lets an upgraded 128B line be fetched from two
 * channels in parallel.  The high-performance map is the paper's
 * default and ours.
 *
 * Row geometry follows the paper's explicit assumption of **two 4KB
 * pages per row** (Section 7.1): a logical row holds 8KB of data split
 * across the channels, so with two channels each channel-row holds 64
 * lines.  Under the HiPerf map a 4KB page therefore occupies exactly
 * one (rank, bank, row, page-half) and spreads its 64 lines over all
 * (channel, column) combinations -- which is precisely the geometry
 * Table 7.4's "fraction of pages upgraded" numbers assume (device
 * fault -> 1/2 of pages, bank fault -> 1/16, column fault -> 1/32).
 */

#ifndef ARCC_DRAM_ADDRESS_MAP_HH
#define ARCC_DRAM_ADDRESS_MAP_HH

#include <array>
#include <cstdint>

#include "common/units.hh"
#include "dram/dram_params.hh"

namespace arcc
{

/** DRAM coordinates of one 64B line. */
struct DramCoord
{
    int channel = 0;
    int rank = 0;
    int bank = 0;
    std::uint32_t row = 0;
    /** 64B-line index within the channel's row slice. */
    std::uint32_t column = 0;

    bool
    operator==(const DramCoord &o) const
    {
        return channel == o.channel && rank == o.rank &&
               bank == o.bank && row == o.row && column == o.column;
    }
};

/** Address-interleave policy (DRAMsim naming). */
enum class MapPolicy
{
    /** line bits low->high: channel, column, bank, rank, row. */
    HiPerf,
    /** line bits low->high: channel, column, rank, bank, row. */
    ClosePage,
    /** line bits low->high: column, channel, bank, rank, row. */
    Base,
};

/**
 * Bidirectional mapper between physical byte addresses and DRAM
 * coordinates for a given MemoryConfig.
 */
class AddressMap
{
  public:
    AddressMap(const MemoryConfig &config,
               MapPolicy policy = MapPolicy::HiPerf);

    /**
     * @param addr physical byte address (any alignment; reduced to
     *             its 64B line internally).  Must be < capacity().
     * @return coordinates of the line containing addr.  Divides by
     *         multiplying with precomputed reciprocals, exact for
     *         every line of a map of at most 2^32 lines.
     */
    DramCoord decode(std::uint64_t addr) const;

    /**
     * @param coord valid coordinates for this map's geometry.
     * @return byte address (line-aligned) of the given coordinates.
     */
    std::uint64_t encode(const DramCoord &coord) const;

    /** @return total mapped bytes (the config's data capacity). */
    std::uint64_t capacity() const { return capacity_; }

    /** @return 64B lines within one channel's slice of a row. */
    std::uint32_t linesPerRow() const { return lines_per_row_; }

    /** @return logical rows per bank. */
    std::uint32_t rows() const { return rows_; }

    /** @return memory channels the map interleaves over. */
    int channels() const { return channels_; }

    /** @return 64B lines mapped to each channel (uniform: every
     *  policy spreads the capacity evenly over the channels). */
    std::uint64_t linesPerChannel() const
    {
        return capacity_ / kLineBytes / channels_;
    }

    /** @return the interleave policy this map implements. */
    MapPolicy policy() const { return policy_; }

  private:
    /** The coordinates below the row, in a mixed-radix line index. */
    enum Field
    {
        kChannel,
        kColumn,
        kBank,
        kRank,
        kFields
    };

    /** One digit of the line index (the policy orders them). */
    struct Digit
    {
        Field field;
        std::uint64_t radix;
        /** floor((2^64 - 1) / radix): for n < 2^32,
         *  n / radix == (n + 1) * reciprocal >> 64. */
        std::uint64_t reciprocal;
    };

    MapPolicy policy_;
    int channels_;
    std::uint32_t rows_;
    std::uint32_t lines_per_row_;
    std::uint64_t capacity_;
    /** The digits below the row, least significant first. */
    std::array<Digit, kFields> digits_;
};

} // namespace arcc

#endif // ARCC_DRAM_ADDRESS_MAP_HH
