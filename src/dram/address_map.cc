/**
 * @file
 * Address mapping implementation.
 *
 * All three policies keep the 64B line offset in the low six bits.  The
 * HiPerf and ClosePage policies put the channel index immediately above
 * the offset so adjacent lines alternate channels -- the property ARCC
 * depends on (Section 4.1).
 */

#include "dram/address_map.hh"

#include "common/logging.hh"
#include "common/units.hh"

namespace arcc
{

namespace
{

/** High 64 bits of the 128-bit product a * b. */
std::uint64_t
mulHigh(std::uint64_t a, std::uint64_t b)
{
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(a) * b) >> 64);
}

} // anonymous namespace

AddressMap::AddressMap(const MemoryConfig &config, MapPolicy policy)
    : policy_(policy), channels_(config.channels)
{
    // The paper's logical row: pagesPerRow 4KB pages spread across the
    // channels; each channel-row slice holds this many 64B lines.
    std::uint64_t lines =
        static_cast<std::uint64_t>(config.pagesPerRow) * kLinesPerPage /
        channels_;
    if (lines == 0 || config.pagesPerRow * kLinesPerPage %
                          static_cast<std::uint64_t>(channels_) != 0)
        fatal("AddressMap: %d pages/row does not split over %d channels",
              config.pagesPerRow, channels_);
    lines_per_row_ = static_cast<std::uint32_t>(lines);

    const int ranks = config.ranksPerChannel;
    const int banks = config.device.banks;
    capacity_ = config.dataBytes();
    std::uint64_t row_slice_bytes = lines_per_row_ * kLineBytes;
    std::uint64_t denom = static_cast<std::uint64_t>(channels_) * ranks *
                          banks * row_slice_bytes;
    if (capacity_ % denom != 0)
        fatal("AddressMap: capacity %llu not divisible by geometry",
              static_cast<unsigned long long>(capacity_));
    rows_ = static_cast<std::uint32_t>(capacity_ / denom);
    // decode's reciprocals are exact for line indices below 2^32.
    if (capacity_ / kLineBytes > (1ULL << 32))
        fatal("AddressMap: capacity %llu exceeds 2^32 lines",
              static_cast<unsigned long long>(capacity_));

    const std::uint64_t radix[kFields] = {
        static_cast<std::uint64_t>(channels_), lines_per_row_,
        static_cast<std::uint64_t>(banks),
        static_cast<std::uint64_t>(ranks)};
    std::array<Field, kFields> order{};
    switch (policy_) {
      case MapPolicy::HiPerf:
        order = {kChannel, kColumn, kBank, kRank};
        break;
      case MapPolicy::ClosePage:
        order = {kChannel, kColumn, kRank, kBank};
        break;
      case MapPolicy::Base:
        order = {kColumn, kChannel, kBank, kRank};
        break;
    }
    for (int i = 0; i < kFields; ++i)
        digits_[i] = {order[i], radix[order[i]],
                      ~0ULL / radix[order[i]]};
}

DramCoord
AddressMap::decode(std::uint64_t addr) const
{
    ARCC_ASSERT(addr < capacity_);
    std::uint64_t line = addr / kLineBytes;
    std::uint32_t field[kFields] = {};
    for (const Digit &d : digits_) {
        // line < 2^32 and radix <= 2^32, so radix * (line + 1) <= 2^64
        // and the rounded-down reciprocal gives the exact quotient.
        std::uint64_t q = mulHigh(line + 1, d.reciprocal);
        field[d.field] = static_cast<std::uint32_t>(line - q * d.radix);
        line = q;
    }
    DramCoord c;
    c.channel = static_cast<int>(field[kChannel]);
    c.column = field[kColumn];
    c.bank = static_cast<int>(field[kBank]);
    c.rank = static_cast<int>(field[kRank]);
    // addr < capacity leaves exactly the row: line < rows_.
    c.row = static_cast<std::uint32_t>(line);
    return c;
}

std::uint64_t
AddressMap::encode(const DramCoord &coord) const
{
    std::uint64_t field[kFields];
    field[kChannel] = static_cast<std::uint64_t>(coord.channel);
    field[kColumn] = coord.column;
    field[kBank] = static_cast<std::uint64_t>(coord.bank);
    field[kRank] = static_cast<std::uint64_t>(coord.rank);
    std::uint64_t line = coord.row;
    for (auto d = digits_.rbegin(); d != digits_.rend(); ++d)
        line = line * d->radix + field[d->field];
    return line * kLineBytes;
}

} // namespace arcc
