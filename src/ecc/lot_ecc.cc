/**
 * @file
 * LOT-ECC functional encode / localise / reconstruct.
 */

#include "ecc/lot_ecc.hh"

#include <algorithm>

#include "common/logging.hh"

namespace arcc
{

namespace
{

/** The big-endian checksum stored after a row's slice. */
std::uint16_t
storedChecksum(std::span<const std::uint8_t> row, int slice_bytes)
{
    return static_cast<std::uint16_t>((row[slice_bytes] << 8) |
                                      row[slice_bytes + 1]);
}

/** Checksum a row's slice into the row's trailing two bytes. */
void
sealRow(std::span<std::uint8_t> row, int slice_bytes)
{
    const std::uint16_t sum =
        OnesComplement16::compute(row.first(slice_bytes));
    row[slice_bytes] = static_cast<std::uint8_t>(sum >> 8);
    row[slice_bytes + 1] = static_cast<std::uint8_t>(sum & 0xff);
}

} // anonymous namespace

LotEcc::LotEcc(int dataDevices, int lineBytes)
    : dataDevices_(dataDevices), lineBytes_(lineBytes)
{
    if (dataDevices != 8 && dataDevices != 16)
        fatal("LotEcc: dataDevices must be 8 or 16, got %d", dataDevices);
    if (lineBytes % dataDevices != 0)
        fatal("LotEcc: line of %d bytes does not stripe over %d devices",
              lineBytes, dataDevices);
    sliceBytes_ = lineBytes / dataDevices;
}

void
LotEcc::encodeInto(std::span<const std::uint8_t> line,
                   std::span<std::uint8_t> rows) const
{
    ARCC_ASSERT(line.size() == static_cast<std::size_t>(lineBytes_));
    const int rb = rowBytes();
    ARCC_ASSERT(rows.size() ==
                static_cast<std::size_t>(dataDevices_ + 1) * rb);

    const std::span<std::uint8_t> parity =
        rows.subspan(static_cast<std::size_t>(dataDevices_) * rb,
                     sliceBytes_);
    std::fill(parity.begin(), parity.end(), 0);
    for (int d = 0; d < dataDevices_; ++d) {
        const std::span<std::uint8_t> row = rows.subspan(d * rb, rb);
        std::copy_n(line.begin() + d * sliceBytes_, sliceBytes_,
                    row.begin());
        xorInto(parity, row.first(sliceBytes_));
        sealRow(row, sliceBytes_);
    }
    sealRow(rows.subspan(static_cast<std::size_t>(dataDevices_) * rb, rb),
            sliceBytes_);
}

LotDecodeResult
LotEcc::decode(std::span<std::uint8_t> rows,
               std::span<const int> erased) const
{
    const int rb = rowBytes();
    ARCC_ASSERT(rows.size() ==
                static_cast<std::size_t>(dataDevices_ + 1) * rb);

    LotDecodeResult res;

    // Tier-1: localise via the per-device checksums.  An erased device
    // is a mismatch by diagnosis, whatever its row holds.
    int bad_count = 0;
    int victim = -1;
    for (int d = 0; d <= dataDevices_; ++d) {
        const std::span<const std::uint8_t> row = rows.subspan(d * rb, rb);
        const bool bad =
            std::find(erased.begin(), erased.end(), d) != erased.end() ||
            !OnesComplement16::verify(row.first(sliceBytes_),
                                      storedChecksum(row, sliceBytes_));
        if (bad) {
            if (bad_count == 0)
                victim = d;
            ++bad_count;
        }
    }

    if (bad_count == 0) {
        // Either genuinely clean or an aliasing corruption the real
        // scheme would also miss.  Faithfully report Clean.
        res.status = DecodeStatus::Clean;
        return res;
    }
    if (bad_count > 1) {
        res.status = DecodeStatus::Detected;
        return res;
    }

    // Tier-2: reconstruct the single bad slice from the XOR of all the
    // other slices (parity included, unless parity itself is bad).
    const std::span<std::uint8_t> fix =
        rows.subspan(victim * rb, sliceBytes_);
    std::fill(fix.begin(), fix.end(), 0);
    for (int d = 0; d <= dataDevices_; ++d)
        if (d != victim)
            xorInto(fix, rows.subspan(d * rb, sliceBytes_));
    sealRow(rows.subspan(victim * rb, rb), sliceBytes_);

    res.status = DecodeStatus::Corrected;
    res.deviceCorrected = victim;
    return res;
}

void
LotEcc::extractInto(std::span<const std::uint8_t> rows,
                    std::span<std::uint8_t> out) const
{
    ARCC_ASSERT(out.size() == static_cast<std::size_t>(lineBytes_));
    const int rb = rowBytes();
    for (int d = 0; d < dataDevices_; ++d)
        std::copy_n(rows.begin() + d * rb, sliceBytes_,
                    out.begin() + d * sliceBytes_);
}

} // namespace arcc
