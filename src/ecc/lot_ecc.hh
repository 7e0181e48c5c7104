/**
 * @file
 * Functional model of LOT-ECC line protection (Chapters 2 and 5.2).
 *
 * Two geometries are modelled:
 *
 *  - **9-device** (the ISCA'12 configuration): a 64B line is striped
 *    8 bytes per device across 8 data devices; the 9th device stores
 *    the XOR of the 8 slices.  Each data device additionally keeps a
 *    local ones'-complement checksum of its slice for detection and
 *    localisation.  Corrects one bad device (single chipkill correct).
 *
 *  - **18-device** (the extension ARCC enables, Chapter 5.2): a 64B
 *    line is striped 4 bytes per device across 16 data devices; the
 *    17th device stores XOR parity and the 18th is a *spare* to which
 *    a diagnosed bad device's slice is remapped, providing double chip
 *    sparing.  The checksums live in a different line of the same row,
 *    which is why reads to upgraded pages cost an extra access (that
 *    cost is modelled in the performance plane, not here).
 *
 * The tier-1 checksum caveat is faithfully preserved: corruption whose
 * slice still matches its checksum is *not* detected here, exactly as
 * in the real scheme.
 */

#ifndef ARCC_ECC_LOT_ECC_HH
#define ARCC_ECC_LOT_ECC_HH

#include <cstdint>
#include <span>

#include "ecc/checksum.hh"
#include "ecc/reed_solomon.hh" // DecodeStatus

namespace arcc
{

/** Result of a LOT-ECC line verification. */
struct LotDecodeResult
{
    DecodeStatus status = DecodeStatus::Clean;
    /** Device whose slice was reconstructed, or -1. */
    int deviceCorrected = -1;
};

/**
 * Encoder / decoder for LOT-ECC lines.
 *
 * An encoded line is dataDevices() + 1 rows of rowBytes() bytes, one
 * per device, back to back: row d is device d's slice followed by the
 * slice's big-endian checksum, and row dataDevices() holds the XOR
 * parity slice and its checksum.  This is the layout stored in DRAM,
 * so every operation works on the caller's buffer in place.
 */
class LotEcc
{
  public:
    /**
     * @param dataDevices  8 (nine-device rank) or 16 (18-device rank).
     * @param lineBytes    line size striped across the data devices.
     */
    LotEcc(int dataDevices, int lineBytes = 64);

    int dataDevices() const { return dataDevices_; }
    int sliceBytes() const { return sliceBytes_; }
    /** Bytes per device row: the slice plus its 2-byte checksum. */
    int rowBytes() const { return sliceBytes_ + 2; }

    /**
     * Encode a line into `rows`: slices, parity and checksums.
     * @param rows (dataDevices() + 1) * rowBytes() bytes.
     */
    void encodeInto(std::span<const std::uint8_t> line,
                    std::span<std::uint8_t> rows) const;

    /**
     * Verify a line and correct at most one bad device in place.
     * Localisation uses the checksums; correction uses XOR parity and
     * rewrites the rebuilt row's checksum.  A device listed in
     * `erased` (remapped to the spare by the memory model) counts as
     * a checksum mismatch whatever its row holds.  Two or more
     * mismatches are Detected (uncorrectable) and leave the rows as
     * they were.
     */
    LotDecodeResult decode(std::span<std::uint8_t> rows,
                           std::span<const int> erased = {}) const;

    /**
     * Reassemble the data bytes of a (verified) line into `out`
     * (exactly lineBytes long).
     */
    void extractInto(std::span<const std::uint8_t> rows,
                     std::span<std::uint8_t> out) const;

  private:
    int dataDevices_;
    int lineBytes_;
    int sliceBytes_;
};

} // namespace arcc

#endif // ARCC_ECC_LOT_ECC_HH
