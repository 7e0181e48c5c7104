/**
 * @file
 * Ones'-complement checksum and LOT-ECC tests, including the paper's
 * detection-guarantee caveat (Chapter 2).
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/rng.hh"
#include "ecc/checksum.hh"
#include "ecc/lot_ecc.hh"

namespace arcc
{
namespace
{

TEST(OnesComplement16, ZeroBufferChecksumsToComplementOfZero)
{
    // The Internet-checksum convention: the stored value is ~sum, so a
    // zero buffer carries 0xffff -- which is exactly what defeats a
    // stuck-at-0 device (slice AND checksum read 0, mismatch).
    std::vector<std::uint8_t> zeros(8, 0);
    EXPECT_EQ(OnesComplement16::compute(zeros), 0xffff);
    EXPECT_TRUE(OnesComplement16::verify(zeros, 0xffff));
    EXPECT_FALSE(OnesComplement16::verify(zeros, 0));
}

TEST(OnesComplement16, DetectsSingleBitFlipsInEveryPosition)
{
    Rng rng(1);
    std::vector<std::uint8_t> buf(8);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.below(256));
    std::uint16_t sum = OnesComplement16::compute(buf);
    for (std::size_t i = 0; i < buf.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            auto copy = buf;
            copy[i] ^= static_cast<std::uint8_t>(1 << bit);
            EXPECT_FALSE(OnesComplement16::verify(copy, sum))
                << "byte " << i << " bit " << bit;
        }
    }
}

TEST(OnesComplement16, DetectsAllZerosAndAllOnesDeviceOutput)
{
    // The LOT-ECC guarantee the paper cites: a device whose output is
    // stuck all-0 or all-1 is always caught (unless the true content
    // was exactly that pattern with a matching sum).
    Rng rng(2);
    for (int t = 0; t < 200; ++t) {
        std::vector<std::uint8_t> buf(8);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.range(1, 254));
        std::uint16_t sum = OnesComplement16::compute(buf);
        std::vector<std::uint8_t> zeros(8, 0), ones(8, 0xff);
        EXPECT_FALSE(OnesComplement16::verify(zeros, sum));
        EXPECT_FALSE(OnesComplement16::verify(ones, sum));
    }
}

TEST(OnesComplement16, CanAliasOnCompensatingChanges)
{
    // The caveat: two compensating word changes keep the sum -- the
    // checksum is NOT a guaranteed detector of arbitrary corruption.
    std::vector<std::uint8_t> buf = {0x00, 0x01, 0x00, 0x02};
    std::uint16_t sum = OnesComplement16::compute(buf);
    std::vector<std::uint8_t> alias = {0x00, 0x02, 0x00, 0x01};
    EXPECT_TRUE(OnesComplement16::verify(alias, sum));
}

TEST(OnesComplement16, OddLengthPadsWithZero)
{
    std::vector<std::uint8_t> odd = {0xab};
    std::vector<std::uint8_t> even = {0xab, 0x00};
    EXPECT_EQ(OnesComplement16::compute(odd),
              OnesComplement16::compute(even));
}

TEST(XorInto, IsItsOwnInverse)
{
    Rng rng(3);
    std::vector<std::uint8_t> a(16), b(16);
    for (auto &v : a)
        v = static_cast<std::uint8_t>(rng.below(256));
    for (auto &v : b)
        v = static_cast<std::uint8_t>(rng.below(256));
    auto orig = a;
    xorInto(a, b);
    xorInto(a, b);
    EXPECT_EQ(a, orig);
}

// --- LOT-ECC ----------------------------------------------------------

/** Encode a line into LotEcc's device rows. */
std::vector<std::uint8_t>
encodeRows(const LotEcc &lot, std::span<const std::uint8_t> line)
{
    std::vector<std::uint8_t> rows(
        static_cast<std::size_t>(lot.dataDevices() + 1) * lot.rowBytes());
    lot.encodeInto(line, rows);
    return rows;
}

/** Device d's slice within the rows (its checksum excluded). */
std::span<std::uint8_t>
sliceOf(const LotEcc &lot, std::vector<std::uint8_t> &rows, int d)
{
    return std::span<std::uint8_t>(rows).subspan(
        static_cast<std::size_t>(d) * lot.rowBytes(), lot.sliceBytes());
}

/** The data bytes the rows hold. */
std::vector<std::uint8_t>
extract(const LotEcc &lot, const std::vector<std::uint8_t> &rows)
{
    std::vector<std::uint8_t> out(
        static_cast<std::size_t>(lot.dataDevices()) * lot.sliceBytes());
    lot.extractInto(rows, out);
    return out;
}

class LotEccSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(LotEccSweep, RoundTripAndExtract)
{
    LotEcc lot(GetParam());
    Rng rng(10 + GetParam());
    for (int t = 0; t < 100; ++t) {
        std::vector<std::uint8_t> line(64);
        for (auto &b : line)
            b = static_cast<std::uint8_t>(rng.below(256));
        auto enc = encodeRows(lot, line);
        EXPECT_EQ(lot.decode(enc).status, DecodeStatus::Clean);
        EXPECT_EQ(extract(lot, enc), line);
    }
}

TEST_P(LotEccSweep, SingleDeviceCorruptionIsLocalisedAndRepaired)
{
    LotEcc lot(GetParam());
    Rng rng(20 + GetParam());
    for (int t = 0; t < 200; ++t) {
        std::vector<std::uint8_t> line(64);
        for (auto &b : line)
            b = static_cast<std::uint8_t>(rng.below(256));
        auto enc = encodeRows(lot, line);
        int victim =
            static_cast<int>(rng.below(lot.dataDevices() + 1));
        // Corrupt the victim slice thoroughly (decoder-style garbage).
        const std::vector<std::uint8_t> clean = enc;
        for (auto &b : sliceOf(lot, enc, victim))
            b ^= static_cast<std::uint8_t>(rng.range(1, 255));
        LotDecodeResult res = lot.decode(enc);
        EXPECT_EQ(res.status, DecodeStatus::Corrected);
        EXPECT_EQ(res.deviceCorrected, victim);
        EXPECT_EQ(extract(lot, enc), line);
        EXPECT_EQ(enc, clean); // Slice and checksum rebuilt in place.

        // A device diagnosed bad (erased) is rebuilt from parity even
        // when its row still verifies.
        const std::vector<int> erased = {victim};
        res = lot.decode(enc, erased);
        EXPECT_EQ(res.status, DecodeStatus::Corrected);
        EXPECT_EQ(res.deviceCorrected, victim);
        EXPECT_EQ(enc, clean);
    }
}

TEST_P(LotEccSweep, StuckDeviceOutputAlwaysCaught)
{
    LotEcc lot(GetParam());
    Rng rng(30 + GetParam());
    for (int t = 0; t < 100; ++t) {
        std::vector<std::uint8_t> line(64);
        for (auto &b : line)
            b = static_cast<std::uint8_t>(rng.range(1, 254));
        auto enc = encodeRows(lot, line);
        int victim = static_cast<int>(rng.below(lot.dataDevices()));
        std::uint8_t stuck = rng.chance(0.5) ? 0x00 : 0xff;
        const std::span<std::uint8_t> bad = sliceOf(lot, enc, victim);
        std::fill(bad.begin(), bad.end(), stuck);
        // The stored checksum stays what it was; the slice no longer
        // matches it (the all-0/all-1 guarantee from Chapter 2).
        LotDecodeResult res = lot.decode(enc);
        EXPECT_EQ(res.status, DecodeStatus::Corrected);
        EXPECT_EQ(res.deviceCorrected, victim);
        EXPECT_EQ(extract(lot, enc), line);
    }
}

TEST_P(LotEccSweep, TwoBadDevicesAreDetectedNotMiscorrected)
{
    LotEcc lot(GetParam());
    Rng rng(40 + GetParam());
    for (int t = 0; t < 200; ++t) {
        // Content bytes in [1, 254] so a stuck-at-0 / stuck-at-1 slice
        // is guaranteed to mismatch its checksum -- two *guaranteed*
        // mismatches must yield a DUE, never a reconstruction.
        std::vector<std::uint8_t> line(64);
        for (auto &b : line)
            b = static_cast<std::uint8_t>(rng.range(1, 254));
        auto enc = encodeRows(lot, line);
        int a = static_cast<int>(rng.below(lot.dataDevices()));
        int b;
        do {
            b = static_cast<int>(rng.below(lot.dataDevices()));
        } while (b == a);
        const std::span<std::uint8_t> sa = sliceOf(lot, enc, a);
        const std::span<std::uint8_t> sb = sliceOf(lot, enc, b);
        std::fill(sa.begin(), sa.end(), 0x00);
        std::fill(sb.begin(), sb.end(), 0xff);
        LotDecodeResult res = lot.decode(enc);
        EXPECT_EQ(res.status, DecodeStatus::Detected);
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, LotEccSweep,
                         ::testing::Values(8, 16));

TEST(LotEcc, RejectsBadGeometry)
{
    EXPECT_EXIT(LotEcc(7), ::testing::ExitedWithCode(1), "8 or 16");
}

TEST(LotEcc, ChecksumAliasingCorruptionCanSlipThrough)
{
    // Build a corruption that keeps the slice checksum valid: the
    // decode honestly reports Clean even though data changed.  This is
    // the fidelity the SDC discussion relies on.
    LotEcc lot(8);
    std::vector<std::uint8_t> line(64, 0);
    line[0] = 0x00;
    line[1] = 0x01;
    line[2] = 0x00;
    line[3] = 0x02;
    auto enc = encodeRows(lot, line);
    std::swap(enc[1], enc[3]); // compensating swap in device 0.
    EXPECT_EQ(lot.decode(enc).status, DecodeStatus::Clean);
    EXPECT_NE(extract(lot, enc), line);
}

} // namespace
} // namespace arcc
