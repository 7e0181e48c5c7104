/**
 * @file
 * Codec-zoo tests: the registry contract (lookup, summaries, duplicate
 * rejection), CodecTraits self-description for every registered codec,
 * and the behaviour of the two zoo additions (Hsiao SECDED line codec,
 * BCH line codec) under the encode/corrupt/decode cycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "arcc/ecc_scheme.hh"
#include "common/rng.hh"
#include "ecc/secded.hh"

namespace arcc
{
namespace
{

std::vector<std::uint8_t>
randomLine(const LineCodec &codec, Rng &rng)
{
    std::vector<std::uint8_t> data(codec.dataBytes());
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    return data;
}

TEST(CodecRegistry, BuiltinsAreRegistered)
{
    const std::vector<std::string> expected = {
        "arcc-relaxed", "arcc-upgraded", "arcc-upgraded2",
        "bch512-t2",    "bch512-t4",     "dcs",
        "hsiao72",      "lot18",         "lot9",
        "sccdcd",
    };
    for (const std::string &key : expected)
        EXPECT_TRUE(codecs::known(key)) << key;
    EXPECT_FALSE(codecs::known("no-such-codec"));

    // names() is sorted and contains at least the builtins.
    const std::vector<std::string> names = codecs::names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    for (const std::string &key : expected)
        EXPECT_TRUE(std::find(names.begin(), names.end(), key) !=
                    names.end())
            << key;
}

TEST(CodecRegistry, MakeRoundTripsEveryBuiltin)
{
    Rng rng(7);
    LineWorkspace ws;
    for (const std::string &key : codecs::names()) {
        const std::unique_ptr<LineCodec> codec = codecs::make(key);
        ASSERT_NE(codec, nullptr) << key;
        EXPECT_FALSE(codecs::summary(key).empty()) << key;

        const CodecTraits traits = codec->traits();
        EXPECT_TRUE(traits.symbolBits == 1 || traits.symbolBits == 8)
            << key;
        EXPECT_GE(traits.correct, 1) << key;
        EXPECT_GE(traits.detect, 0) << key;
        EXPECT_GE(traits.codewords, 1) << key;
        EXPECT_FALSE(std::string(traits.family).empty()) << key;

        // Clean round trip through the registry-made instance.
        const std::vector<std::uint8_t> data = randomLine(*codec, rng);
        DeviceSlices slices;
        codec->encodeInto(data, slices, ws);
        EXPECT_EQ(slices.size(),
                  static_cast<std::size_t>(codec->devices()) *
                      codec->sliceBytes());
        std::vector<std::uint8_t> out(codec->dataBytes());
        DecodeResult dec;
        codec->decodeInto(slices, out, {}, ws, dec);
        EXPECT_EQ(dec.status, DecodeStatus::Clean) << key;
        EXPECT_EQ(out, data) << key;
    }
}

TEST(CodecRegistry, FamiliesMatchKeys)
{
    const std::set<std::string> rs = {"sccdcd", "dcs", "arcc-relaxed",
                                      "arcc-upgraded",
                                      "arcc-upgraded2"};
    for (const std::string &key : codecs::names()) {
        const std::string family =
            codecs::make(key)->traits().family;
        if (rs.count(key)) {
            EXPECT_EQ(family, "rs") << key;
        } else if (key.rfind("lot", 0) == 0) {
            EXPECT_EQ(family, "lot") << key;
        } else if (key.rfind("bch", 0) == 0) {
            EXPECT_EQ(family, "bch") << key;
        } else if (key == "hsiao72") {
            EXPECT_EQ(family, "secded") << key;
        }
    }
}

TEST(CodecRegistry, RegisterAndMakeCustomCodec)
{
    codecs::registerCodec("test-bch64-t1", "unit-test codec", [] {
        return std::make_unique<BchLineCodec>(8, 1, 9,
                                              "test BCH-64 t=1");
    });
    ASSERT_TRUE(codecs::known("test-bch64-t1"));
    const std::unique_ptr<LineCodec> codec =
        codecs::make("test-bch64-t1");
    EXPECT_EQ(codec->dataBytes(), 8);
    EXPECT_EQ(codec->traits().correct, 1);
    EXPECT_EQ(codecs::summary("test-bch64-t1"), "unit-test codec");
}

TEST(CodecRegistryDeathTest, DuplicateKeyIsFatal)
{
    EXPECT_EXIT(
        {
            codecs::registerCodec("dup-key", "a", [] {
                return codecs::make("sccdcd");
            });
            codecs::registerCodec("dup-key", "b", [] {
                return codecs::make("sccdcd");
            });
        },
        ::testing::ExitedWithCode(1), "duplicate codec key");
}

TEST(CodecRegistryDeathTest, UnknownKeyIsFatal)
{
    EXPECT_EXIT(codecs::make("definitely-not-registered"),
                ::testing::ExitedWithCode(1), "unknown codec");
}

// ---------------------------------------------------------------------
// Hsiao SECDED line codec
// ---------------------------------------------------------------------

TEST(SecdedLineCodec, LayoutMatchesNineDeviceDimm)
{
    SecdedLineCodec codec;
    EXPECT_EQ(codec.devices(), 9);
    EXPECT_EQ(codec.sliceBytes(), 8);
    EXPECT_EQ(codec.dataBytes(), 64);
    EXPECT_EQ(codec.traits().symbolBits, 1);
    EXPECT_EQ(codec.traits().codewords, 8);

    // Device d holds byte lane d of every word; device 8 the checks.
    Rng rng(8);
    std::vector<std::uint8_t> data(64);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    LineWorkspace ws;
    DeviceSlices slices;
    codec.encodeInto(data, slices, ws);
    for (int w = 0; w < 8; ++w) {
        std::uint64_t word = 0;
        for (int d = 0; d < 8; ++d) {
            EXPECT_EQ(slices[d * 8 + w], data[w * 8 + d]);
            word |= static_cast<std::uint64_t>(data[w * 8 + d])
                    << (8 * d);
        }
        EXPECT_EQ(slices[8 * 8 + w], Secded::encode(word));
    }
}

TEST(SecdedLineCodec, CorrectsSingleBitPerWordEverywhere)
{
    SecdedLineCodec codec;
    LineWorkspace ws;
    Rng rng(9);
    std::vector<std::uint8_t> data(64);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));

    // One flipped bit in every word (8 distinct devices): all eight
    // words correct independently.
    DeviceSlices slices;
    codec.encodeInto(data, slices, ws);
    for (int w = 0; w < 8; ++w)
        slices[w * 8 + w] ^= static_cast<std::uint8_t>(1 << (w % 8));
    std::vector<std::uint8_t> out(64);
    DecodeResult dec;
    codec.decodeInto(slices, out, {}, ws, dec);
    EXPECT_EQ(dec.status, DecodeStatus::Corrected);
    EXPECT_EQ(dec.symbolsCorrected, 8);
    EXPECT_EQ(dec.positions.size(), 8u);
    EXPECT_EQ(out, data);
}

TEST(SecdedLineCodec, WholeDeviceFailureIsNotChipkill)
{
    // The motivating contrast: an 8-bit-per-word device failure
    // overwhelms SECDED.  Flipping two bits per word must be Detected
    // (never silently wrong).
    SecdedLineCodec codec;
    LineWorkspace ws;
    Rng rng(10);
    std::vector<std::uint8_t> data(64);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    DeviceSlices slices;
    codec.encodeInto(data, slices, ws);
    for (int w = 0; w < 8; ++w)
        slices[3 * 8 + w] ^= 0x21; // Two bits of device 3, every word.
    std::vector<std::uint8_t> out(64);
    DecodeResult dec;
    codec.decodeInto(slices, out, {}, ws, dec);
    EXPECT_EQ(dec.status, DecodeStatus::Detected);
}

TEST(SecdedLineCodec, CheckDevicePositionsEncodeWordAndBit)
{
    SecdedLineCodec codec;
    LineWorkspace ws;
    std::vector<std::uint8_t> data(64, 0x5a);
    DeviceSlices slices;
    codec.encodeInto(data, slices, ws);
    // Flip the overall-parity bit of word 5 (check bit 7 is Hamming
    // position 72 == the parity bit).
    slices[8 * 8 + 5] ^= 0x80;
    std::vector<std::uint8_t> out(64);
    DecodeResult dec;
    codec.decodeInto(slices, out, {}, ws, dec);
    ASSERT_EQ(dec.status, DecodeStatus::Corrected);
    ASSERT_EQ(dec.positions.size(), 1u);
    EXPECT_EQ(dec.positions[0], 5 * 73 + 72);
    EXPECT_EQ(out, data);
}

// ---------------------------------------------------------------------
// BCH line codec
// ---------------------------------------------------------------------

TEST(BchLineCodec, GeometryCoversTheWireImage)
{
    for (const std::string &key : {std::string("bch512-t2"),
                                   std::string("bch512-t4")}) {
        const std::unique_ptr<LineCodec> codec = codecs::make(key);
        const auto *bch = dynamic_cast<const BchLineCodec *>(
            codec.get());
        ASSERT_NE(bch, nullptr) << key;
        EXPECT_EQ(codec->devices(), 18) << key;
        EXPECT_GE(codec->devices() * codec->sliceBytes(),
                  bch->bch().codeBytes())
            << key;
        EXPECT_EQ(codec->traits().correct, bch->bch().t()) << key;
        EXPECT_EQ(codec->traits().symbolBits, 1) << key;
    }
}

TEST(BchLineCodec, CorrectsScatteredBitErrorsAcrossDevices)
{
    const std::unique_ptr<LineCodec> codec = codecs::make("bch512-t4");
    LineWorkspace ws;
    Rng rng(11);
    std::vector<std::uint8_t> data(codec->dataBytes());
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    DeviceSlices slices;
    codec->encodeInto(data, slices, ws);
    // Four single-bit errors on four different devices: beyond any
    // per-device scheme's view, routine for t=4 BCH.
    for (int d = 0; d < 4; ++d)
        slices[d * 4 * codec->sliceBytes()] ^=
            static_cast<std::uint8_t>(1 << d);
    std::vector<std::uint8_t> out(codec->dataBytes());
    DecodeResult dec;
    codec->decodeInto(slices, out, {}, ws, dec);
    EXPECT_EQ(dec.status, DecodeStatus::Corrected);
    EXPECT_EQ(dec.symbolsCorrected, 4);
    EXPECT_EQ(out, data);
}

TEST(BchLineCodec, WritesCorrectionsBackToSlices)
{
    const std::unique_ptr<LineCodec> codec = codecs::make("bch512-t2");
    LineWorkspace ws;
    Rng rng(12);
    std::vector<std::uint8_t> data(codec->dataBytes());
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    DeviceSlices slices;
    codec->encodeInto(data, slices, ws);
    const DeviceSlices clean = slices;
    slices[7 * codec->sliceBytes() + 1] ^= 0x10;
    std::vector<std::uint8_t> out(codec->dataBytes());
    DecodeResult dec;
    codec->decodeInto(slices, out, {}, ws, dec);
    EXPECT_EQ(dec.status, DecodeStatus::Corrected);
    EXPECT_EQ(slices, clean); // Fix written back.
    EXPECT_EQ(out, data);
}

} // namespace
} // namespace arcc
