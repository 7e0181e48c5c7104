/**
 * @file
 * Line-decode equivalence fuzzing (ctest label `property`).
 *
 * RsLineCodec::decodeInto screens every codeword of a line in one
 * interleaved syndrome pass over the device-major buffer and decodes
 * only the codewords it flags.  That must change nothing: for every
 * registry codec with an RS core, plus the ARCC+DCS upgraded codes
 * ArccMemory builds itself, the decode is checked against the
 * per-codeword loop it replaced -- gather a codeword from its device
 * rows, ReedSolomon::decode it, write the corrections back, copy the
 * data out -- kept here as the oracle.  Status, symbolsCorrected,
 * positions (in order), the data bytes and the written-back slices
 * must all agree, on lines with 0-3 bad symbols per codeword, with
 * and without erased devices.
 *
 * Every case logs its seed with SCOPED_TRACE, so a failure reproduces
 * from the message alone.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arcc/ecc_scheme.hh"
#include "common/rng.hh"

namespace arcc
{
namespace
{

constexpr std::uint64_t kBaseSeed = 0x11dec0deu;

/** Per-iteration seed: pure function of the base seed and index. */
std::uint64_t
caseSeed(std::uint64_t iteration)
{
    return Rng::mix64(kBaseSeed ^ (iteration * 0x9e3779b97f4a7c15ULL));
}

/**
 * The per-codeword line decode: codeword c is symbol d of device row
 * d, for every device, decoded alone.
 */
void
perCodewordDecode(const ReedSolomon &rs, int codewords, int maxCorrect,
                  DeviceSlices &slices, std::span<std::uint8_t> data,
                  std::span<const int> erased, RsWorkspace &ws,
                  DecodeResult &out)
{
    const int n = rs.n();
    const int k = rs.k();
    out.status = DecodeStatus::Clean;
    out.symbolsCorrected = 0;
    out.positions.clear();
    std::vector<std::uint8_t> word(n);
    for (int c = 0; c < codewords; ++c) {
        for (int d = 0; d < n; ++d)
            word[d] = slices[d * codewords + c];
        const RsDecodeView res = rs.decode(word, ws, maxCorrect, erased);
        if (res.status == DecodeStatus::Detected) {
            out.status = DecodeStatus::Detected;
            continue;
        }
        if (res.status == DecodeStatus::Corrected) {
            if (out.status != DecodeStatus::Detected)
                out.status = DecodeStatus::Corrected;
            out.symbolsCorrected += res.symbolsCorrected;
            for (int p : res.positions) {
                out.positions.push_back(p);
                slices[p * codewords + c] = word[p];
            }
        }
        for (int s = 0; s < k; ++s)
            data[c * k + s] = word[s];
    }
}

/** The codecs under test: every registry codec with an RS core, and
 *  the ARCC+DCS upgraded codes (maxCorrect 2). */
std::vector<std::unique_ptr<LineCodec>>
rsLineCodecs()
{
    std::vector<std::unique_ptr<LineCodec>> out;
    for (const std::string &key : codecs::names()) {
        std::unique_ptr<LineCodec> codec = codecs::make(key);
        if (codec->soaCodec())
            out.push_back(std::move(codec));
    }
    out.push_back(std::make_unique<RsLineCodec>(
        36, 32, 128, 2, "ARCC+DCS upgraded RS(36,32)"));
    out.push_back(std::make_unique<RsLineCodec>(
        72, 64, 256, 2, "ARCC+DCS upgraded-2 RS(72,64)"));
    return out;
}

TEST(LineDecodeProperty, OnePassDecodeMatchesPerCodewordDecode)
{
    const std::vector<std::unique_ptr<LineCodec>> codecs = rsLineCodecs();
    ASSERT_EQ(codecs.size(), 7u);
    LineWorkspace ws;
    RsWorkspace oracle_ws;
    DecodeResult got, want;
    std::uint64_t decoded = 0, clean = 0, corrected = 0, detected = 0,
                  erased_lines = 0;

    for (std::size_t ci = 0; ci < codecs.size(); ++ci) {
        const LineCodec &codec = *codecs[ci];
        const ReedSolomon &rs = *codec.soaCodec();
        const int n = rs.n();
        const int cw = codec.sliceBytes();
        const int max_correct = codec.traits().correct;
        for (std::uint64_t it = 0; it < 3000; ++it) {
            const std::uint64_t seed = caseSeed((ci << 32) + it);
            SCOPED_TRACE(std::string(codec.name()) +
                         " seed=" + std::to_string(seed));
            Rng rng(seed);

            std::vector<std::uint8_t> data(codec.dataBytes());
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.below(256));
            DeviceSlices slices;
            codec.encodeInto(data, slices, ws);

            // Half the lines erase up to two devices, which are bad in
            // most codewords, as a spared chip is.
            std::vector<int> erased;
            if (rng.below(2)) {
                const int f = static_cast<int>(rng.range(1, 2));
                while (static_cast<int>(erased.size()) < f) {
                    const int d = static_cast<int>(rng.below(n));
                    if (std::find(erased.begin(), erased.end(), d) ==
                        erased.end())
                        erased.push_back(d);
                }
                ++erased_lines;
            }
            // Each codeword gets up to max_bad bad symbols besides.
            const std::uint64_t max_bad = rng.below(4);
            for (int c = 0; c < cw; ++c) {
                for (int d : erased)
                    if (rng.below(4))
                        slices[d * cw + c] ^=
                            static_cast<std::uint8_t>(rng.range(1, 255));
                const int bad = static_cast<int>(rng.below(max_bad + 1));
                for (int e = 0; e < bad; ++e)
                    slices[rng.below(n) * cw + c] ^=
                        static_cast<std::uint8_t>(rng.range(1, 255));
            }

            DeviceSlices oracle_slices = slices;
            std::vector<std::uint8_t> got_data(data.size(), 0x5c);
            std::vector<std::uint8_t> want_data = got_data;
            codec.decodeInto(slices, got_data, erased, ws, got);
            perCodewordDecode(rs, cw, max_correct, oracle_slices, want_data,
                              erased, oracle_ws, want);

            ASSERT_EQ(got.status, want.status);
            ASSERT_EQ(got.symbolsCorrected, want.symbolsCorrected);
            ASSERT_EQ(got.positions, want.positions);
            ASSERT_EQ(got_data, want_data);
            ASSERT_EQ(slices, oracle_slices);
            ++decoded;
            clean += got.status == DecodeStatus::Clean;
            corrected += got.status == DecodeStatus::Corrected;
            detected += got.status == DecodeStatus::Detected;
        }
    }
    // The mix reaches every outcome, with and without erasures.
    EXPECT_EQ(decoded, 7u * 3000u);
    EXPECT_GT(clean, decoded / 10);
    EXPECT_GT(corrected, decoded / 4);
    EXPECT_GT(detected, decoded / 10);
    EXPECT_GT(erased_lines, decoded / 3);
}

} // namespace
} // namespace arcc
