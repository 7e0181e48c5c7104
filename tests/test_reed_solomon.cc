/**
 * @file
 * Reed-Solomon codec tests: round trips, correction capability,
 * guaranteed detection, erasures, the SCCDCD decode semantics, and
 * exhaustive pins of the closed-form single-symbol decode and the
 * interleaved SoA encode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "ecc/reed_solomon.hh"
#include "ecc/rs_reference.hh"

namespace arcc
{
namespace
{

std::vector<std::uint8_t>
randomCodeword(const ReedSolomon &rs, Rng &rng)
{
    std::vector<std::uint8_t> w(rs.n());
    for (int i = 0; i < rs.k(); ++i)
        w[i] = static_cast<std::uint8_t>(rng.below(256));
    rs.encode(w);
    return w;
}

/** True when every syndrome of w is zero. */
bool
syndromesZero(const ReedSolomon &rs, std::span<const std::uint8_t> w)
{
    std::uint8_t synd[RsWorkspace::kMaxChecks];
    return !rs.computeSyndromes(w, std::span<std::uint8_t>(synd, rs.r()));
}

/** Inject `count` errors at distinct random positions. */
std::vector<int>
injectErrors(std::vector<std::uint8_t> &w, int count, Rng &rng)
{
    std::vector<int> pos;
    while (static_cast<int>(pos.size()) < count) {
        int p = static_cast<int>(rng.below(w.size()));
        if (std::find(pos.begin(), pos.end(), p) == pos.end()) {
            pos.push_back(p);
            w[p] ^= static_cast<std::uint8_t>(rng.range(1, 255));
        }
    }
    return pos;
}

// --- basic encoding properties ---------------------------------------

TEST(ReedSolomon, EncodedWordHasZeroSyndromes)
{
    Rng rng(1);
    for (auto [n, k] : {std::pair{18, 16}, {36, 32}, {72, 64},
                        {255, 223}, {10, 4}}) {
        ReedSolomon rs(n, k);
        for (int t = 0; t < 50; ++t) {
            auto w = randomCodeword(rs, rng);
            EXPECT_TRUE(syndromesZero(rs, w));
        }
    }
}

TEST(ReedSolomon, CleanDecodeLeavesDataIntact)
{
    Rng rng(2);
    ReedSolomon rs(18, 16);
    RsWorkspace ws;
    auto w = randomCodeword(rs, rng);
    auto orig = w;
    RsDecodeView res = rs.decode(w, ws);
    EXPECT_EQ(res.status, DecodeStatus::Clean);
    EXPECT_EQ(w, orig);
}

TEST(ReedSolomon, EncodingIsSystematic)
{
    Rng rng(3);
    ReedSolomon rs(36, 32);
    std::vector<std::uint8_t> w(36, 0);
    for (int i = 0; i < 32; ++i)
        w[i] = static_cast<std::uint8_t>(rng.below(256));
    auto data = std::vector<std::uint8_t>(w.begin(), w.begin() + 32);
    rs.encode(w);
    EXPECT_TRUE(std::equal(data.begin(), data.end(), w.begin()));
}

TEST(ReedSolomon, AllZeroIsACodeword)
{
    ReedSolomon rs(18, 16);
    std::vector<std::uint8_t> w(18, 0);
    rs.encode(w);
    for (auto b : w)
        EXPECT_EQ(b, 0);
    EXPECT_TRUE(syndromesZero(rs, w));
}

// --- parameterized correction sweeps ---------------------------------

struct RsCase
{
    int n, k;
    int errors;   // injected
    int erasures; // injected (positions passed to the decoder)
    bool correctable;
};

class RsSweep : public ::testing::TestWithParam<RsCase>
{
};

TEST_P(RsSweep, ErrorsAndErasuresWithinCapabilityAlwaysCorrect)
{
    const RsCase &c = GetParam();
    ReedSolomon rs(c.n, c.k);
    RsWorkspace ws;
    Rng rng(100 + c.n * 1000 + c.errors * 10 + c.erasures);

    int trials = 200;
    for (int t = 0; t < trials; ++t) {
        auto w = randomCodeword(rs, rng);
        auto orig = w;

        // Erasure positions are distinct from error positions.
        std::vector<int> all_pos;
        while (static_cast<int>(all_pos.size()) <
               c.errors + c.erasures) {
            int p = static_cast<int>(rng.below(c.n));
            if (std::find(all_pos.begin(), all_pos.end(), p) ==
                all_pos.end())
                all_pos.push_back(p);
        }
        std::vector<int> erasure_pos(all_pos.begin(),
                                     all_pos.begin() + c.erasures);
        for (int i = 0; i < c.errors; ++i) {
            int p = all_pos[c.erasures + i];
            w[p] ^= static_cast<std::uint8_t>(rng.range(1, 255));
        }
        // Erased positions hold arbitrary garbage.
        for (int p : erasure_pos)
            w[p] = static_cast<std::uint8_t>(rng.below(256));

        RsDecodeView res = rs.decode(w, ws, -1, erasure_pos);
        if (c.correctable) {
            EXPECT_NE(res.status, DecodeStatus::Detected)
                << "n=" << c.n << " e=" << c.errors
                << " f=" << c.erasures;
            EXPECT_EQ(w, orig);
        } else {
            // Beyond capability: an error pattern of weight < d can
            // never masquerade as a clean codeword; the decoder must
            // either flag a DUE or (rare aliasing) miscorrect into a
            // *valid* codeword.
            EXPECT_NE(res.status, DecodeStatus::Clean);
            if (res.status == DecodeStatus::Corrected) {
                EXPECT_TRUE(syndromesZero(rs, w));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    WithinCapability, RsSweep,
    ::testing::Values(
        // ARCC relaxed RS(18,16): r=2 -> 1 error or 2 erasures.
        RsCase{18, 16, 0, 0, true}, RsCase{18, 16, 1, 0, true},
        RsCase{18, 16, 0, 1, true}, RsCase{18, 16, 0, 2, true},
        // ARCC upgraded / SCCDCD RS(36,32): r=4.
        RsCase{36, 32, 1, 0, true}, RsCase{36, 32, 2, 0, true},
        RsCase{36, 32, 1, 2, true}, RsCase{36, 32, 0, 4, true},
        RsCase{36, 32, 1, 1, true}, RsCase{36, 32, 0, 3, true},
        // Level-2 RS(72,64): r=8.
        RsCase{72, 64, 4, 0, true}, RsCase{72, 64, 2, 4, true},
        RsCase{72, 64, 3, 2, true}, RsCase{72, 64, 0, 8, true},
        // A long code for good measure.
        RsCase{255, 223, 16, 0, true}, RsCase{255, 223, 10, 12, true}),
    [](const ::testing::TestParamInfo<RsCase> &info) {
        std::string name = "n";
        name += std::to_string(info.param.n);
        name += "k";
        name += std::to_string(info.param.k);
        name += "e";
        name += std::to_string(info.param.errors);
        name += "f";
        name += std::to_string(info.param.erasures);
        return name;
    });

INSTANTIATE_TEST_SUITE_P(
    BeyondCapability, RsSweep,
    ::testing::Values(RsCase{18, 16, 2, 0, false},
                      RsCase{36, 32, 3, 0, false},
                      RsCase{36, 32, 2, 1, false},
                      RsCase{72, 64, 5, 0, false}),
    [](const ::testing::TestParamInfo<RsCase> &info) {
        std::string name = "n";
        name += std::to_string(info.param.n);
        name += "k";
        name += std::to_string(info.param.k);
        name += "e";
        name += std::to_string(info.param.errors);
        name += "f";
        name += std::to_string(info.param.erasures);
        return name;
    });

// --- guaranteed-detection semantics -----------------------------------

TEST(ReedSolomon, SccdcdDecodeDetectsDoubleErrors)
{
    // SCCDCD: RS(36,32) decoded with maxCorrect = 1 must detect every
    // 2-symbol error (d = 5 guarantees it; weight-2 errors are at
    // distance >= 3 from every other codeword).
    ReedSolomon rs(36, 32);
    RsWorkspace ws;
    Rng rng(42);
    for (int t = 0; t < 500; ++t) {
        auto w = randomCodeword(rs, rng);
        injectErrors(w, 2, rng);
        RsDecodeView res = rs.decode(w, ws, /*maxCorrect=*/1);
        EXPECT_EQ(res.status, DecodeStatus::Detected);
    }
}

TEST(ReedSolomon, SccdcdDecodeDetectsTripleErrors)
{
    // With radius-1 decoding of a d=5 code, weight-3 errors are still
    // never inside another codeword's sphere: guaranteed detection.
    ReedSolomon rs(36, 32);
    RsWorkspace ws;
    Rng rng(43);
    for (int t = 0; t < 500; ++t) {
        auto w = randomCodeword(rs, rng);
        auto orig = w;
        injectErrors(w, 3, rng);
        RsDecodeView res = rs.decode(w, ws, 1);
        EXPECT_EQ(res.status, DecodeStatus::Detected);
        (void)orig;
    }
}

TEST(ReedSolomon, RelaxedDoubleErrorNeverSilentlyCorrupts)
{
    // RS(18,16) with maxCorrect=1 cannot *guarantee* detection of two
    // bad symbols (this is exactly the ARCC DED reduction of Chapter
    // 6.2).  It must either detect, or miscorrect by changing one
    // symbol -- count the miscorrection rate and sanity-check it is a
    // small minority, in line with n/q reasoning (~7% for n=18).
    ReedSolomon rs(18, 16);
    RsWorkspace ws;
    Rng rng(44);
    int miscorrect = 0, detected = 0;
    const int trials = 3000;
    for (int t = 0; t < trials; ++t) {
        auto w = randomCodeword(rs, rng);
        auto orig = w;
        injectErrors(w, 2, rng);
        RsDecodeView res = rs.decode(w, ws, 1);
        if (res.status == DecodeStatus::Detected)
            ++detected;
        else if (w != orig)
            ++miscorrect;
    }
    EXPECT_GT(detected, trials / 2);
    EXPECT_GT(miscorrect, 0);          // the hazard is real ...
    EXPECT_LT(miscorrect, trials / 5); // ... but a small minority.
}

TEST(ReedSolomon, MaxCorrectLimitsCorrectionNotDetection)
{
    ReedSolomon rs(36, 32);
    RsWorkspace ws;
    Rng rng(45);
    for (int t = 0; t < 200; ++t) {
        auto w = randomCodeword(rs, rng);
        auto orig = w;
        injectErrors(w, 2, rng);
        // Full capability corrects it ...
        auto w2 = w;
        EXPECT_EQ(rs.decode(w2, ws, 2).status, DecodeStatus::Corrected);
        EXPECT_EQ(w2, orig);
        // ... capped capability flags it instead.
        EXPECT_EQ(rs.decode(w, ws, 1).status, DecodeStatus::Detected);
    }
}

TEST(ReedSolomon, DetectedLeavesWordUnmodified)
{
    ReedSolomon rs(36, 32);
    RsWorkspace ws;
    Rng rng(46);
    for (int t = 0; t < 300; ++t) {
        auto w = randomCodeword(rs, rng);
        injectErrors(w, 3, rng);
        auto corrupted = w;
        RsDecodeView res = rs.decode(w, ws, 1);
        ASSERT_EQ(res.status, DecodeStatus::Detected);
        EXPECT_EQ(w, corrupted) << "DUE must not half-correct";
    }
}

TEST(ReedSolomon, ErasedDeviceWithSecondErrorCorrects)
{
    // Double chip sparing after remap: one erased (diagnosed) symbol
    // plus one new error, 2*1 + 1 <= 4.
    ReedSolomon rs(36, 32);
    RsWorkspace ws;
    Rng rng(47);
    for (int t = 0; t < 300; ++t) {
        auto w = randomCodeword(rs, rng);
        auto orig = w;
        int erased = static_cast<int>(rng.below(36));
        w[erased] = static_cast<std::uint8_t>(rng.below(256));
        int err;
        do {
            err = static_cast<int>(rng.below(36));
        } while (err == erased);
        w[err] ^= static_cast<std::uint8_t>(rng.range(1, 255));
        std::vector<int> erasures = {erased};
        RsDecodeView res = rs.decode(w, ws, -1, erasures);
        EXPECT_NE(res.status, DecodeStatus::Detected);
        EXPECT_EQ(w, orig);
    }
}

// --- closed-form single-symbol decode and the SoA encode -------------

TEST(ReedSolomon, EveryWeightOnePatternMatchesReference)
{
    // Every single-symbol error -- each position x each of the 255
    // magnitudes -- at every cap, through decode() and through a
    // decodeSoa lane: the closed form must give exactly what the
    // oracle's Berlekamp-Massey / Chien / Forney pipeline gives
    // (Corrected at a positive cap, Detected at cap 0).
    constexpr std::size_t kLanes = RsWorkspace::kSoaLanes;
    Rng rng(49);
    RsWorkspace ws;
    RsWorkspace soa_ws;
    std::array<RsLaneResult, kLanes> lane_res;
    for (auto [n, k] : {std::pair{18, 16}, {36, 32}, {72, 64}}) {
        const ReedSolomon rs(n, k);
        const RsReference ref(n, k);
        const std::vector<std::uint8_t> clean = randomCodeword(rs, rng);
        for (int cap : {-1, 0, 1, 2}) {
            SCOPED_TRACE("RS(" + std::to_string(n) + "," +
                         std::to_string(k) + ") maxCorrect " +
                         std::to_string(cap));
            int patterns = 0, scalar_bad = 0, soa_bad = 0;
            // Reference outcomes of the lanes staged in soa_ws.soa.
            std::vector<std::vector<std::uint8_t>> want_words;
            std::vector<DecodeResult> want;
            auto flush = [&] {
                const int lanes = static_cast<int>(want.size());
                rs.decodeSoa(soa_ws.soa.data(), kLanes, lanes, soa_ws, cap,
                             {}, lane_res.data());
                for (int l = 0; l < lanes; ++l) {
                    bool same =
                        lane_res[l].status == want[l].status &&
                        lane_res[l].symbolsCorrected ==
                            want[l].symbolsCorrected;
                    for (int i = 0; i < n; ++i)
                        same = same && soa_ws.soa[i * kLanes + l] ==
                                           want_words[l][i];
                    soa_bad += same ? 0 : 1;
                }
                want_words.clear();
                want.clear();
            };
            for (int p = 0; p < n; ++p) {
                for (int m = 1; m < 256; ++m) {
                    std::vector<std::uint8_t> received = clean;
                    received[p] ^= static_cast<std::uint8_t>(m);
                    std::vector<std::uint8_t> expect = received;
                    const DecodeResult r = ref.decode(expect, cap);
                    std::vector<std::uint8_t> got = received;
                    const RsDecodeView v = rs.decode(got, ws, cap);
                    const bool same =
                        v.status == r.status &&
                        v.symbolsCorrected == r.symbolsCorrected &&
                        std::equal(v.positions.begin(), v.positions.end(),
                                   r.positions.begin(),
                                   r.positions.end()) &&
                        got == expect;
                    scalar_bad += same ? 0 : 1;
                    ++patterns;

                    const int l = static_cast<int>(want.size());
                    for (int i = 0; i < n; ++i)
                        soa_ws.soa[i * kLanes + l] = received[i];
                    want_words.push_back(expect);
                    want.push_back(r);
                    if (want.size() == kLanes)
                        flush();
                }
            }
            flush();
            EXPECT_EQ(patterns, n * 255);
            EXPECT_EQ(scalar_bad, 0);
            EXPECT_EQ(soa_bad, 0);
        }
    }
}

TEST(ReedSolomon, WeightTwoPatternsMiscorrectOnlyAtTheAliasRate)
{
    // Every weight-2 pattern with its first magnitude fixed to 1
    // (scaling an error scales its syndromes and the decoder's
    // answer, so this is 1/255 of all of them), decoded at
    // maxCorrect 1.  RS(18,16) (d = 3) miscorrects exactly the
    // bounded-distance alias share C(n - t - 1, t) / (q - 1)^t =
    // 16/255 of them -- 153 pairs x 16 -- and detects the rest;
    // RS(36,32) (d = 5) detects every one.
    struct Case
    {
        int n, k, miscorrected;
    };
    RsWorkspace ws;
    for (const Case c : {Case{18, 16, 153 * 16}, Case{36, 32, 0}}) {
        SCOPED_TRACE("RS(" + std::to_string(c.n) + "," +
                     std::to_string(c.k) + ")");
        const ReedSolomon rs(c.n, c.k);
        std::vector<std::uint8_t> w(c.n);
        int patterns = 0, corrected = 0, detected = 0, off_code = 0;
        for (int p1 = 0; p1 < c.n; ++p1) {
            for (int p2 = p1 + 1; p2 < c.n; ++p2) {
                for (int m = 1; m < 256; ++m) {
                    std::fill(w.begin(), w.end(), 0);
                    w[p1] = 1;
                    w[p2] = static_cast<std::uint8_t>(m);
                    const RsDecodeView v = rs.decode(w, ws, 1);
                    ++patterns;
                    if (v.status == DecodeStatus::Detected)
                        ++detected;
                    if (v.status == DecodeStatus::Corrected) {
                        ++corrected;
                        off_code += syndromesZero(rs, w) ? 0 : 1;
                    }
                }
            }
        }
        EXPECT_EQ(patterns, c.n * (c.n - 1) / 2 * 255);
        EXPECT_EQ(corrected, c.miscorrected);
        EXPECT_EQ(detected, patterns - c.miscorrected);
        EXPECT_EQ(off_code, 0) << "a correction must land on a codeword";
    }
}

TEST(ReedSolomon, SoaEncodeMatchesPerWordEncodeOnEveryLane)
{
    // encodeSoa's interleaved chains, 1 to 33 lanes at strides from
    // the lane count up, against encode() word by word: the packed
    // LFSR of every line code and the r > 8 loop of RS(255,223).
    // Columns past the last lane are padding and must not change.
    Rng rng(50);
    for (auto [n, k] :
         {std::pair{18, 16}, {36, 32}, {72, 64}, {255, 223}}) {
        const ReedSolomon rs(n, k);
        int bad_lanes = 0, bad_pad = 0;
        for (int lanes = 1; lanes <= 33; ++lanes) {
            for (int pad : {0, 1, 7}) {
                const std::size_t stride = lanes + pad;
                std::vector<std::uint8_t> soa(n * stride);
                for (auto &b : soa)
                    b = static_cast<std::uint8_t>(rng.below(256));
                const std::vector<std::uint8_t> before = soa;
                rs.encodeSoa(soa.data(), stride, lanes);
                for (std::size_t l = 0; l < stride; ++l) {
                    std::vector<std::uint8_t> col(n), want(n);
                    for (int i = 0; i < n; ++i) {
                        col[i] = soa[i * stride + l];
                        want[i] = before[i * stride + l];
                    }
                    if (l >= static_cast<std::size_t>(lanes)) {
                        bad_pad += col == want ? 0 : 1;
                        continue;
                    }
                    rs.encode(want);
                    bad_lanes += col == want ? 0 : 1;
                }
            }
        }
        EXPECT_EQ(bad_lanes, 0) << "RS(" << n << "," << k << ")";
        EXPECT_EQ(bad_pad, 0) << "RS(" << n << "," << k << ")";
    }
}

TEST(ReedSolomon, RejectsInvalidGeometry)
{
    EXPECT_EXIT(ReedSolomon(300, 200), ::testing::ExitedWithCode(1),
                "out of range");
    EXPECT_EXIT(ReedSolomon(10, 10), ::testing::ExitedWithCode(1),
                "out of range");
}

// --- polynomial helpers ----------------------------------------------

TEST(GfPoly, MulAndEvalAgree)
{
    Rng rng(48);
    for (int t = 0; t < 200; ++t) {
        std::vector<std::uint8_t> a(1 + rng.below(6));
        std::vector<std::uint8_t> b(1 + rng.below(6));
        for (auto &v : a)
            v = static_cast<std::uint8_t>(rng.below(256));
        for (auto &v : b)
            v = static_cast<std::uint8_t>(rng.below(256));
        auto ab = gfpoly::mul(a, b);
        auto x = static_cast<std::uint8_t>(rng.below(256));
        EXPECT_EQ(gfpoly::eval(ab, x),
                  GF256::mul(gfpoly::eval(a, x), gfpoly::eval(b, x)));
    }
}

TEST(GfPoly, DerivativeDropsEvenTerms)
{
    // p(x) = 3 + 5x + 7x^2 + 9x^3 -> p'(x) = 5 + 9x^2 over GF(2^m).
    std::vector<std::uint8_t> p = {3, 5, 7, 9};
    auto d = gfpoly::derivative(p);
    ASSERT_EQ(d.size(), 3u);
    EXPECT_EQ(d[0], 5);
    EXPECT_EQ(d[1], 0);
    EXPECT_EQ(d[2], 9);
}

TEST(GfPoly, DegreeIgnoresLeadingZeros)
{
    std::vector<std::uint8_t> p = {1, 2, 0, 0};
    EXPECT_EQ(gfpoly::degree(p), 1);
    std::vector<std::uint8_t> z = {0, 0};
    EXPECT_EQ(gfpoly::degree(z), -1);
}

} // namespace
} // namespace arcc
