/**
 * @file
 * Unit tests for the SIMD GF(2^8) layer (ecc/simd.hh,
 * ecc/gf256_simd.hh).
 *
 * The dispatch contract under test: the vector syndrome screen is
 * bit-identical to its scalar tier, which in turn is the same
 * arithmetic as the product-table loops the oracle fuzz pins against
 * RsReference.  Running the scalar and the active tier side by side
 * in one process checks the vector half of that chain directly; the
 * CI scalar-forced build (-DARCC_SIMD=OFF) re-runs this whole binary
 * with the vector bodies compiled out.  The ARCC_SIMD cap is resolved
 * once per process, so its tests read it in death-test children.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "ecc/gf256.hh"
#include "ecc/gf256_simd.hh"
#include "ecc/reed_solomon.hh"
#include "ecc/simd.hh"

namespace arcc
{
namespace
{

TEST(Gf256Simd, NibbleTableReconstructsEveryProduct)
{
    // a * x == nibRow(a)[x & 0xf] ^ nibRow(a)[16 + (x >> 4)] for the
    // full 256 x 256 product space.
    for (int a = 0; a < 256; ++a) {
        const std::uint8_t *row = GF256::nibRow(
            static_cast<std::uint8_t>(a));
        for (int x = 0; x < 256; ++x) {
            const std::uint8_t lo = row[x & 0x0f];
            const std::uint8_t hi = row[16 + (x >> 4)];
            ASSERT_EQ(lo ^ hi,
                      GF256::mul(static_cast<std::uint8_t>(a),
                                 static_cast<std::uint8_t>(x)))
                << "a=" << a << " x=" << x;
        }
    }
}

TEST(Gf256Simd, TierDispatchIsSane)
{
    const simd::Tier det = simd::detectTier();
    const simd::Tier act = simd::activeTier();
    EXPECT_NE(std::string(simd::tierName(det)), "?");
    EXPECT_NE(std::string(simd::tierName(act)), "?");
#if defined(ARCC_SIMD_DISABLED)
    EXPECT_EQ(det, simd::Tier::Scalar);
    EXPECT_EQ(act, simd::Tier::Scalar);
#endif
    // The env cap can only lower the tier, never raise it past the
    // hardware.
    if (det == simd::Tier::Scalar) {
        EXPECT_EQ(act, simd::Tier::Scalar);
    }
}

TEST(Gf256Simd, SyndromeSoaMatchesPerWordSyndromesBothTiers)
{
    // Every lane of the SoA kernel must reproduce computeSyndromes on
    // the gathered word, on both the scalar and the active tier, for
    // every codec shape and a partial last block.
    const simd::Tier act = simd::activeTier();
    constexpr int kStride = RsWorkspace::kSoaLanes;
    struct Shape { int n, k; };
    for (const Shape shape : {Shape{18, 16}, Shape{36, 32},
                              Shape{72, 64}}) {
        ReedSolomon rs(shape.n, shape.k);
        const int rr = rs.r();
        Rng rng(0xba7c4 + shape.n);

        for (int lanes : {1, 5, 16, 17, 32}) {
            std::vector<std::uint8_t> soa(
                static_cast<std::size_t>(shape.n) * kStride);
            for (auto &b : soa)
                b = static_cast<std::uint8_t>(rng.below(256));

            std::vector<std::uint8_t> synd_s(
                static_cast<std::size_t>(rr) * kStride);
            std::vector<std::uint8_t> synd_v = synd_s;
            std::vector<std::uint8_t> flags_s(kStride), flags_v(kStride);

            std::vector<std::uint8_t> roots(rr);
            for (int j = 0; j < rr; ++j)
                roots[j] = GF256::alphaPow(j);
            gfsimd::syndromeSoaAt(simd::Tier::Scalar, soa.data(),
                                  kStride, shape.n, lanes, roots.data(),
                                  rr, synd_s.data(), flags_s.data());
            gfsimd::syndromeSoaAt(act, soa.data(), kStride, shape.n,
                                  lanes, roots.data(), rr,
                                  synd_v.data(), flags_v.data());

            std::vector<std::uint8_t> word(shape.n), synd(rr);
            for (int l = 0; l < lanes; ++l) {
                for (int i = 0; i < shape.n; ++i)
                    word[i] = soa[static_cast<std::size_t>(i) *
                                      kStride +
                                  l];
                rs.computeSyndromes(word, synd);
                std::uint8_t any = 0;
                for (int j = 0; j < rr; ++j) {
                    ASSERT_EQ(synd_s[static_cast<std::size_t>(j) *
                                         kStride +
                                     l],
                              synd[j])
                        << "scalar lane " << l << " synd " << j;
                    ASSERT_EQ(synd_v[static_cast<std::size_t>(j) *
                                         kStride +
                                     l],
                              synd[j])
                        << "vector lane " << l << " synd " << j;
                    any |= synd[j];
                }
                ASSERT_EQ(flags_s[l] != 0, any != 0);
                ASSERT_EQ(flags_v[l] != 0, any != 0);
            }
        }
    }
}

TEST(Gf256Simd, SoaScatterGatherAreInverses)
{
    Rng rng(0x50a);
    const int symbols = 36, lanes = 32;
    std::vector<std::uint8_t> words(
        static_cast<std::size_t>(lanes) * symbols);
    for (auto &b : words)
        b = static_cast<std::uint8_t>(rng.below(256));

    std::vector<std::uint8_t> soa(
        static_cast<std::size_t>(symbols) * RsWorkspace::kSoaLanes);
    gfsimd::soaScatter(words.data(), symbols, symbols, lanes,
                       soa.data(), RsWorkspace::kSoaLanes);
    // Spot the transposed identity, then invert.
    EXPECT_EQ(soa[5 * RsWorkspace::kSoaLanes + 7],
              words[7 * symbols + 5]);
    std::vector<std::uint8_t> back(words.size());
    gfsimd::soaGather(soa.data(), RsWorkspace::kSoaLanes, symbols,
                      lanes, back.data(), symbols);
    EXPECT_EQ(back, words);
}

/** Set ARCC_SIMD to value, or unset it for nullptr.  Called inside
 *  death-test statements, so only the child's environment changes. */
void
setArccSimd(const char *value)
{
    if (value)
        ::setenv("ARCC_SIMD", value, 1);
    else
        ::unsetenv("ARCC_SIMD");
}

TEST(Gf256SimdEnv, KnownSpellingsSelectTheirTier)
{
    // Each child sets the cap, resolves it afresh and reports the
    // tier it picked as its exit code.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const simd::Tier det = simd::detectTier();
    const simd::Tier capped =
        det == simd::Tier::Avx2 ? simd::Tier::Ssse3 : det;
    struct Case
    {
        const char *value;
        simd::Tier tier;
    };
    for (const Case c : {Case{nullptr, det}, Case{"", det},
                         Case{"off", simd::Tier::Scalar},
                         Case{"OFF", simd::Tier::Scalar},
                         Case{"0", simd::Tier::Scalar},
                         Case{"scalar", simd::Tier::Scalar},
                         Case{"False", simd::Tier::Scalar},
                         Case{"ssse3", capped}, Case{"SSSE3", capped},
                         Case{"avx2", det}, Case{"neon", det}}) {
        EXPECT_EXIT(
            {
                setArccSimd(c.value);
                std::_Exit(static_cast<int>(simd::activeTier()));
            },
            testing::ExitedWithCode(static_cast<int>(c.tier)), "")
            << "ARCC_SIMD=" << (c.value ? c.value : "(unset)");
    }
}

// Regression: an unknown ARCC_SIMD value used to keep the detected
// tier, so "ARCC_SIMD=of" ran the vector kernels it meant to rule out.
TEST(Gf256SimdEnvDeath, MisspeltTierIsFatal)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *value : {"of", "none", "avx512"}) {
        EXPECT_EXIT(
            {
                setArccSimd(value);
                simd::activeTier();
            },
            testing::ExitedWithCode(1),
            std::string("ARCC_SIMD=") + value + ":");
    }
}

} // namespace
} // namespace arcc
