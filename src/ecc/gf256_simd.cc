/**
 * @file
 * GF(2^8) SIMD layer: tier detection, the ARCC_SIMD cap, and the one
 * dispatched kernel, syndromeSoa's batched syndrome screen, with a
 * nibble-split shuffle body per ISA tier beside its scalar tier.
 *
 * The x86 kernels are compiled with function-level target attributes
 * so the translation unit builds at the project's baseline -march
 * (plain x86-64); detectTier() guarantees a kernel is only ever
 * entered on a CPU that has its extension.  aarch64 NEON is baseline
 * and needs no attribute.  With ARCC_SIMD_DISABLED every vector body
 * drops out and the dispatch degenerates to the scalar tier.
 */

#include "ecc/gf256_simd.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "ecc/gf256.hh"

#if !defined(ARCC_SIMD_DISABLED) && \
    (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define ARCC_SIMD_X86 1
#include <immintrin.h>
#endif

#if !defined(ARCC_SIMD_DISABLED) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define ARCC_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace arcc
{

namespace simd
{

const char *
tierName(Tier t)
{
    switch (t) {
      case Tier::Scalar: return "scalar";
      case Tier::Ssse3:  return "ssse3";
      case Tier::Avx2:   return "avx2";
      case Tier::Neon:   return "neon";
    }
    return "?";
}

Tier
detectTier()
{
#if defined(ARCC_SIMD_X86)
    if (__builtin_cpu_supports("avx2"))
        return Tier::Avx2;
    if (__builtin_cpu_supports("ssse3"))
        return Tier::Ssse3;
#elif defined(ARCC_SIMD_NEON)
    return Tier::Neon;
#endif
    return Tier::Scalar;
}

namespace
{

/**
 * Apply the ARCC_SIMD environment cap to the detected tier.  A value
 * it does not know is fatal: a misspelt "off" that kept the vector
 * tier would leave a run meant to test the scalar fallback testing
 * nothing.
 */
Tier
resolveTier()
{
    const Tier det = detectTier();
    const char *env = std::getenv("ARCC_SIMD");
    if (!env || !*env)
        return det;
    std::string v;
    for (const char *p = env; *p; ++p)
        v.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(*p))));
    if (v == "off" || v == "0" || v == "scalar" || v == "false")
        return Tier::Scalar;
    // Capping below the detected tier is allowed (e.g. ssse3 on an
    // AVX2 part); asking for more than the hardware has keeps the
    // detected tier.
    if (v == "ssse3")
        return det == Tier::Avx2 ? Tier::Ssse3 : det;
    if (v == "avx2" || v == "neon")
        return det;
    fatal("ARCC_SIMD=%s: need off, 0, scalar, false, ssse3, avx2 or "
          "neon", env);
}

} // anonymous namespace

Tier
activeTier()
{
    static const Tier t = resolveTier();
    return t;
}

} // namespace simd

namespace gfsimd
{

// ---------------------------------------------------------------------
// Scalar tier: the pinned oracle.  Identical arithmetic to the
// product-table loops in ecc/reed_solomon.cc.
// ---------------------------------------------------------------------

namespace
{

/**
 * The Horner chains of lanes [l0, l0 + 4) and roots [j0, j0 + 2) in
 * one pass over the rows: eight independent chains in registers, so
 * their product-table loads overlap instead of each waiting on the
 * last.  A lane or root past the end is clamped to the last one: its
 * chain repeats that one and stores the same bytes.
 */
void
hornerBlock(const std::uint8_t *soa, std::size_t stride, int symbols,
            int l0, int lanes, const std::uint8_t *roots, int j0, int rr,
            std::uint8_t *synd_soa, std::uint8_t *flags)
{
    constexpr int L = 4, R = 2;
    std::size_t lane[L];
    for (int l = 0; l < L; ++l)
        lane[l] = static_cast<std::size_t>(std::min(l0 + l, lanes - 1));
    int root[R];
    const std::uint8_t *table[R];
    for (int r = 0; r < R; ++r) {
        root[r] = std::min(j0 + r, rr - 1);
        table[r] = GF256::mulTable() +
                   static_cast<std::size_t>(roots[root[r]]) * GF256::kOrder;
    }
    std::uint8_t acc[R][L] = {};
    for (int i = 0; i < symbols; ++i) {
        const std::uint8_t *row = soa + static_cast<std::size_t>(i) * stride;
        for (int l = 0; l < L; ++l) {
            const std::uint8_t c = row[lane[l]];
            for (int r = 0; r < R; ++r)
                acc[r][l] = table[r][acc[r][l]] ^ c;
        }
    }
    for (int r = 0; r < R; ++r)
        for (int l = 0; l < L; ++l) {
            synd_soa[static_cast<std::size_t>(root[r]) * stride + lane[l]] =
                acc[r][l];
            flags[lane[l]] |= acc[r][l];
        }
}

void
syndromeSoaScalar(const std::uint8_t *soa, std::size_t stride,
                  int symbols, int lanes, const std::uint8_t *roots,
                  int rr, std::uint8_t *synd_soa, std::uint8_t *flags)
{
    std::memset(flags, 0, static_cast<std::size_t>(lanes));
    for (int l0 = 0; l0 < lanes; l0 += 4)
        for (int j0 = 0; j0 < rr; j0 += 2)
            hornerBlock(soa, stride, symbols, l0, lanes, roots, j0, rr,
                        synd_soa, flags);
}

} // anonymous namespace

// ---------------------------------------------------------------------
// SSSE3 / AVX2 tiers (x86).
// ---------------------------------------------------------------------

#if defined(ARCC_SIMD_X86)

namespace
{

__attribute__((target("ssse3"))) inline __m128i
mulVec128(__m128i lo_tbl, __m128i hi_tbl, __m128i x)
{
    const __m128i mask = _mm_set1_epi8(0x0f);
    const __m128i lo = _mm_and_si128(x, mask);
    const __m128i hi =
        _mm_and_si128(_mm_srli_epi16(x, 4), mask);
    return _mm_xor_si128(_mm_shuffle_epi8(lo_tbl, lo),
                         _mm_shuffle_epi8(hi_tbl, hi));
}

__attribute__((target("ssse3"))) void
syndromeSoaSsse3(const std::uint8_t *soa, std::size_t stride,
                 int symbols, int lanes, const std::uint8_t *roots,
                 int rr, std::uint8_t *synd_soa, std::uint8_t *flags)
{
    const int blocks = roundUpLanes(lanes) / kLaneBlock;
    for (int b = 0; b < blocks; ++b) {
        const std::size_t off =
            static_cast<std::size_t>(b) * kLaneBlock;
        __m128i flag = _mm_setzero_si128();
        for (int j = 0; j < rr; ++j) {
            const std::uint8_t *nib = GF256::nibRow(roots[j]);
            const __m128i lo_tbl = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(nib));
            const __m128i hi_tbl = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(nib + 16));
            __m128i acc = _mm_setzero_si128();
            for (int i = 0; i < symbols; ++i) {
                const __m128i c = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(
                        soa + static_cast<std::size_t>(i) * stride +
                        off));
                acc = _mm_xor_si128(mulVec128(lo_tbl, hi_tbl, acc), c);
            }
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(
                    synd_soa + static_cast<std::size_t>(j) * stride +
                    off),
                acc);
            flag = _mm_or_si128(flag, acc);
        }
        _mm_storeu_si128(reinterpret_cast<__m128i *>(flags + off),
                         flag);
    }
}

__attribute__((target("avx2"))) inline __m256i
mulVec256(__m256i lo_tbl, __m256i hi_tbl, __m256i x)
{
    const __m256i mask = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(x, mask);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(x, 4), mask);
    return _mm256_xor_si256(_mm256_shuffle_epi8(lo_tbl, lo),
                            _mm256_shuffle_epi8(hi_tbl, hi));
}

__attribute__((target("avx2"))) void
syndromeSoaAvx2(const std::uint8_t *soa, std::size_t stride,
                int symbols, int lanes, const std::uint8_t *roots,
                int rr, std::uint8_t *synd_soa, std::uint8_t *flags)
{
    // 32-lane blocks; a trailing 16-lane block falls to SSSE3.
    const int rounded = roundUpLanes(lanes);
    int off = 0;
    for (; off + 32 <= rounded; off += 32) {
        __m256i flag = _mm256_setzero_si256();
        for (int j = 0; j < rr; ++j) {
            const std::uint8_t *nib = GF256::nibRow(roots[j]);
            const __m256i lo_tbl = _mm256_broadcastsi128_si256(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(nib)));
            const __m256i hi_tbl = _mm256_broadcastsi128_si256(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(nib + 16)));
            __m256i acc = _mm256_setzero_si256();
            for (int i = 0; i < symbols; ++i) {
                const __m256i c = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(
                        soa + static_cast<std::size_t>(i) * stride +
                        off));
                acc = _mm256_xor_si256(mulVec256(lo_tbl, hi_tbl, acc),
                                       c);
            }
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(
                    synd_soa + static_cast<std::size_t>(j) * stride +
                    off),
                acc);
            flag = _mm256_or_si256(flag, acc);
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(flags + off),
                            flag);
    }
    if (off < rounded)
        syndromeSoaSsse3(soa + off, stride, symbols, rounded - off,
                         roots, rr, synd_soa + off, flags + off);
}

} // anonymous namespace

#endif // ARCC_SIMD_X86

// ---------------------------------------------------------------------
// NEON tier (aarch64).
// ---------------------------------------------------------------------

#if defined(ARCC_SIMD_NEON)

namespace
{

inline uint8x16_t
mulVecNeon(uint8x16_t lo_tbl, uint8x16_t hi_tbl, uint8x16_t x)
{
    const uint8x16_t mask = vdupq_n_u8(0x0f);
    const uint8x16_t lo = vandq_u8(x, mask);
    const uint8x16_t hi = vshrq_n_u8(x, 4);
    return veorq_u8(vqtbl1q_u8(lo_tbl, lo), vqtbl1q_u8(hi_tbl, hi));
}

void
syndromeSoaNeon(const std::uint8_t *soa, std::size_t stride,
                int symbols, int lanes, const std::uint8_t *roots,
                int rr, std::uint8_t *synd_soa, std::uint8_t *flags)
{
    const int blocks = roundUpLanes(lanes) / kLaneBlock;
    for (int b = 0; b < blocks; ++b) {
        const std::size_t off =
            static_cast<std::size_t>(b) * kLaneBlock;
        uint8x16_t flag = vdupq_n_u8(0);
        for (int j = 0; j < rr; ++j) {
            const std::uint8_t *nib = GF256::nibRow(roots[j]);
            const uint8x16_t lo_tbl = vld1q_u8(nib);
            const uint8x16_t hi_tbl = vld1q_u8(nib + 16);
            uint8x16_t acc = vdupq_n_u8(0);
            for (int i = 0; i < symbols; ++i) {
                const uint8x16_t c = vld1q_u8(
                    soa + static_cast<std::size_t>(i) * stride + off);
                acc = veorq_u8(mulVecNeon(lo_tbl, hi_tbl, acc), c);
            }
            vst1q_u8(synd_soa + static_cast<std::size_t>(j) * stride +
                         off,
                     acc);
            flag = vorrq_u8(flag, acc);
        }
        vst1q_u8(flags + off, flag);
    }
}

} // anonymous namespace

#endif // ARCC_SIMD_NEON

// ---------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------

void
syndromeSoaAt(simd::Tier t, const std::uint8_t *soa, std::size_t stride,
              int symbols, int lanes, const std::uint8_t *roots, int rr,
              std::uint8_t *synd_soa, std::uint8_t *flags)
{
    if (stride % kLaneBlock != 0) {
        // One line's device rows (stride = lanes = codewords per
        // line), which the vector tiers' 16-lane blocks would overrun.
        ARCC_ASSERT(stride == static_cast<std::size_t>(lanes));
        t = simd::Tier::Scalar;
    } else {
        ARCC_ASSERT(stride >= static_cast<std::size_t>(roundUpLanes(lanes)));
    }
    switch (t) {
#if defined(ARCC_SIMD_X86)
      case simd::Tier::Avx2:
        syndromeSoaAvx2(soa, stride, symbols, lanes, roots, rr,
                        synd_soa, flags);
        return;
      case simd::Tier::Ssse3:
        syndromeSoaSsse3(soa, stride, symbols, lanes, roots, rr,
                         synd_soa, flags);
        return;
#endif
#if defined(ARCC_SIMD_NEON)
      case simd::Tier::Neon:
        syndromeSoaNeon(soa, stride, symbols, lanes, roots, rr,
                        synd_soa, flags);
        return;
#endif
      default:
        syndromeSoaScalar(soa, stride, symbols, lanes, roots, rr,
                          synd_soa, flags);
        return;
    }
}

void
syndromeSoa(const std::uint8_t *soa, std::size_t stride, int symbols,
            int lanes, const std::uint8_t *roots, int rr,
            std::uint8_t *synd_soa, std::uint8_t *flags)
{
    syndromeSoaAt(simd::activeTier(), soa, stride, symbols, lanes,
                  roots, rr, synd_soa, flags);
}

void
soaScatter(const std::uint8_t *words, std::size_t word_stride,
           int symbols, int lanes, std::uint8_t *soa,
           std::size_t soa_stride)
{
    for (int l = 0; l < lanes; ++l) {
        const std::uint8_t *w =
            words + static_cast<std::size_t>(l) * word_stride;
        for (int i = 0; i < symbols; ++i)
            soa[static_cast<std::size_t>(i) * soa_stride + l] = w[i];
    }
}

void
soaGather(const std::uint8_t *soa, std::size_t soa_stride, int symbols,
          int lanes, std::uint8_t *words, std::size_t word_stride)
{
    for (int l = 0; l < lanes; ++l) {
        std::uint8_t *w =
            words + static_cast<std::size_t>(l) * word_stride;
        for (int i = 0; i < symbols; ++i)
            w[i] = soa[static_cast<std::size_t>(i) * soa_stride + l];
    }
}

} // namespace gfsimd
} // namespace arcc
