/**
 * @file
 * SIMD dispatch tiers for the GF(2^8) syndrome screen.
 *
 * The one vector kernel, gfsimd::syndromeSoa (ecc/gf256_simd.hh), is
 * compiled per ISA extension with function-level target attributes
 * (so the baseline build stays runnable on any x86-64) and its tier
 * is selected once at runtime:
 *
 *  - **Avx2**:  32-lane nibble shuffles via vpshufb.
 *  - **Ssse3**: 16-lane nibble shuffles via pshufb (the portable x86
 *               floor; every x86-64 part since ~2006 has it).
 *  - **Neon**:  16-lane shuffles via tbl on aarch64 (baseline there).
 *  - **Scalar**: the table-driven loops of ecc/reed_solomon.cc --
 *               the *pinned oracle*.  Every vector tier is required
 *               to be bit-identical to it (and the scalar pipeline is
 *               in turn fuzzed against RsReference), so "fast" and
 *               "correct" stay the same artifact.
 *
 * Two override knobs force the scalar path:
 *
 *  - `-DARCC_SIMD=OFF` at configure time defines ARCC_SIMD_DISABLED
 *    and compiles the vector kernels out entirely (the CI scalar leg);
 *  - the `ARCC_SIMD` environment variable caps the tier at runtime
 *    without a rebuild (case-insensitive): `off` / `0` / `scalar` /
 *    `false` force scalar, `ssse3` caps an AVX2 machine at 16 lanes,
 *    `avx2` / `neon` / unset / empty keep the detected tier, and any
 *    other text is fatal.
 */

#ifndef ARCC_ECC_SIMD_HH
#define ARCC_ECC_SIMD_HH

namespace arcc
{
namespace simd
{

/** Instruction-set tier a kernel runs at, best first. */
enum class Tier
{
    Scalar,
    Ssse3,
    Avx2,
    Neon,
};

/** Display name ("scalar", "ssse3", "avx2", "neon"). */
const char *tierName(Tier t);

/**
 * The best tier this binary + CPU supports, ignoring the environment
 * override.  Compile-time gates (ARCC_SIMD_DISABLED, target ISA)
 * apply; the result never names an unsupported path.
 */
Tier detectTier();

/**
 * The tier the dispatched kernels actually use: detectTier() capped
 * by the ARCC_SIMD environment variable.  Resolved once on first use
 * and cached for the process lifetime.
 */
Tier activeTier();

} // namespace simd
} // namespace arcc

#endif // ARCC_ECC_SIMD_HH
