/**
 * @file
 * RsWorkspace: the per-worker scratch arena of the Reed-Solomon fast
 * path.
 *
 * The original decoder heap-allocated roughly ten std::vectors per
 * call (syndromes, the erasure/error locators, the Berlekamp-Massey
 * state, the Forney polynomials, the position lists).  Per decode
 * that is more allocator time than field arithmetic once the
 * arithmetic is table-driven, and it serialises threads on the
 * allocator under the sharded sweeps.  The workspace replaces all of
 * them with fixed-capacity inline buffers: one workspace per
 * SimEngine worker (or one per shard, or the per-thread default from
 * ReedSolomon::tlsWorkspace()), reused across every encode / syndrome
 * / decode call that worker makes.
 *
 * Capacities are compile-time upper bounds over every code the
 * library can construct (n <= 255, so r <= 254; VECC hands the
 * decoder syndrome sequences slightly longer than r).  The decoder
 * asserts against them at entry, so a workspace can never be
 * silently outgrown.  Sizing is generous rather than tight -- the
 * whole arena is ~12 KiB, i.e. noise next to the 64 KiB GF(2^8)
 * product table it feeds from.
 */

#ifndef ARCC_ECC_RS_WORKSPACE_HH
#define ARCC_ECC_RS_WORKSPACE_HH

#include <array>
#include <cstdint>

namespace arcc
{

/**
 * Scratch buffers for one in-flight Reed-Solomon operation.  Plain
 * aggregates; nothing is initialised up front because every user
 * writes before it reads (lengths travel separately inside the
 * decoder).  Not thread-safe: give each worker its own.
 */
struct RsWorkspace
{
    /** Max syndromes a decode may be handed (r + tier-2 extras). */
    static constexpr int kMaxChecks = 255;
    /** Max codeword length. */
    static constexpr int kMaxSymbols = 255;
    /**
     * Polynomial buffer capacity.  Berlekamp-Massey storage can
     * carry trailing zeros beyond the mathematical degree (bounded
     * by ~2r), and the products Psi = Lambda * Gamma and
     * Omega = S * Psi are formed in full before truncation, so the
     * buffers leave ample headroom over kMaxChecks.
     */
    static constexpr int kPolyCap = 1024;
    /**
     * Lanes of the codeword-transposed (SoA) batch buffers: how many
     * codewords one ReedSolomon::decodeSoa call screens per pass.
     * A multiple of 16 (the SIMD shuffle width, see ecc/gf256_simd.hh)
     * sized to swallow the widest natural batch in one block -- eight
     * relaxed RS(18,16) groups of 4 codewords, or two upgraded
     * groups -- staged by ArccMemory::accessBatch one device row per
     * memcpy.
     */
    static constexpr int kSoaLanes = 32;

    /** Syndrome sequence (decode) / remainder (encode). */
    std::array<std::uint8_t, kMaxChecks> synd;

    /** Erasure locator Gamma. */
    std::array<std::uint8_t, kPolyCap> gamma;
    /** Modified syndromes Xi = S * Gamma mod x^rr. */
    std::array<std::uint8_t, kPolyCap> xi;
    /** Berlekamp-Massey error locator Lambda and its B polynomial. */
    std::array<std::uint8_t, kPolyCap> lambda;
    std::array<std::uint8_t, kPolyCap> prev;
    /** Scratch copy of Lambda taken before an in-place update. */
    std::array<std::uint8_t, kPolyCap> tmp;
    /** Combined locator Psi = Lambda * Gamma and its derivative. */
    std::array<std::uint8_t, kPolyCap> psi;
    std::array<std::uint8_t, kPolyCap> psiPrime;
    /** Error evaluator Omega = S * Psi mod x^rr. */
    std::array<std::uint8_t, kPolyCap> omega;
    /** Chien running terms psi_j * x^j. */
    std::array<std::uint8_t, kPolyCap> terms;

    /** Root positions the Chien search found. */
    std::array<int, kMaxSymbols> errPos;
    /** Correction magnitudes applied (parallel to positions). */
    std::array<std::uint8_t, kMaxSymbols> mags;
    /** Codeword positions changed; RsDecodeView::positions points
     *  here, so the view is valid until the next use of this
     *  workspace. */
    std::array<int, kMaxSymbols> positions;

    /** One codeword staged for a scalar decode: a flagged lane of
     *  ReedSolomon::decodeSoa's block, or a line's codeword gathered
     *  from its device rows (RsLineCodec::decodeInto, VECC), symbol d
     *  from device d.  decode() itself never touches it. */
    std::array<std::uint8_t, kMaxSymbols> word;

    // ----- SoA batch staging (ReedSolomon::decodeSoa) ----------------
    //
    // The transposed block soa[symbol * kSoaLanes + lane] plus its
    // per-lane syndrome rows and screen flags.  ~10 KiB on top of the
    // scalar arena; one workspace still serves both paths.
    // RsLineCodec::decodeInto screens a line's device rows in place
    // and uses only syndSoa and soaFlags (stride = codewords).

    /** Codeword-transposed batch: symbol i of lane l at
     *  soa[i * kSoaLanes + l]. */
    std::array<std::uint8_t, kMaxSymbols * kSoaLanes> soa;
    /** Per-lane syndromes, same transposed layout. */
    std::array<std::uint8_t, kMaxChecks * kSoaLanes> syndSoa;
    /** Per-lane screen flags (non-zero = lane needs a full decode). */
    std::array<std::uint8_t, kSoaLanes> soaFlags;
};

} // namespace arcc

#endif // ARCC_ECC_RS_WORKSPACE_HH
