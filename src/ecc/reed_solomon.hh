/**
 * @file
 * Systematic Reed-Solomon codes over GF(2^8) with errors-and-erasures
 * decoding.
 *
 * One codec instance models one (n, k) code.  The codes the paper uses:
 *
 *  - RS(18, 16): the ARCC *relaxed* codeword (2 check symbols, one
 *    18-device rank).  Guarantees single-symbol correction.
 *  - RS(36, 32): the ARCC *upgraded* codeword and the commercial
 *    SCCDCD codeword (4 check symbols, 36 devices).  Decoded with
 *    maxCorrect = 1 this corrects one bad symbol and is guaranteed to
 *    detect up to three more (d = 5); decoded with maxCorrect = 2 it
 *    models the correction capability of double chip sparing once the
 *    first bad device has been identified.
 *  - RS(72, 64): the second-level upgraded codeword of Chapter 5.1
 *    (8 check symbols across four channels).
 *
 * The decoder also accepts *erasures* (positions known bad, e.g. a
 * device already diagnosed and remapped by chip sparing); e errors and
 * f erasures are corrected whenever 2e + f <= n - k.
 *
 * This is the *fast* implementation: table-driven GF(2^8) arithmetic
 * (see gf256.hh), zero heap allocations on every encode / syndrome /
 * decode path when driven through an RsWorkspace, per-instance
 * precomputed locator tables, and an incremental alpha-stepping Chien
 * search.  Its decode results are bit-identical to the retained
 * reference implementation (ecc/rs_reference.hh); the property suite
 * fuzzes the two against each other.
 */

#ifndef ARCC_ECC_REED_SOLOMON_HH
#define ARCC_ECC_REED_SOLOMON_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "ecc/gf256.hh"
#include "ecc/rs_workspace.hh"

namespace arcc
{

/** Outcome of a decode attempt. */
enum class DecodeStatus
{
    /** Syndromes were all zero: no error present (or undetectable). */
    Clean,
    /** Errors were found and corrected in place. */
    Corrected,
    /**
     * An error was detected but exceeds the configured correction
     * capability: a detectable uncorrectable error (DUE).
     */
    Detected,
};

/**
 * Owning result of a line decode (LineCodec::decodeInto) and of the
 * reference RS oracle.  Callers reuse one across decodes: positions
 * keeps its capacity.
 */
struct DecodeResult
{
    DecodeStatus status = DecodeStatus::Clean;
    /** Number of symbols changed by the decoder (errors + erasures). */
    int symbolsCorrected = 0;
    /** Codeword positions the decoder changed. */
    std::vector<int> positions;

    bool ok() const { return status != DecodeStatus::Detected; }
};

/**
 * Per-lane outcome of a batched SoA decode (ReedSolomon::decodeSoa).
 * Plain values only -- changed positions stay in the SoA block.
 */
struct RsLaneResult
{
    DecodeStatus status = DecodeStatus::Clean;
    int symbolsCorrected = 0;

    bool ok() const { return status != DecodeStatus::Detected; }
};

/**
 * Non-owning decode result of the allocation-free fast path.
 * `positions` aliases the workspace the decode ran in, so it is valid
 * until that workspace's next decode.  Copy it out if you need it
 * longer.
 */
struct RsDecodeView
{
    DecodeStatus status = DecodeStatus::Clean;
    int symbolsCorrected = 0;
    /** Codeword positions changed, ascending; view into workspace. */
    std::span<const int> positions{};

    bool ok() const { return status != DecodeStatus::Detected; }
};

/**
 * A systematic RS(n, k) codec over GF(2^8).  Codewords are arrays of n
 * bytes: data symbols in [0, k), check symbols in [k, n).
 */
class ReedSolomon
{
  public:
    /**
     * Build the codec.
     * @param n codeword length in symbols (2 <= n <= 255).
     * @param k data symbols per codeword (1 <= k < n).
     */
    ReedSolomon(int n, int k);

    int n() const { return n_; }
    int k() const { return k_; }
    /** Number of check symbols. */
    int r() const { return n_ - k_; }

    /**
     * Encode in place: reads codeword[0..k), writes codeword[k..n).
     * Allocation-free; the one-lane case of encodeSoa().
     * @param codeword buffer of at least n symbols.
     */
    void encode(std::span<std::uint8_t> codeword) const;

    /**
     * Encode a codeword-transposed (SoA) block in place: lane l's word
     * is soa[i * stride + l] for i in [0, n); rows [0, k) are read and
     * rows [k, n) written.  A device-major line buffer has exactly
     * this layout with stride = lanes = codewords per line.  For
     * r <= 8 (every library codec) each lane is a byte-at-a-time LFSR
     * over a 256-entry table of packed remainders, and the lanes run
     * as independent interleaved chains, so their table-load
     * latencies overlap.  Each lane is bit-identical to encode() on
     * its word.  Allocation-free.
     * @pre 0 < lanes <= stride.
     */
    void encodeSoa(std::uint8_t *soa, std::size_t stride,
                   int lanes) const;

    /**
     * Compute the first `synd.size()` syndromes S_j = c(alpha^j) into
     * the caller's buffer.  Allocation-free.
     * @pre synd.size() <= r().  Evaluations at the extension roots
     *      j >= r (VECC's virtualised check symbols) are not
     *      syndromes of this code; compute those with evalAt().
     * @return true if any syndrome is non-zero.
     */
    bool computeSyndromes(std::span<const std::uint8_t> codeword,
                          std::span<std::uint8_t> synd) const;

    /**
     * Batched syndrome screen over a codeword-transposed (SoA) block:
     * lane l's word is soa[i * stride + l] for i in [0, n).  Computes
     * all r() syndromes of every lane into synd_soa (same transposed
     * layout, r() rows) and ORs each lane's syndromes into flags[l].
     * Runs at the active SIMD tier; bit-identical per lane to
     * computeSyndromes().  Allocation-free.
     *
     * @pre stride is a multiple of 16 and >= lanes rounded up to 16;
     *      entries in [lanes, roundUp16(lanes)) of every synd_soa row
     *      and of flags are clobbered (see ecc/gf256_simd.hh).
     * @return true if any lane in [0, lanes) flagged.
     */
    bool computeSyndromesSoa(const std::uint8_t *soa, std::size_t stride,
                             int lanes, std::uint8_t *synd_soa,
                             std::uint8_t *flags) const;

    /**
     * Batched decode of an SoA block, in place: the vector syndrome
     * screen above, then decode() for just the lanes it flagged
     * (gathered one column at a time into ws.word, the screen's
     * syndromes reused), so a one-symbol lane takes decode()'s closed
     * form.  Lane l's outcome is bit-identical to decode() on that
     * word -- same status, same corrected symbols -- with corrections
     * written back into the block.  `erasures` applies to every lane
     * (the callers batch codewords that share a device group, so a
     * spared device erases the same position in each).  Screen scratch
     * comes from ws.syndSoa / ws.soaFlags; the block itself is the
     * caller's (usually ws.soa, as in ArccMemory::accessBatch).
     * Allocation-free.
     *
     * @param results one RsLaneResult per lane, or nullptr when only
     *                the corrected block is wanted.
     */
    void decodeSoa(std::uint8_t *soa, std::size_t stride, int lanes,
                   RsWorkspace &ws, int maxCorrect = -1,
                   std::span<const int> erasures = {},
                   RsLaneResult *results = nullptr) const;

    /**
     * Decode in place through a workspace: the allocation-free fast
     * path.  The returned view's `positions` aliases `ws`.
     *
     * One bad symbol -- what a dead chip leaves in every codeword of
     * an upgraded page -- is corrected in closed form, as a chipkill
     * controller's single-symbol decoder does: with no erasures and a
     * cap of at least one error, syndromes S_j = S_0 * X^j for every
     * j, with X = S_1 / S_0 the locator of a position of this code,
     * name that position and S_0 its error value.  Berlekamp-Massey,
     * Chien and Forney would find the same (Lambda = 1 + X x,
     * Omega = S_0, magnitude S_0), so the result is bit-identical;
     * every other syndrome pattern runs that pipeline.
     *
     * @param codeword   buffer of n symbols, corrected on success.
     * @param ws         scratch arena (one per worker, reused).
     * @param maxCorrect cap on the number of *errors* (not erasures)
     *                   the decoder may correct; -1 means the full
     *                   capability floor((r - f) / 2).  SCCDCD uses 1.
     * @param erasures   positions known to be unreliable.
     */
    RsDecodeView decode(std::span<std::uint8_t> codeword,
                        RsWorkspace &ws, int maxCorrect = -1,
                        std::span<const int> erasures = {}) const;

    /**
     * Evaluate the received word at alpha^j (the j-th syndrome of the
     * error polynomial when j < r; for j >= r this is the evaluation a
     * *virtualised* check symbol must match).  VECC stores such extra
     * evaluations out of line (tier-2 ECC) and hands them back via
     * decodeWithSyndromes.
     */
    std::uint8_t evalAt(std::span<const std::uint8_t> codeword,
                        int j) const;

    /**
     * Decode with an externally supplied syndrome sequence.  `synd`
     * may be *longer* than r: VECC's tier-2 check symbols extend the
     * effective redundancy of the inline codeword (Chapter 5.2), so an
     * RS(18,16) word plus two virtualised evaluations decodes with
     * four syndromes.  Allocation-free fast path; the view's
     * `positions` aliases `ws`.
     */
    RsDecodeView decodeWithSyndromes(
        std::span<std::uint8_t> codeword,
        std::span<const std::uint8_t> synd, RsWorkspace &ws,
        int maxCorrect = -1, std::span<const int> erasures = {}) const;

    /**
     * The calling thread's default workspace.  Thread-local, so
     * "one per SimEngine worker" holds with no plumbing for callers
     * that do not own one (sharded sweeps construct their own).
     */
    static RsWorkspace &tlsWorkspace();

  private:
    /**
     * The decode behind every entry point: the closed form for one
     * bad symbol, else the full pipeline.  `synd` must already be
     * known non-zero somewhere.
     */
    RsDecodeView decodeCore(std::span<std::uint8_t> codeword,
                            std::span<const std::uint8_t> synd,
                            RsWorkspace &ws, int maxCorrect,
                            std::span<const int> erasures) const;

    int n_;
    int k_;
    /** Generator polynomial, low-order coefficient first. */
    std::vector<std::uint8_t> gen_;
    /** gen_ reversed (high-order first, monic lead dropped): the
     *  order encode's scale-accumulate walks it in. */
    std::vector<std::uint8_t> genHigh_;
    /** Packed remainders for r <= kPackedChecks: entry c is
     *  c * genHigh_ with coefficient j in byte j, so encode advances
     *  the whole division remainder by one data symbol with one
     *  load, one shift and one xor.  Empty for longer codes, which
     *  keep the per-coefficient loop. */
    std::vector<std::uint64_t> remTable_;
    static constexpr int kPackedChecks = 8;
    /** Syndrome Horner multiplier rows: row j scales by alpha^j. */
    std::vector<const std::uint8_t *> syndRows_;
    /** The syndrome roots alpha^j themselves (SoA kernel input). */
    std::vector<std::uint8_t> syndRoots_;
    /** Locator tables: xAt_[i] = alpha^(n-1-i), xInvAt_[i] its
     *  inverse -- the locator of an error at array index i and the
     *  Chien root that reveals it. */
    std::vector<std::uint8_t> xAt_;
    std::vector<std::uint8_t> xInvAt_;
    /** posOfX_[x]: the array index whose locator is x, or -1 when x
     *  locates no position of this code (the closed form's lookup). */
    std::array<std::int16_t, GF256::kOrder> posOfX_;
    /** Chien start tables: scanning array positions in ascending
     *  order puts the evaluation point at alpha^-(n-1-i), so term j
     *  starts at psi_j * chienInit_[j] = psi_j * alpha^(-j(n-1)). */
    std::vector<std::uint8_t> chienInit_;
    /** Chien step table: term j multiplies by chienStep_[j] = alpha^j
     *  per position. */
    std::vector<std::uint8_t> chienStep_;
};

/** Polynomial helpers shared with tests (coefficients low-to-high). */
namespace gfpoly
{

/** Multiply two polynomials over GF(2^8). */
std::vector<std::uint8_t> mul(std::span<const std::uint8_t> a,
                              std::span<const std::uint8_t> b);

/**
 * In-place span variant of mul: writes a * b into `out` (which must
 * not alias the inputs and must hold a.size() + b.size() - 1
 * coefficients) and returns that length.  Zero-length inputs produce
 * a zero-length product.
 */
std::size_t mulInto(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b,
                    std::span<std::uint8_t> out);

/** Evaluate a polynomial at x. */
std::uint8_t eval(std::span<const std::uint8_t> p, std::uint8_t x);

/** Formal derivative (over GF(2^m) even-power terms vanish). */
std::vector<std::uint8_t> derivative(std::span<const std::uint8_t> p);

/**
 * In-place span variant of derivative: writes p' into `out` (needs
 * max(p.size() - 1, 1) coefficients; may not alias p) and returns
 * that length.
 */
std::size_t derivativeInto(std::span<const std::uint8_t> p,
                           std::span<std::uint8_t> out);

/** Degree of p (-1 for the zero polynomial). */
int degree(std::span<const std::uint8_t> p);

} // namespace gfpoly

} // namespace arcc

#endif // ARCC_ECC_REED_SOLOMON_HH
