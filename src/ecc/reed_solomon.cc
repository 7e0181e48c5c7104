/**
 * @file
 * Reed-Solomon encode and errors-and-erasures decode: the table-driven
 * allocation-free fast path.
 *
 * Conventions: the codeword array c[0..n) maps to the polynomial
 * c(x) = sum_i c[i] * x^(n-1-i), i.e. c[0] carries the highest power.
 * The generator is g(x) = prod_{j=0}^{r-1} (x - alpha^j) (fcr = 0), so
 * the syndromes are S_j = c(alpha^j).  The locator of an error at array
 * index i is X_i = alpha^(n-1-i).
 *
 * The pipeline is algorithmically the same errors-and-erasures decoder
 * as ecc/rs_reference.cc (which is the retained original), restructured
 * for speed:
 *
 *  - every GF multiply is a product-table load; scale-accumulate loops
 *    hoist one 256-byte MulRow per fixed multiplicand;
 *  - encode for r <= 8 is a byte-at-a-time LFSR: the remainder lives
 *    packed in one uint64_t and each data symbol xors in one entry
 *    of a 256-entry table of scaled generators; a line's codewords
 *    run as interleaved chains (encodeSoa);
 *  - a single bad symbol is located and corrected in closed form
 *    from the syndrome ratio, which is what Berlekamp-Massey, Chien
 *    and Forney compute for it;
 *  - all scratch lives in the caller's RsWorkspace -- no heap traffic
 *    anywhere on the encode / syndrome / decode paths;
 *  - syndrome Horner chains are interleaved across j, so the r
 *    dependent-load chains pipeline instead of serialising;
 *  - the Chien search is one scalar scan that steps the evaluation
 *    point incrementally (one multiply per psi coefficient per
 *    position, with a per-instance alpha^j step table) and exits as
 *    soon as deg(Psi) roots are found;
 *  - the final safety check verifies sum_i mag_i * X_i^j == S_j
 *    (O(errors * r)) instead of re-evaluating the whole corrected
 *    word (O(n * r)); the two are the same field identity.
 *
 * Decode results are bit-identical to the reference implementation;
 * tests/test_property_rs_oracle.cc fuzzes the equivalence.
 */

#include "ecc/reed_solomon.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "ecc/gf256_simd.hh"

namespace arcc
{

namespace gfpoly
{

std::size_t
mulInto(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
        std::span<std::uint8_t> out)
{
    if (a.empty() || b.empty())
        return 0;
    const std::size_t len = a.size() + b.size() - 1;
    ARCC_ASSERT(out.size() >= len);
    std::memset(out.data(), 0, len);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] == 0)
            continue;
        const GF256::MulRow row = GF256::mulRow(a[i]);
        for (std::size_t j = 0; j < b.size(); ++j)
            out[i + j] ^= row(b[j]);
    }
    return len;
}

std::vector<std::uint8_t>
mul(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b)
{
    if (a.empty() || b.empty())
        return {};
    std::vector<std::uint8_t> out(a.size() + b.size() - 1, 0);
    mulInto(a, b, out);
    return out;
}

std::uint8_t
eval(std::span<const std::uint8_t> p, std::uint8_t x)
{
    // Horner from the highest coefficient, one table row for x.
    const GF256::MulRow row = GF256::mulRow(x);
    std::uint8_t acc = 0;
    for (std::size_t i = p.size(); i-- > 0;)
        acc = row(acc) ^ p[i];
    return acc;
}

std::size_t
derivativeInto(std::span<const std::uint8_t> p,
               std::span<std::uint8_t> out)
{
    // d/dx sum a_i x^i = sum_{i odd} a_i x^(i-1) over GF(2^m).
    if (p.size() <= 1) {
        ARCC_ASSERT(!out.empty());
        out[0] = 0;
        return 1;
    }
    const std::size_t len = p.size() - 1;
    ARCC_ASSERT(out.size() >= len);
    std::memset(out.data(), 0, len);
    for (std::size_t i = 1; i < p.size(); i += 2)
        out[i - 1] = p[i];
    return len;
}

std::vector<std::uint8_t>
derivative(std::span<const std::uint8_t> p)
{
    std::vector<std::uint8_t> out(std::max<std::size_t>(p.size(), 2) - 1,
                                  0);
    derivativeInto(p, out);
    return out;
}

int
degree(std::span<const std::uint8_t> p)
{
    for (std::size_t i = p.size(); i-- > 0;)
        if (p[i] != 0)
            return static_cast<int>(i);
    return -1;
}

} // namespace gfpoly

ReedSolomon::ReedSolomon(int n, int k)
    : n_(n), k_(k)
{
    if (n < 2 || n > 255)
        fatal("ReedSolomon: n = %d out of range [2, 255]", n);
    if (k < 1 || k >= n)
        fatal("ReedSolomon: k = %d out of range [1, n)", k);

    // g(x) = prod_{j=0}^{r-1} (x - alpha^j), built low-to-high.
    gen_ = {1};
    for (int j = 0; j < r(); ++j) {
        std::uint8_t root = GF256::alphaPow(j);
        // Multiply gen_ by (x + root): over GF(2^m), -root == root.
        std::vector<std::uint8_t> factor = {root, 1};
        gen_ = gfpoly::mul(gen_, factor);
    }

    const int rr = r();

    // Encode walks g high-to-low (minus the monic lead): precompute
    // that order so the inner loop is a straight scale-accumulate.
    genHigh_.resize(rr);
    for (int j = 0; j < rr; ++j)
        genHigh_[j] = gen_[rr - 1 - j];
    if (rr <= kPackedChecks) {
        remTable_.assign(GF256::kOrder, 0);
        for (int c = 0; c < GF256::kOrder; ++c) {
            const GF256::MulRow row =
                GF256::mulRow(static_cast<std::uint8_t>(c));
            for (int j = 0; j < rr; ++j)
                remTable_[c] |= static_cast<std::uint64_t>(row(genHigh_[j]))
                                << (8 * j);
        }
    }

    // One product-table row per syndrome root alpha^j, plus the roots
    // themselves for the SoA shuffle kernel.
    syndRows_.resize(rr);
    syndRoots_.resize(rr);
    for (int j = 0; j < rr; ++j) {
        syndRoots_[j] = GF256::alphaPow(j);
        syndRows_[j] = GF256::mulTable() +
                       static_cast<std::size_t>(syndRoots_[j]) *
                           GF256::kOrder;
    }

    // Locators X_i = alpha^(n-1-i) and their inverses, per position,
    // and the reverse map from a locator to its position.
    xAt_.resize(n_);
    xInvAt_.resize(n_);
    posOfX_.fill(-1);
    for (int i = 0; i < n_; ++i) {
        xAt_[i] = GF256::alphaPow(n_ - 1 - i);
        xInvAt_[i] = GF256::inv(xAt_[i]);
        posOfX_[xAt_[i]] = static_cast<std::int16_t>(i);
    }

    // Incremental Chien tables: scanning positions i = 0, 1, ... puts
    // the evaluation point at alpha^-(n-1-i), i.e. it starts at
    // alpha^-(n-1) and steps by alpha.  Term j therefore starts at
    // psi_j * alpha^(-j(n-1)) and multiplies by alpha^j per position.
    // deg(Psi) <= r < kOrder bounds the table size.
    chienInit_.resize(GF256::kOrder);
    chienStep_.resize(GF256::kOrder);
    for (int j = 0; j < GF256::kOrder; ++j) {
        chienInit_[j] = GF256::alphaPow(-(j * (n_ - 1)));
        chienStep_[j] = GF256::alphaPow(j);
    }
}

namespace
{

/**
 * The packed-remainder LFSR of W lanes of an SoA block at once (see
 * ReedSolomon::encodeSoa).  Each lane is a serial load-shift-xor
 * chain; W independent chains in flight overlap their table loads.
 */
template <int W>
void
packedLfsr(const std::uint64_t *table, std::uint8_t *soa,
           std::size_t stride, int k, int rr)
{
    // The remainder's coefficient j lives in byte j of packed[l]: the
    // shift is one right shift (bytes >= rr stay zero) and the scaled
    // generator one table entry.
    std::uint64_t packed[W] = {};
    for (int i = 0; i < k; ++i) {
        const std::uint8_t *row = soa + static_cast<std::size_t>(i) * stride;
        for (int l = 0; l < W; ++l)
            packed[l] = (packed[l] >> 8) ^
                        table[row[l] ^ static_cast<std::uint8_t>(packed[l])];
    }
    for (int j = 0; j < rr; ++j) {
        std::uint8_t *row = soa + static_cast<std::size_t>(k + j) * stride;
        for (int l = 0; l < W; ++l)
            row[l] = static_cast<std::uint8_t>(packed[l] >> (8 * j));
    }
}

} // anonymous namespace

void
ReedSolomon::encode(std::span<std::uint8_t> codeword) const
{
    ARCC_ASSERT(codeword.size() >= static_cast<std::size_t>(n_));
    encodeSoa(codeword.data(), 1, 1);
}

void
ReedSolomon::encodeSoa(std::uint8_t *soa, std::size_t stride,
                       int lanes) const
{
    ARCC_ASSERT(lanes > 0 && static_cast<std::size_t>(lanes) <= stride);

    // Polynomial long division of d(x) * x^r by g(x); the remainder is
    // the parity.  Work in the "high power first" view, which matches
    // the array order directly.
    const int rr = r();
    if (!remTable_.empty()) {
        const std::uint64_t *table = remTable_.data();
        int l = 0;
        for (; l + 4 <= lanes; l += 4)
            packedLfsr<4>(table, soa + l, stride, k_, rr);
        switch (lanes - l) {
          case 3: packedLfsr<3>(table, soa + l, stride, k_, rr); break;
          case 2: packedLfsr<2>(table, soa + l, stride, k_, rr); break;
          case 1: packedLfsr<1>(table, soa + l, stride, k_, rr); break;
        }
        return;
    }
    // Longer codes keep the per-coefficient loop, one lane at a time.
    for (int l = 0; l < lanes; ++l) {
        std::uint8_t rem[RsWorkspace::kMaxChecks];
        std::memset(rem, 0, rr);
        for (int i = 0; i < k_; ++i) {
            const std::uint8_t coef =
                soa[static_cast<std::size_t>(i) * stride + l] ^ rem[0];
            // Shift the remainder left by one position.
            for (int j = 0; j < rr - 1; ++j)
                rem[j] = rem[j + 1];
            rem[rr - 1] = 0;
            if (coef != 0) {
                // Subtract coef * g(x); g is monic so the leading term
                // cancels with the shifted-out coefficient.
                const GF256::MulRow row = GF256::mulRow(coef);
                for (int j = 0; j < rr; ++j)
                    rem[j] ^= row(genHigh_[j]);
            }
        }
        for (int j = 0; j < rr; ++j)
            soa[static_cast<std::size_t>(k_ + j) * stride + l] = rem[j];
    }
}

bool
ReedSolomon::computeSyndromes(std::span<const std::uint8_t> codeword,
                              std::span<std::uint8_t> synd) const
{
    ARCC_ASSERT(codeword.size() >= static_cast<std::size_t>(n_));
    ARCC_ASSERT(synd.size() <= static_cast<std::size_t>(r()));
    const int rr = static_cast<int>(synd.size());
    if (rr == 0)
        return false;

    // S_j = c(alpha^j), Horner over the array (highest power first).
    // Chains are run four at a time in register lanes over one pass
    // of the codeword, so the per-chain L1-load latency overlaps
    // instead of adding up (a lone chain is a serial load-to-load
    // dependency).  Lanes past rr recompute the last row's chain and
    // are discarded -- cheaper than branching in the inner loop.
    bool any = false;
    for (int j0 = 0; j0 < rr; j0 += 4) {
        const std::uint8_t *r0 = syndRows_[j0];
        const std::uint8_t *r1 = syndRows_[std::min(j0 + 1, rr - 1)];
        const std::uint8_t *r2 = syndRows_[std::min(j0 + 2, rr - 1)];
        const std::uint8_t *r3 = syndRows_[std::min(j0 + 3, rr - 1)];
        std::uint8_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        for (int i = 0; i < n_; ++i) {
            const std::uint8_t c = codeword[i];
            s0 = r0[s0] ^ c;
            s1 = r1[s1] ^ c;
            s2 = r2[s2] ^ c;
            s3 = r3[s3] ^ c;
        }
        synd[j0] = s0;
        any = any || s0 != 0;
        if (j0 + 1 < rr) {
            synd[j0 + 1] = s1;
            any = any || s1 != 0;
        }
        if (j0 + 2 < rr) {
            synd[j0 + 2] = s2;
            any = any || s2 != 0;
        }
        if (j0 + 3 < rr) {
            synd[j0 + 3] = s3;
            any = any || s3 != 0;
        }
    }
    return any;
}

std::uint8_t
ReedSolomon::evalAt(std::span<const std::uint8_t> codeword, int j) const
{
    const GF256::MulRow row = GF256::mulRow(GF256::alphaPow(j));
    std::uint8_t acc = 0;
    for (int i = 0; i < n_; ++i)
        acc = row(acc) ^ codeword[i];
    return acc;
}

RsWorkspace &
ReedSolomon::tlsWorkspace()
{
    static thread_local RsWorkspace ws;
    return ws;
}

RsDecodeView
ReedSolomon::decodeCore(std::span<std::uint8_t> codeword,
                        std::span<const std::uint8_t> synd,
                        RsWorkspace &ws, int maxCorrect,
                        std::span<const int> erasures) const
{
    const int rr = static_cast<int>(synd.size());
    ARCC_ASSERT(rr <= RsWorkspace::kMaxChecks);

    RsDecodeView res;
    const int f = static_cast<int>(erasures.size());
    if (f > rr) {
        res.status = DecodeStatus::Detected;
        return res;
    }
    const int e_cap = (rr - f) / 2;
    const int allowed =
        maxCorrect < 0 ? e_cap : std::min(maxCorrect, e_cap);

    // Closed form for one bad symbol: S_j = S_0 * X^j with X = S_1 / S_0
    // the locator of a position of this code.  That is the pipeline's
    // own result for these syndromes -- Berlekamp-Massey gives
    // Lambda = 1 + X x, Chien its one root, Forney the magnitude S_0,
    // and the safety check holds by construction -- reached without
    // building a polynomial.
    if (f == 0 && allowed >= 1 && synd[0] != 0) {
        const std::uint8_t x = GF256::div(synd[1], synd[0]);
        const GF256::MulRow row = GF256::mulRow(x);
        bool single = posOfX_[x] >= 0;
        for (int j = 1; single && j + 1 < rr; ++j)
            single = row(synd[j]) == synd[j + 1];
        if (single) {
            const int pos = posOfX_[x];
            codeword[pos] ^= synd[0];
            ws.positions[0] = pos;
            res.status = DecodeStatus::Corrected;
            res.symbolsCorrected = 1;
            res.positions = std::span<const int>(ws.positions.data(), 1);
            return res;
        }
    }

    // Erasure locator Gamma(x) = prod (1 - X_i x), built in place.
    std::uint8_t *gamma = ws.gamma.data();
    int gamma_len = 1;
    gamma[0] = 1;
    for (int pos : erasures) {
        ARCC_ASSERT(pos >= 0 && pos < n_);
        const GF256::MulRow row = GF256::mulRow(xAt_[pos]);
        gamma[gamma_len] = 0;
        for (int j = gamma_len; j >= 1; --j)
            gamma[j] ^= row(gamma[j - 1]);
        ++gamma_len;
    }

    // Modified syndromes Xi(x) = S(x) * Gamma(x) mod x^rr.
    const std::size_t xi_len = gfpoly::mulInto(
        synd, std::span<const std::uint8_t>(gamma, gamma_len), ws.xi);
    for (std::size_t j = xi_len; j < static_cast<std::size_t>(rr); ++j)
        ws.xi[j] = 0;
    const std::uint8_t *xi = ws.xi.data();

    // Berlekamp-Massey for up to floor((rr - f) / 2) errors.  The
    // state polynomials keep explicit storage lengths that replicate
    // the reference's vector sizes exactly (they matter in the
    // discrepancy guard below).
    std::uint8_t *lambda = ws.lambda.data();
    std::uint8_t *prev = ws.prev.data();
    int lambda_len = 1;
    int prev_len = 1;
    lambda[0] = 1;
    prev[0] = 1;
    int big_l = 0;
    int m = 1;
    std::uint8_t b = 1;
    for (int it = 0; it < rr - f; ++it) {
        std::uint8_t delta = xi[f + it];
        for (int i = 1; i <= big_l; ++i) {
            if (i < lambda_len && f + it - i >= 0)
                delta ^= GF256::mul(lambda[i], xi[f + it - i]);
        }
        if (delta == 0) {
            ++m;
            continue;
        }
        const GF256::MulRow row = GF256::mulRow(GF256::div(delta, b));
        if (lambda_len < prev_len + m) {
            ARCC_ASSERT(prev_len + m <= RsWorkspace::kPolyCap);
            std::memset(lambda + lambda_len, 0,
                        prev_len + m - lambda_len);
        }
        if (2 * big_l <= it) {
            std::memcpy(ws.tmp.data(), lambda, lambda_len);
            const int tmp_len = lambda_len;
            lambda_len = std::max(lambda_len, prev_len + m);
            for (int i = 0; i < prev_len; ++i)
                lambda[i + m] ^= row(prev[i]);
            big_l = it + 1 - big_l;
            std::memcpy(prev, ws.tmp.data(), tmp_len);
            prev_len = tmp_len;
            b = delta;
            m = 1;
        } else {
            lambda_len = std::max(lambda_len, prev_len + m);
            for (int i = 0; i < prev_len; ++i)
                lambda[i + m] ^= row(prev[i]);
            ++m;
        }
    }

    const int num_errors = gfpoly::degree(
        std::span<const std::uint8_t>(lambda, lambda_len));
    if (num_errors < 0 || num_errors > allowed || big_l != num_errors) {
        res.status = DecodeStatus::Detected;
        return res;
    }

    // Combined locator Psi = Lambda * Gamma; Lambda trimmed to its
    // degree (trailing storage zeros contribute nothing).
    const std::size_t psi_len = gfpoly::mulInto(
        std::span<const std::uint8_t>(lambda, num_errors + 1),
        std::span<const std::uint8_t>(gamma, gamma_len), ws.psi);
    const std::uint8_t *psi = ws.psi.data();
    const int psi_deg =
        gfpoly::degree(std::span<const std::uint8_t>(psi, psi_len));

    // Chien search, ascending array positions: term j starts at
    // psi_j * alpha^(-j(n-1)) and steps by alpha^j, one multiply per
    // psi coefficient per position.  A polynomial with psi[0] == 1 has
    // at most psi_deg roots, so the scan stops once they are all found.
    ARCC_ASSERT(psi_len <= static_cast<std::size_t>(GF256::kOrder));
    std::uint8_t *terms = ws.terms.data();
    for (std::size_t j = 0; j < psi_len; ++j)
        terms[j] = GF256::mul(psi[j], chienInit_[j]);
    int found = 0;
    for (int i = 0; i < n_ && found < psi_deg; ++i) {
        std::uint8_t v = 0;
        for (std::size_t j = 0; j < psi_len; ++j)
            v ^= terms[j];
        if (v == 0)
            ws.errPos[found++] = i;
        for (std::size_t j = 1; j < psi_len; ++j)
            terms[j] = GF256::mul(terms[j], chienStep_[j]);
    }
    if (found != psi_deg) {
        res.status = DecodeStatus::Detected;
        return res;
    }

    // Forney: Omega = S * Psi mod x^rr, magnitudes from Omega / Psi'.
    const std::size_t omega_len = gfpoly::mulInto(
        synd, std::span<const std::uint8_t>(psi, psi_len), ws.omega);
    for (std::size_t j = omega_len; j < static_cast<std::size_t>(rr);
         ++j)
        ws.omega[j] = 0;
    const std::span<const std::uint8_t> omega(ws.omega.data(),
                                              static_cast<std::size_t>(rr));
    const std::size_t pp_len = gfpoly::derivativeInto(
        std::span<const std::uint8_t>(psi, psi_len), ws.psiPrime);
    const std::span<const std::uint8_t> psi_prime(ws.psiPrime.data(),
                                                  pp_len);

    auto rollback = [&](int applied) {
        for (int a = 0; a < applied; ++a)
            codeword[ws.positions[a]] ^= ws.mags[a];
    };

    int applied = 0;
    for (int idx = 0; idx < found; ++idx) {
        const int i = ws.errPos[idx];
        const std::uint8_t x_i = xAt_[i];
        const std::uint8_t x_inv = xInvAt_[i];
        const std::uint8_t denom = gfpoly::eval(psi_prime, x_inv);
        if (denom == 0) {
            rollback(applied);
            res.status = DecodeStatus::Detected;
            return res;
        }
        const std::uint8_t num = gfpoly::eval(omega, x_inv);
        const std::uint8_t magnitude =
            GF256::mul(x_i, GF256::div(num, denom));
        if (magnitude != 0) {
            codeword[i] ^= magnitude;
            ws.positions[applied] = i;
            ws.mags[applied] = magnitude;
            ++applied;
        }
    }

    // Safety: the corrected word must reproduce every expected
    // evaluation.  Since evalAt(corrected, j) differs from
    // evalAt(original, j) by exactly sum_i mag_i * X_i^j, that is the
    // identity  sum_i mag_i * X_i^j == S_j  for every supplied
    // syndrome -- checked incrementally in O(applied * rr) rather
    // than re-evaluating the whole word.  On failure the pattern
    // exceeded the capability; restore the original word so the
    // caller gets a clean DUE.
    for (int a = 0; a < applied; ++a)
        ws.terms[a] = ws.mags[a];
    for (int j = 0; j < rr; ++j) {
        std::uint8_t sum = 0;
        for (int a = 0; a < applied; ++a)
            sum ^= ws.terms[a];
        if (sum != synd[j]) {
            rollback(applied);
            res.status = DecodeStatus::Detected;
            return res;
        }
        if (j + 1 < rr) {
            for (int a = 0; a < applied; ++a)
                ws.terms[a] =
                    GF256::mul(ws.terms[a], xAt_[ws.positions[a]]);
        }
    }

    res.status = DecodeStatus::Corrected;
    res.symbolsCorrected = applied;
    res.positions = std::span<const int>(ws.positions.data(),
                                         static_cast<std::size_t>(applied));
    return res;
}

RsDecodeView
ReedSolomon::decodeWithSyndromes(std::span<std::uint8_t> codeword,
                                 std::span<const std::uint8_t> synd,
                                 RsWorkspace &ws, int maxCorrect,
                                 std::span<const int> erasures) const
{
    ARCC_ASSERT(codeword.size() >= static_cast<std::size_t>(n_));
    bool any = false;
    for (std::uint8_t s : synd)
        any = any || s != 0;
    if (!any)
        return {};
    return decodeCore(codeword, synd, ws, maxCorrect, erasures);
}

RsDecodeView
ReedSolomon::decode(std::span<std::uint8_t> codeword, RsWorkspace &ws,
                    int maxCorrect, std::span<const int> erasures) const
{
    ARCC_ASSERT(codeword.size() >= static_cast<std::size_t>(n_));
    const std::span<std::uint8_t> synd(ws.synd.data(),
                                       static_cast<std::size_t>(r()));
    if (!computeSyndromes(codeword, synd))
        return {};
    return decodeCore(codeword, synd, ws, maxCorrect, erasures);
}

bool
ReedSolomon::computeSyndromesSoa(const std::uint8_t *soa,
                                 std::size_t stride, int lanes,
                                 std::uint8_t *synd_soa,
                                 std::uint8_t *flags) const
{
    ARCC_ASSERT(lanes > 0 &&
                lanes <= static_cast<int>(stride));
    gfsimd::syndromeSoa(soa, stride, n_, lanes, syndRoots_.data(), r(),
                        synd_soa, flags);
    for (int l = 0; l < lanes; ++l)
        if (flags[l] != 0)
            return true;
    return false;
}

void
ReedSolomon::decodeSoa(std::uint8_t *soa, std::size_t stride, int lanes,
                       RsWorkspace &ws, int maxCorrect,
                       std::span<const int> erasures,
                       RsLaneResult *results) const
{
    ARCC_ASSERT(lanes <= RsWorkspace::kSoaLanes &&
                stride <= static_cast<std::size_t>(
                              RsWorkspace::kSoaLanes));
    if (results) {
        for (int l = 0; l < lanes; ++l)
            results[l] = RsLaneResult{};
    }
    if (!computeSyndromesSoa(soa, stride, lanes, ws.syndSoa.data(),
                             ws.soaFlags.data()))
        return;

    // Flagged lanes take decodeCore one column at a time, reusing the
    // syndromes the screen already computed -- the zero-syndrome
    // early-out of decode() is exactly the flags test, so each lane's
    // outcome is bit-identical to decode() on its word (erasures
    // included: a clean screen returns Clean without consulting them,
    // as decode() does).
    const int rr = r();
    const std::span<std::uint8_t> word(
        ws.word.data(), static_cast<std::size_t>(n_));
    for (int l = 0; l < lanes; ++l) {
        if (ws.soaFlags[l] == 0)
            continue;
        for (int i = 0; i < n_; ++i)
            word[i] = soa[static_cast<std::size_t>(i) * stride + l];
        for (int j = 0; j < rr; ++j)
            ws.synd[j] =
                ws.syndSoa[static_cast<std::size_t>(j) * stride + l];
        const RsDecodeView v = decodeCore(
            word,
            std::span<const std::uint8_t>(
                ws.synd.data(), static_cast<std::size_t>(rr)),
            ws, maxCorrect, erasures);
        for (int p : v.positions)
            soa[static_cast<std::size_t>(p) * stride + l] = word[p];
        if (results) {
            results[l].status = v.status;
            results[l].symbolsCorrected = v.symbolsCorrected;
        }
    }
}

} // namespace arcc
