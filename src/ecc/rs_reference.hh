/**
 * @file
 * The *reference* Reed-Solomon implementation: the original
 * allocation-heavy, log/exp-multiply decoder this library shipped
 * before the table-driven fast path replaced it in the hot paths.
 *
 * It is retained, unoptimised and deliberately simple, as the oracle
 * the fast pipeline is pinned against: tests/test_property_rs_oracle.cc
 * fuzzes >= 10k words per codec shape and requires bit-identical
 * status / corrected word / positions from both decoders.  Do not
 * optimise this class; its value is that it stays obviously correct.
 *
 * Semantics are documented in ecc/reed_solomon.hh; the two classes
 * are drop-in interchangeable.
 */

#ifndef ARCC_ECC_RS_REFERENCE_HH
#define ARCC_ECC_RS_REFERENCE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "ecc/reed_solomon.hh"

namespace arcc
{

/**
 * Systematic RS(n, k) over GF(2^8), reference implementation.
 */
class RsReference
{
  public:
    RsReference(int n, int k);

    int n() const { return n_; }
    int k() const { return k_; }
    int r() const { return n_ - k_; }

    /** Encode in place: reads codeword[0..k), writes codeword[k..n). */
    void encode(std::span<std::uint8_t> codeword) const;

    /** @return true when all syndromes are zero. */
    bool syndromesZero(std::span<const std::uint8_t> codeword) const;

    /** Decode in place (see ReedSolomon::decode). */
    DecodeResult decode(std::span<std::uint8_t> codeword,
                        int maxCorrect = -1,
                        std::span<const int> erasures = {}) const;

    /** Evaluate the received word at alpha^j. */
    std::uint8_t evalAt(std::span<const std::uint8_t> codeword,
                        int j) const;

    /** Decode with an externally supplied syndrome sequence. */
    DecodeResult decodeWithSyndromes(
        std::span<std::uint8_t> codeword,
        std::span<const std::uint8_t> synd, int maxCorrect = -1,
        std::span<const int> erasures = {}) const;

  private:
    bool computeSyndromes(std::span<const std::uint8_t> codeword,
                          std::vector<std::uint8_t> &synd) const;

    int n_;
    int k_;
    /** Generator polynomial, low-order coefficient first. */
    std::vector<std::uint8_t> gen_;
};

} // namespace arcc

#endif // ARCC_ECC_RS_REFERENCE_HH
