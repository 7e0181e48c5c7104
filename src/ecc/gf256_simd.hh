/**
 * @file
 * The vectorized GF(2^8) syndrome screen over codeword-transposed
 * (SoA) batches.
 *
 * The scalar decoder is bound by one L1 load per field multiply; the
 * only data-level parallelism a single codeword offers is the handful
 * of syndrome chains.  The screen flips the layout instead: a batch
 * of up to RsWorkspace::kSoaLanes codewords is stored transposed,
 *
 *     soa[symbol * stride + lane]
 *
 * so symbol i of every lane is one contiguous row and a 16/32-byte
 * vector register holds the same pipeline stage of 16/32 *different*
 * codewords.  A multiply by a constant then becomes two table-lookup
 * shuffles (pshufb / NEON tbl) against the 16-entry nibble-split rows
 * of GF256::nibTable() -- the ISA-L recipe:
 *
 *     a * x == nibRow(a)[x & 0xf] ^ nibRow(a)[16 + (x >> 4)]
 *
 * syndromeSoa is the one dispatched kernel: ReedSolomon::decodeSoa
 * screens each ArccMemory::accessBatch run with it, and the decode of
 * a flagged lane is scalar.  syndromeSoaAt names the tier, so tests
 * can run the scalar and vector paths in one process and assert
 * bit-identical results.  The scalar tier is the same arithmetic as
 * ReedSolomon::computeSyndromes, which is fuzzed against RsReference
 * -- the oracle chain the dispatch contract hangs off.
 *
 * Lane-count convention: rows are processed in 16-lane blocks, so the
 * kernel may read and write up to roundUp16(lanes) entries of every
 * row (garbage lanes compute garbage, which callers ignore).  The
 * caller must therefore provide stride >= roundUp16(lanes); the
 * RsWorkspace staging buffers use stride == kSoaLanes == 32.
 */

#ifndef ARCC_ECC_GF256_SIMD_HH
#define ARCC_ECC_GF256_SIMD_HH

#include <cstddef>
#include <cstdint>

#include "ecc/simd.hh"

namespace arcc
{
namespace gfsimd
{

/** Lanes one 16-byte shuffle register covers (the dispatch block). */
constexpr int kLaneBlock = 16;

/** lanes rounded up to a whole 16-lane block. */
constexpr int
roundUpLanes(int lanes)
{
    return (lanes + kLaneBlock - 1) & ~(kLaneBlock - 1);
}

/**
 * Batched Horner syndrome evaluation over an SoA block.
 *
 * For each root j < rr and lane l < lanes:
 *
 *     synd_soa[j * stride + l] = sum_i soa[i * stride + l]
 *                                * roots[j]^(symbols - 1 - i)
 *
 * i.e. exactly ReedSolomon::computeSyndromes per lane.  flags[l] is
 * the OR of lane l's rr syndromes, so flags[l] != 0 marks a flagged
 * codeword.  Rows are processed in 16-lane blocks: entries of
 * synd_soa and flags in [lanes, roundUp16(lanes)) are clobbered with
 * garbage.
 *
 * @pre stride >= roundUp16(lanes), stride % 16 == 0.
 */
void syndromeSoa(const std::uint8_t *soa, std::size_t stride,
                 int symbols, int lanes, const std::uint8_t *roots,
                 int rr, std::uint8_t *synd_soa, std::uint8_t *flags);

/** syndromeSoa at an explicit tier (tests). */
void syndromeSoaAt(simd::Tier t, const std::uint8_t *soa,
                   std::size_t stride, int symbols, int lanes,
                   const std::uint8_t *roots, int rr,
                   std::uint8_t *synd_soa, std::uint8_t *flags);

/**
 * AoS -> SoA transpose: scatter `lanes` codewords of `symbols` bytes
 * (word l starting at words + l * word_stride) into the transposed
 * block.  Scalar on purpose -- the staging is bandwidth-trivial next
 * to the decode work it feeds, and the real callers mostly stage
 * straight from per-device slices, which are already SoA rows.
 */
void soaScatter(const std::uint8_t *words, std::size_t word_stride,
                int symbols, int lanes, std::uint8_t *soa,
                std::size_t soa_stride);

/** SoA -> AoS transpose: exact inverse of soaScatter. */
void soaGather(const std::uint8_t *soa, std::size_t soa_stride,
               int symbols, int lanes, std::uint8_t *words,
               std::size_t word_stride);

} // namespace gfsimd
} // namespace arcc

#endif // ARCC_ECC_GF256_SIMD_HH
