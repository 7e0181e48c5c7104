/**
 * @file
 * Oracle equality fuzzing for the fast Reed-Solomon pipeline (ctest
 * label `property`).
 *
 * The table-driven, allocation-free decoder in ecc/reed_solomon.cc is
 * required to be *bit-identical* to the retained reference
 * implementation (ecc/rs_reference.cc) -- same status, same corrected
 * word, same reported positions -- under arbitrary error / erasure /
 * maxCorrect combinations, including patterns far beyond the
 * correction capability.  These tests fuzz that contract with >= 10k
 * words per codec shape; every case logs its seed with SCOPED_TRACE
 * so a failure reproduces from the message alone:
 *
 *     Rng rng(seed_from_the_failure_message);
 *
 * They also pin the rollback contract the scrubber relies on: a
 * Detected outcome must leave the word exactly as it was received.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "ecc/reed_solomon.hh"
#include "ecc/rs_reference.hh"

namespace arcc
{
namespace
{

constexpr std::uint64_t kBaseSeed = 0x0a2cc0feeu;

/** Per-iteration seed: pure function of the base seed and index. */
std::uint64_t
caseSeed(std::uint64_t iteration)
{
    return Rng::mix64(kBaseSeed ^ (iteration * 0x9e3779b97f4a7c15ULL));
}

struct RsShape
{
    int n, k;
};

const std::vector<RsShape> kShapes = {
    {18, 16}, // ARCC relaxed.
    {36, 32}, // ARCC upgraded / commercial SCCDCD.
    {72, 64}, // Chapter 5.1 level 2.
};

/** Distinct random positions; the first f become erasures. */
std::vector<int>
distinctPositions(Rng &rng, int n, int count)
{
    std::vector<int> pos;
    while (static_cast<int>(pos.size()) < count) {
        int p = static_cast<int>(rng.below(n));
        if (std::find(pos.begin(), pos.end(), p) == pos.end())
            pos.push_back(p);
    }
    return pos;
}

TEST(RsOracleProperty, FuzzedDecodesMatchReferenceBitForBit)
{
    // The acceptance contract: >= 10k fuzzed words per codec, error
    // weights sweeping from clean through far-beyond-capability, all
    // maxCorrect modes the schemes use, with and without erasures.
    for (const RsShape &shape : kShapes) {
        ReedSolomon fast(shape.n, shape.k);
        RsReference ref(shape.n, shape.k);
        RsWorkspace ws;
        const int rr = fast.r();

        for (std::uint64_t it = 0; it < 10000; ++it) {
            const std::uint64_t seed =
                caseSeed((static_cast<std::uint64_t>(shape.n) << 32) +
                         it);
            Rng rng(seed);

            std::vector<std::uint8_t> word(shape.n);
            for (int i = 0; i < shape.k; ++i)
                word[i] = static_cast<std::uint8_t>(rng.below(256));

            // Encoders must agree symbol for symbol.
            std::vector<std::uint8_t> word_ref = word;
            fast.encode(word);
            ref.encode(word_ref);
            ASSERT_EQ(word, word_ref)
                << "encode mismatch, seed=" << seed;

            // 0 .. r+1 corruptions, a random split into erasures and
            // errors (erasure values are arbitrary garbage).
            const int weight = static_cast<int>(rng.below(rr + 2));
            const int f = weight == 0
                              ? 0
                              : static_cast<int>(rng.below(weight + 1));
            std::vector<int> pos = distinctPositions(rng, shape.n,
                                                     weight);
            std::vector<int> erasures(pos.begin(), pos.begin() + f);
            std::sort(erasures.begin(), erasures.end());
            for (int i = 0; i < f; ++i)
                word[pos[i]] = static_cast<std::uint8_t>(rng.below(256));
            for (int i = f; i < weight; ++i)
                word[pos[i]] ^=
                    static_cast<std::uint8_t>(rng.range(1, 255));

            // -1 = full capability, plus every per-scheme cap in use.
            const int max_correct =
                static_cast<int>(rng.below(4)) - 1;

            word_ref = word;
            const RsDecodeView v =
                fast.decode(word, ws, max_correct, erasures);
            const DecodeResult r =
                ref.decode(word_ref, max_correct, erasures);

            if (v.status != r.status || word != word_ref ||
                v.symbolsCorrected != r.symbolsCorrected ||
                !std::equal(v.positions.begin(), v.positions.end(),
                            r.positions.begin(), r.positions.end())) {
                FAIL() << "fast/reference divergence: n=" << shape.n
                       << " weight=" << weight << " f=" << f
                       << " maxCorrect=" << max_correct
                       << " seed=" << seed;
            }
        }
    }
}

TEST(RsOracleProperty, FuzzedEncodesMatchReferenceForEveryCheckCount)
{
    // Encode on its own, over both encoder paths: the packed-remainder
    // table (r <= 8) and the per-coefficient loop (longer codes).
    // Every r from 1 to 16 runs at a short, a random and the longest
    // length, plus RS(255,223).  A sentinel past n catches overruns.
    std::vector<RsShape> shapes;
    Rng lengths(kBaseSeed);
    for (int r = 1; r <= 16; ++r)
        for (int n : {r + 1, r + 2 + static_cast<int>(lengths.below(200)),
                      255})
            shapes.push_back({n, n - r});
    shapes.push_back({255, 223});

    for (const RsShape &shape : shapes) {
        ReedSolomon fast(shape.n, shape.k);
        RsReference ref(shape.n, shape.k);
        for (std::uint64_t it = 0; it < 300; ++it) {
            const std::uint64_t seed =
                caseSeed(0x300000000ULL +
                         (static_cast<std::uint64_t>(shape.n) << 24) +
                         (static_cast<std::uint64_t>(shape.k) << 12) + it);
            Rng rng(seed);

            std::vector<std::uint8_t> word(shape.n + 1, 0x5a);
            for (int i = 0; i < shape.k; ++i)
                word[i] = it == 0   ? 0
                          : it == 1 ? 0xff
                                    : static_cast<std::uint8_t>(
                                          rng.below(256));
            std::vector<std::uint8_t> word_ref = word;
            fast.encode(word);
            ref.encode(word_ref);
            if (word != word_ref || word[shape.n] != 0x5a ||
                !ref.syndromesZero(
                    std::span<const std::uint8_t>(word.data(), shape.n)))
                FAIL() << "encode mismatch: n=" << shape.n
                       << " k=" << shape.k << " seed=" << seed;
        }
    }
}

TEST(RsOracleProperty, ExtendedSyndromeDecodesMatchReference)
{
    // The VECC path: decodeWithSyndromes with sequences *longer* than
    // r (virtualised tier-2 evaluations), fuzzed against the oracle.
    for (const RsShape &shape : kShapes) {
        ReedSolomon fast(shape.n, shape.k);
        RsReference ref(shape.n, shape.k);
        RsWorkspace ws;
        const int rr = fast.r();
        const int extra = 2; // tier-2 symbols.
        const int total = rr + extra;

        for (std::uint64_t it = 0; it < 2000; ++it) {
            const std::uint64_t seed =
                caseSeed(0x700000000ULL +
                         (static_cast<std::uint64_t>(shape.n) << 24) +
                         it);
            SCOPED_TRACE("n=" + std::to_string(shape.n) +
                         " seed=" + std::to_string(seed));
            Rng rng(seed);

            std::vector<std::uint8_t> word(shape.n);
            for (int i = 0; i < shape.k; ++i)
                word[i] = static_cast<std::uint8_t>(rng.below(256));
            fast.encode(word);

            // Stored tier-2 evaluations of the pristine word.
            std::vector<std::uint8_t> tier2(extra);
            for (int j = 0; j < extra; ++j)
                tier2[j] = fast.evalAt(word, rr + j);

            const int weight =
                static_cast<int>(rng.below(total / 2 + 2));
            for (int p : distinctPositions(rng, shape.n, weight))
                word[p] ^=
                    static_cast<std::uint8_t>(rng.range(1, 255));

            std::vector<std::uint8_t> synd(total);
            for (int j = 0; j < rr; ++j)
                synd[j] = fast.evalAt(word, j);
            for (int j = 0; j < extra; ++j)
                synd[rr + j] = GF256::add(fast.evalAt(word, rr + j),
                                          tier2[j]);

            std::vector<std::uint8_t> word_ref = word;
            const RsDecodeView v = fast.decodeWithSyndromes(
                word, synd, ws, total / 2);
            const DecodeResult r = ref.decodeWithSyndromes(
                word_ref, synd, total / 2);

            EXPECT_EQ(v.status, r.status);
            EXPECT_EQ(v.symbolsCorrected, r.symbolsCorrected);
            EXPECT_EQ(word, word_ref);
            EXPECT_TRUE(std::equal(v.positions.begin(),
                                   v.positions.end(),
                                   r.positions.begin(),
                                   r.positions.end()));
        }
    }
}

TEST(RsOracleProperty, ErrorsAndErasuresWithinCapabilityCorrect)
{
    // 2e + f <= r must always round-trip on the workspace fast path,
    // for every codec shape the schemes instantiate.
    for (const RsShape &shape : kShapes) {
        ReedSolomon rs(shape.n, shape.k);
        RsWorkspace ws;
        const int rr = rs.r();

        for (std::uint64_t it = 0; it < 3000; ++it) {
            const std::uint64_t seed =
                caseSeed(0x100000000ULL +
                         (static_cast<std::uint64_t>(shape.n) << 24) +
                         it);
            SCOPED_TRACE("n=" + std::to_string(shape.n) +
                         " seed=" + std::to_string(seed));
            Rng rng(seed);

            std::vector<std::uint8_t> word(shape.n);
            for (int i = 0; i < shape.k; ++i)
                word[i] = static_cast<std::uint8_t>(rng.below(256));
            rs.encode(word);
            const std::vector<std::uint8_t> original = word;

            const int f = static_cast<int>(rng.range(0, rr));
            const int e =
                static_cast<int>(rng.range(0, (rr - f) / 2));
            std::vector<int> pos =
                distinctPositions(rng, shape.n, e + f);
            std::vector<int> erasures(pos.begin(), pos.begin() + f);
            std::sort(erasures.begin(), erasures.end());
            for (int i = 0; i < f; ++i)
                word[pos[i]] =
                    static_cast<std::uint8_t>(rng.below(256));
            for (int i = f; i < e + f; ++i)
                word[pos[i]] ^=
                    static_cast<std::uint8_t>(rng.range(1, 255));

            const RsDecodeView v = rs.decode(word, ws, -1, erasures);
            EXPECT_TRUE(v.ok()) << "e=" << e << " f=" << f;
            EXPECT_EQ(word, original);
            // Reported positions must be exactly the symbols whose
            // received value differed from the codeword's.
            for (int p : v.positions)
                EXPECT_NE(std::find(pos.begin(), pos.end(), p),
                          pos.end());
        }
    }
}

TEST(RsOracleProperty, DetectedRestoresTheReceivedWordBitForBit)
{
    // The rollback contract: whenever the decoder (fast or reference)
    // answers Detected, the word must be byte-identical to what was
    // received -- the scrubber writes it back as-is, so a half-applied
    // correction would corrupt memory.
    for (const RsShape &shape : kShapes) {
        ReedSolomon fast(shape.n, shape.k);
        RsReference ref(shape.n, shape.k);
        RsWorkspace ws;
        const int rr = fast.r();
        int detected = 0;

        for (std::uint64_t it = 0; it < 3000; ++it) {
            const std::uint64_t seed =
                caseSeed(0x200000000ULL +
                         (static_cast<std::uint64_t>(shape.n) << 24) +
                         it);
            SCOPED_TRACE("n=" + std::to_string(shape.n) +
                         " seed=" + std::to_string(seed));
            Rng rng(seed);

            std::vector<std::uint8_t> word(shape.n);
            for (int i = 0; i < shape.k; ++i)
                word[i] = static_cast<std::uint8_t>(rng.below(256));
            fast.encode(word);

            // Beyond capability: t+1 .. r+2 errors.
            const int e = static_cast<int>(
                rng.range(rr / 2 + 1, rr + 2));
            for (int p : distinctPositions(rng, shape.n, e))
                word[p] ^=
                    static_cast<std::uint8_t>(rng.range(1, 255));
            const std::vector<std::uint8_t> received = word;

            const int max_correct = static_cast<int>(rng.below(2))
                                        ? -1
                                        : 1;
            const RsDecodeView v =
                fast.decode(word, ws, max_correct);
            if (v.status == DecodeStatus::Detected) {
                ++detected;
                EXPECT_EQ(word, received)
                    << "DUE must not half-correct";
                EXPECT_EQ(v.symbolsCorrected, 0);
                EXPECT_TRUE(v.positions.empty());
            }

            std::vector<std::uint8_t> word_ref = received;
            const DecodeResult r =
                ref.decode(word_ref, max_correct);
            if (r.status == DecodeStatus::Detected) {
                EXPECT_EQ(word_ref, received);
            }
            EXPECT_EQ(v.status, r.status);
            EXPECT_EQ(word, word_ref);
        }
        EXPECT_GT(detected, 2000)
            << "beyond-capability patterns should mostly flag DUEs";
    }
}

} // namespace
} // namespace arcc
