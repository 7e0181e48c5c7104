/**
 * @file
 * Property / fuzz-style tests for the GF(2^8) arithmetic and the
 * Reed-Solomon codecs (ctest label `property`).
 *
 * Each randomised case derives its generator from a per-iteration
 * seed -- Rng::mix64(kBaseSeed ^ iteration) -- and logs that seed
 * with SCOPED_TRACE, so any failure names the exact seed that
 * reproduces it:
 *
 *     Rng rng(seed_from_the_failure_message);
 *
 * The properties themselves are the algebra the decoder's
 * correctness rests on: field axioms for GF256, and the
 * encode / corrupt(<= t) / decode round-trip for RS(n, k).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "ecc/gf256.hh"
#include "ecc/reed_solomon.hh"

namespace arcc
{
namespace
{

constexpr std::uint64_t kBaseSeed = 0xa2cc2013u;

/** Per-iteration seed: pure function of the base seed and index. */
std::uint64_t
caseSeed(std::uint64_t iteration)
{
    return Rng::mix64(kBaseSeed ^ (iteration * 0x9e3779b97f4a7c15ULL));
}

// --- GF(2^8) field axioms ----------------------------------------------

TEST(Gf256Property, FieldAxiomsHoldOnRandomTriples)
{
    for (std::uint64_t it = 0; it < 64; ++it) {
        std::uint64_t seed = caseSeed(it);
        SCOPED_TRACE("seed=" + std::to_string(seed));
        Rng rng(seed);
        std::uint8_t a = static_cast<std::uint8_t>(rng.below(256));
        std::uint8_t b = static_cast<std::uint8_t>(rng.below(256));
        std::uint8_t c = static_cast<std::uint8_t>(rng.below(256));

        // Commutativity and associativity.
        EXPECT_EQ(GF256::mul(a, b), GF256::mul(b, a));
        EXPECT_EQ(GF256::mul(GF256::mul(a, b), c),
                  GF256::mul(a, GF256::mul(b, c)));
        // Distributivity over the field addition (XOR).
        EXPECT_EQ(GF256::mul(a, GF256::add(b, c)),
                  GF256::add(GF256::mul(a, b), GF256::mul(a, c)));
        // Identities and the absorbing zero.
        EXPECT_EQ(GF256::mul(a, 1), a);
        EXPECT_EQ(GF256::mul(a, 0), 0);
        EXPECT_EQ(GF256::add(a, a), 0); // characteristic 2.
    }
}

TEST(Gf256Property, EveryNonZeroElementHasAWorkingInverse)
{
    // Small enough to be exhaustive instead of sampled.
    for (int a = 1; a < GF256::kOrder; ++a) {
        std::uint8_t x = static_cast<std::uint8_t>(a);
        EXPECT_EQ(GF256::mul(x, GF256::inv(x)), 1) << "a=" << a;
        EXPECT_EQ(GF256::div(x, x), 1) << "a=" << a;
    }
}

TEST(Gf256Property, DivIsMulByInverseAndRoundTrips)
{
    for (std::uint64_t it = 0; it < 64; ++it) {
        std::uint64_t seed = caseSeed(1000 + it);
        SCOPED_TRACE("seed=" + std::to_string(seed));
        Rng rng(seed);
        std::uint8_t a = static_cast<std::uint8_t>(rng.below(256));
        std::uint8_t b =
            static_cast<std::uint8_t>(rng.range(1, 255)); // non-zero.
        EXPECT_EQ(GF256::div(a, b), GF256::mul(a, GF256::inv(b)));
        EXPECT_EQ(GF256::mul(GF256::div(a, b), b), a);
    }
}

TEST(Gf256Property, PowLogExpAreConsistent)
{
    for (std::uint64_t it = 0; it < 64; ++it) {
        std::uint64_t seed = caseSeed(2000 + it);
        SCOPED_TRACE("seed=" + std::to_string(seed));
        Rng rng(seed);
        std::uint8_t a =
            static_cast<std::uint8_t>(rng.range(1, 255)); // non-zero.
        int e = static_cast<int>(rng.below(1000)) - 500;

        // a = alpha^log(a); pow via logs matches repeated mul.
        EXPECT_EQ(GF256::alphaPow(GF256::log(a)), a);
        std::uint8_t ref = 1;
        int en = ((e % GF256::kGroupOrder) + GF256::kGroupOrder) %
                 GF256::kGroupOrder;
        for (int i = 0; i < en; ++i)
            ref = GF256::mul(ref, a);
        EXPECT_EQ(GF256::pow(a, e), ref) << "e=" << e;
        // The exponent is periodic in the group order.
        EXPECT_EQ(GF256::alphaPow(e),
                  GF256::alphaPow(e + GF256::kGroupOrder));
    }
}

// --- Reed-Solomon round-trip properties --------------------------------

struct RsShape
{
    int n, k;
};

const std::vector<RsShape> kShapes = {
    {18, 16}, // ARCC relaxed.
    {36, 32}, // ARCC upgraded / commercial SCCDCD.
    {72, 64}, // Chapter 5.1 level 2.
};

/** Corrupt `numErrors` distinct positions with non-zero deltas. */
std::vector<int>
injectErrors(Rng &rng, std::vector<std::uint8_t> &word, int numErrors)
{
    std::vector<int> pos;
    while (static_cast<int>(pos.size()) < numErrors) {
        int p = static_cast<int>(rng.below(word.size()));
        if (std::find(pos.begin(), pos.end(), p) == pos.end())
            pos.push_back(p);
    }
    for (int p : pos)
        word[p] ^= static_cast<std::uint8_t>(rng.range(1, 255));
    return pos;
}

/** True when every syndrome of word is zero. */
bool
syndromesZero(const ReedSolomon &rs, std::span<const std::uint8_t> word)
{
    std::uint8_t synd[RsWorkspace::kMaxChecks];
    return !rs.computeSyndromes(word,
                                std::span<std::uint8_t>(synd, rs.r()));
}

TEST(ReedSolomonProperty, RandomCodewordsRoundTripUnderTErrors)
{
    for (const RsShape &shape : kShapes) {
        ReedSolomon rs(shape.n, shape.k);
        RsWorkspace ws;
        const int t = rs.r() / 2;
        for (std::uint64_t it = 0; it < 48; ++it) {
            std::uint64_t seed =
                caseSeed((shape.n << 16) + it);
            SCOPED_TRACE("n=" + std::to_string(shape.n) +
                         " k=" + std::to_string(shape.k) +
                         " seed=" + std::to_string(seed));
            Rng rng(seed);

            std::vector<std::uint8_t> word(shape.n);
            for (int i = 0; i < shape.k; ++i)
                word[i] = static_cast<std::uint8_t>(rng.below(256));
            rs.encode(word);
            std::vector<std::uint8_t> original = word;
            EXPECT_TRUE(syndromesZero(rs, word));

            // Up to t symbol errors must decode back exactly.
            int e = static_cast<int>(rng.range(0, t));
            injectErrors(rng, word, e);

            RsDecodeView res = rs.decode(word, ws);
            EXPECT_TRUE(res.ok());
            EXPECT_EQ(res.symbolsCorrected, e);
            EXPECT_EQ(word, original);
        }
    }
}

TEST(ReedSolomonProperty, ErrorsAndErasuresWithinTwoEPlusFRoundTrip)
{
    for (const RsShape &shape : kShapes) {
        ReedSolomon rs(shape.n, shape.k);
        RsWorkspace ws;
        for (std::uint64_t it = 0; it < 32; ++it) {
            std::uint64_t seed =
                caseSeed(0x50000 + (shape.n << 8) + it);
            SCOPED_TRACE("n=" + std::to_string(shape.n) +
                         " seed=" + std::to_string(seed));
            Rng rng(seed);

            std::vector<std::uint8_t> word(shape.n);
            for (int i = 0; i < shape.k; ++i)
                word[i] = static_cast<std::uint8_t>(rng.below(256));
            rs.encode(word);
            std::vector<std::uint8_t> original = word;

            // Pick e errors + f erasures with 2e + f <= r.
            int f = static_cast<int>(rng.range(0, rs.r()));
            int e = static_cast<int>(rng.range(0, (rs.r() - f) / 2));
            std::vector<int> corrupted =
                injectErrors(rng, word, e + f);
            // The first f corrupted positions are declared erased.
            std::vector<int> erasures(corrupted.begin(),
                                      corrupted.begin() + f);
            std::sort(erasures.begin(), erasures.end());

            RsDecodeView res = rs.decode(word, ws, -1, erasures);
            EXPECT_TRUE(res.ok());
            EXPECT_EQ(word, original);
        }
    }
}

TEST(ReedSolomonProperty, BeyondCapabilityNeverSilentlyCorruptsData)
{
    // t+1 .. r errors: the decoder may flag a DUE or (rarely, by
    // aliasing) miscorrect to *some* codeword -- but a decode that
    // reports success with wrong data and zero corrections would be a
    // silent lie.  Whenever the decoder claims Clean, the word must
    // really be a codeword.
    for (const RsShape &shape : kShapes) {
        ReedSolomon rs(shape.n, shape.k);
        RsWorkspace ws;
        const int t = rs.r() / 2;
        for (std::uint64_t it = 0; it < 32; ++it) {
            std::uint64_t seed =
                caseSeed(0x90000 + (shape.n << 8) + it);
            SCOPED_TRACE("n=" + std::to_string(shape.n) +
                         " seed=" + std::to_string(seed));
            Rng rng(seed);

            std::vector<std::uint8_t> word(shape.n);
            for (int i = 0; i < shape.k; ++i)
                word[i] = static_cast<std::uint8_t>(rng.below(256));
            rs.encode(word);

            int e = static_cast<int>(rng.range(t + 1, rs.r()));
            injectErrors(rng, word, e);

            RsDecodeView res = rs.decode(word, ws);
            if (res.status != DecodeStatus::Detected) {
                EXPECT_TRUE(syndromesZero(rs, word))
                    << "decoder claimed success on a non-codeword";
            }
        }
    }
}

TEST(ReedSolomonProperty, FailingSeedReproducesTheSameOutcome)
{
    // The reproduction contract itself: re-running a case from its
    // logged seed gives the identical decode outcome.
    ReedSolomon rs(18, 16);
    RsWorkspace ws;
    for (std::uint64_t it = 0; it < 8; ++it) {
        std::uint64_t seed = caseSeed(0xd0000 + it);
        SCOPED_TRACE("seed=" + std::to_string(seed));

        auto run = [&](std::uint64_t s) {
            Rng rng(s);
            std::vector<std::uint8_t> word(18);
            for (int i = 0; i < 16; ++i)
                word[i] = static_cast<std::uint8_t>(rng.below(256));
            rs.encode(word);
            injectErrors(rng, word, 3); // beyond capability.
            RsDecodeView res = rs.decode(word, ws, 1);
            return std::make_pair(res.status, word);
        };
        auto first = run(seed);
        auto second = run(seed);
        EXPECT_EQ(first.first, second.first);
        EXPECT_EQ(first.second, second.second);
    }
}

} // namespace
} // namespace arcc
