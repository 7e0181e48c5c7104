/**
 * @file
 * Property fuzzing for the codeword-transposed (SoA) batch pipeline
 * (ctest label `property`).
 *
 * Two contracts, fuzzed with seed-logged cases in the style of
 * test_property_rs_oracle.cc:
 *
 *  - the AoS <-> SoA transposes (gfsimd::soaScatter / soaGather) are
 *    exact inverses for arbitrary shapes, lane counts and strides;
 *  - ReedSolomon::decodeSoa is bit-identical *per lane* to the
 *    retained RsReference oracle across error + erasure mixes from
 *    clean through far beyond capability, on whichever dispatch tier
 *    the build selects.  The CI matrix re-runs this binary with
 *    -DARCC_SIMD=OFF (and with ARCC_SIMD=off in the environment), so
 *    the same cases pin the scalar and the vector path against the
 *    same oracle.
 *
 * Every case logs its seed with SCOPED_TRACE, so a failure reproduces
 * from the message alone.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "ecc/gf256_simd.hh"
#include "ecc/reed_solomon.hh"
#include "ecc/rs_reference.hh"
#include "ecc/simd.hh"

namespace arcc
{
namespace
{

constexpr std::uint64_t kBaseSeed = 0x50aba7c4u;

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

/** Distinct random positions, optionally excluding a sorted set. */
std::vector<int>
distinctPositions(Rng &rng, int n, int count,
                  const std::vector<int> &exclude = {})
{
    std::vector<int> pos;
    while (static_cast<int>(pos.size()) < count) {
        int p = static_cast<int>(rng.below(n));
        if (std::find(pos.begin(), pos.end(), p) != pos.end())
            continue;
        if (std::binary_search(exclude.begin(), exclude.end(), p))
            continue;
        pos.push_back(p);
    }
    return pos;
}

TEST(SoaBatchProperty, ScatterGatherRoundTripsBitExactly)
{
    // Arbitrary symbol counts, lane counts and strides (stride is the
    // caller's choice as long as it holds the lanes): scatter then
    // gather must reproduce the words byte for byte, and scatter must
    // not write outside the [0, lanes) columns of its rows.
    for (std::uint64_t it = 0; it < 2000; ++it) {
        const std::uint64_t seed = caseSeed(0x900000000ULL + it);
        SCOPED_TRACE("seed=" + std::to_string(seed));
        Rng rng(seed);

        const int symbols = static_cast<int>(rng.range(1, 80));
        const int lanes = static_cast<int>(
            rng.range(1, RsWorkspace::kSoaLanes));
        const std::size_t word_stride =
            static_cast<std::size_t>(symbols) + rng.below(5);
        const std::size_t soa_stride =
            static_cast<std::size_t>(lanes) + rng.below(9);

        std::vector<std::uint8_t> words(
            static_cast<std::size_t>(lanes) * word_stride);
        for (auto &b : words)
            b = static_cast<std::uint8_t>(rng.below(256));

        std::vector<std::uint8_t> soa(
            static_cast<std::size_t>(symbols) * soa_stride, 0xee);
        gfsimd::soaScatter(words.data(), word_stride, symbols, lanes,
                           soa.data(), soa_stride);

        // Transposed identity plus padding-column integrity.
        for (int s = 0; s < symbols; ++s) {
            for (std::size_t l = 0; l < soa_stride; ++l) {
                const std::uint8_t got =
                    soa[static_cast<std::size_t>(s) * soa_stride + l];
                if (l < static_cast<std::size_t>(lanes))
                    ASSERT_EQ(got, words[l * word_stride + s])
                        << "s=" << s << " l=" << l;
                else
                    ASSERT_EQ(got, 0xee)
                        << "scatter wrote past lane " << lanes;
            }
        }

        std::vector<std::uint8_t> back(words.size(), 0);
        gfsimd::soaGather(soa.data(), soa_stride, symbols, lanes,
                          back.data(), word_stride);
        for (int l = 0; l < lanes; ++l)
            for (int s = 0; s < symbols; ++s)
                ASSERT_EQ(back[l * word_stride + s],
                          words[l * word_stride + s]);
    }
}

TEST(SoaBatchProperty, BatchedDecodeMatchesReferencePerLane)
{
    // decodeSoa against the RsReference oracle, lane for lane: random
    // lane counts (including partial blocks), shared erasure sets,
    // per-lane error weights sweeping clean -> beyond capability, all
    // maxCorrect modes the schemes use.  Padding lanes are filled
    // with garbage to prove the kernel ignores them.
    constexpr int kStride = RsWorkspace::kSoaLanes;
    for (const RsShape &shape : kShapes) {
        ReedSolomon fast(shape.n, shape.k);
        RsReference ref(shape.n, shape.k);
        RsWorkspace ws;
        const int rr = fast.r();

        for (std::uint64_t it = 0; it < 400; ++it) {
            const std::uint64_t seed =
                caseSeed((static_cast<std::uint64_t>(shape.n) << 32) +
                         it);
            SCOPED_TRACE("n=" + std::to_string(shape.n) +
                         " seed=" + std::to_string(seed));
            Rng rng(seed);

            const int lanes = static_cast<int>(
                rng.range(1, RsWorkspace::kSoaLanes));

            // Shared erasure set (decodeSoa applies one erasure list
            // to every lane, as the ARCC group decode does for a dead
            // device cutting across all of a group's codewords).
            const int f = static_cast<int>(rng.below(rr / 2 + 2));
            std::vector<int> erasures =
                distinctPositions(rng, shape.n, f);
            std::sort(erasures.begin(), erasures.end());

            // -1 = full capability, plus the per-scheme caps.
            const int max_correct =
                static_cast<int>(rng.below(4)) - 1;

            // Build, corrupt and stage the lane words.
            std::vector<std::vector<std::uint8_t>> received(lanes);
            for (auto &b : ws.soa)
                b = static_cast<std::uint8_t>(rng.below(256));
            for (int l = 0; l < lanes; ++l) {
                std::vector<std::uint8_t> word(shape.n);
                for (int i = 0; i < shape.k; ++i)
                    word[i] =
                        static_cast<std::uint8_t>(rng.below(256));
                fast.encode(word);

                for (int p : erasures)
                    word[p] =
                        static_cast<std::uint8_t>(rng.below(256));
                const int e = static_cast<int>(rng.below(rr + 2 - f));
                for (int p :
                     distinctPositions(rng, shape.n, e, erasures))
                    word[p] ^=
                        static_cast<std::uint8_t>(rng.range(1, 255));

                received[l] = word;
                for (int s = 0; s < shape.n; ++s)
                    ws.soa[static_cast<std::size_t>(s) * kStride + l] =
                        word[s];
            }

            RsLaneResult results[RsWorkspace::kSoaLanes];
            fast.decodeSoa(ws.soa.data(), kStride, lanes, ws,
                           max_correct, erasures, results);

            bool any_dirty = false;
            for (int l = 0; l < lanes; ++l) {
                std::vector<std::uint8_t> word_ref = received[l];
                const DecodeResult r =
                    ref.decode(word_ref, max_correct, erasures);
                any_dirty = any_dirty || !ref.syndromesZero(word_ref);

                std::vector<std::uint8_t> lane(shape.n);
                for (int s = 0; s < shape.n; ++s)
                    lane[s] = ws.soa[static_cast<std::size_t>(s) *
                                         kStride +
                                     l];

                if (results[l].status != r.status ||
                    lane != word_ref ||
                    results[l].symbolsCorrected !=
                        r.symbolsCorrected) {
                    FAIL() << "soa/reference divergence: lane=" << l
                           << "/" << lanes << " f=" << f
                           << " maxCorrect=" << max_correct
                           << " tier="
                           << simd::tierName(simd::activeTier())
                           << " seed=" << seed;
                }
            }

            // The block screen on the decoded block: dirty iff some
            // lane (a Detected rollback) fails the reference's
            // zero-syndrome test.
            ASSERT_EQ(fast.computeSyndromesSoa(ws.soa.data(), kStride,
                                               lanes, ws.syndSoa.data(),
                                               ws.soaFlags.data()),
                      any_dirty);
        }
    }
}

TEST(SoaBatchProperty, BatchedDecodeMatchesSingleWordDecode)
{
    // The staging contract the ARCC/VECC call sites rely on: pushing
    // a word through decodeSoa in some lane produces exactly the
    // status / word / count decode() produces on its own workspace --
    // including Detected rollbacks, which must restore the received
    // lane bytes bit for bit.
    constexpr int kStride = RsWorkspace::kSoaLanes;
    for (const RsShape &shape : kShapes) {
        ReedSolomon rs(shape.n, shape.k);
        RsWorkspace ws_soa, ws_one;
        const int rr = rs.r();

        for (std::uint64_t it = 0; it < 600; ++it) {
            const std::uint64_t seed =
                caseSeed(0xb00000000ULL +
                         (static_cast<std::uint64_t>(shape.n) << 24) +
                         it);
            SCOPED_TRACE("n=" + std::to_string(shape.n) +
                         " seed=" + std::to_string(seed));
            Rng rng(seed);

            std::vector<std::uint8_t> word(shape.n);
            for (int i = 0; i < shape.k; ++i)
                word[i] = static_cast<std::uint8_t>(rng.below(256));
            rs.encode(word);
            const int e = static_cast<int>(rng.below(rr + 2));
            for (int p : distinctPositions(rng, shape.n, e))
                word[p] ^=
                    static_cast<std::uint8_t>(rng.range(1, 255));

            const int lanes = static_cast<int>(
                rng.range(1, RsWorkspace::kSoaLanes));
            const int lane = static_cast<int>(rng.below(lanes));
            for (auto &b : ws_soa.soa)
                b = static_cast<std::uint8_t>(rng.below(256));
            // The other lanes carry unrelated clean words.
            std::vector<std::uint8_t> other(shape.n, 0);
            rs.encode(other);
            for (int l = 0; l < lanes; ++l)
                for (int s = 0; s < shape.n; ++s)
                    ws_soa.soa[static_cast<std::size_t>(s) * kStride +
                               l] = (l == lane ? word[s] : other[s]);

            RsLaneResult results[RsWorkspace::kSoaLanes];
            rs.decodeSoa(ws_soa.soa.data(), kStride, lanes, ws_soa,
                         -1, {}, results);

            std::vector<std::uint8_t> word_one = word;
            const RsDecodeView v = rs.decode(word_one, ws_one);

            EXPECT_EQ(results[lane].status, v.status);
            EXPECT_EQ(results[lane].symbolsCorrected,
                      v.symbolsCorrected);
            for (int s = 0; s < shape.n; ++s)
                ASSERT_EQ(ws_soa.soa[static_cast<std::size_t>(s) *
                                         kStride +
                                     lane],
                          word_one[s])
                    << "lane bytes diverged at symbol " << s;
            for (int l = 0; l < lanes; ++l) {
                if (l == lane)
                    continue;
                EXPECT_EQ(results[l].status, DecodeStatus::Clean);
                for (int s = 0; s < shape.n; ++s)
                    ASSERT_EQ(ws_soa.soa[static_cast<std::size_t>(s) *
                                             kStride +
                                         l],
                              other[s])
                        << "clean lane " << l << " disturbed";
            }
        }
    }
}

} // namespace
} // namespace arcc
