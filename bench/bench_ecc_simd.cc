/**
 * @file
 * SIMD GF(2^8) kernel and SoA batch-decode bench.
 *
 * Rows come in two groups, all under the `ecc_simd` bench family:
 *
 *  - kernel rows (`mul_const`, `syndrome_soa`): run twice in one
 *    process, once pinned to the scalar tier (`"leg":"scalar"`) and
 *    once on the build's active tier via the `*At` dispatch entry
 *    points (`"leg":"active"`);
 *  - batch rows (`decode_soa_clean`, `decode_soa_2err`): the full
 *    ReedSolomon::decodeSoa pipeline on the active tier (whatever
 *    simd::activeTier() resolves to; ARCC_SIMD=off forces scalar).
 *
 * Every row carries a `check` decode-output hash that is a pure
 * function of the fixed seeds and iteration count.  The scalar and
 * SIMD tiers are required to be bit-identical, so the stdout of an
 * ARCC_SIMD=off run must equal a default run byte for byte: any
 * divergence is a vector-kernel correctness bug.  The tier names and
 * the per-tier MSym/s and ns/word go to stderr.
 *
 * ARCC_BENCH_ECC_ITERS overrides the per-path iteration budget.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "ecc/gf256_simd.hh"
#include "ecc/reed_solomon.hh"
#include "ecc/rs_workspace.hh"
#include "ecc/simd.hh"

using namespace arcc;
using namespace arcc::bench;

namespace
{

std::uint64_t
iterBudget()
{
    return std::max<std::uint64_t>(
        1, envU64("ARCC_BENCH_ECC_ITERS", 100000));
}

/** Decode-output accumulator: order-sensitive, timing-independent. */
struct Check
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    mix(std::uint64_t v)
    {
        h = (h ^ v) * 0x100000001b3ULL;
    }
};

/** The tier a row's leg runs on: "scalar" is pinned to the scalar
 *  tier, "active" is whatever simd::activeTier() resolves to. */
simd::Tier
legTier(std::string_view leg)
{
    return leg == "scalar" ? simd::Tier::Scalar : simd::activeTier();
}

/**
 * Run `body(iters)`: the check hash goes to stdout as a JSON row, the
 * tier and the timing to stderr as a human line.  The row names its
 * leg, not the tier the leg resolved to, so stdout is the same on
 * every host.
 */
template <class Body>
void
report(const char *codec, const char *leg, const char *path, int lanes,
       std::uint64_t iters, std::uint64_t symbols_per_iter, Body &&body)
{
    Check check;
    const auto start = std::chrono::steady_clock::now();
    body(iters, check);
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    const double ns_word =
        ns / static_cast<double>(iters) /
        std::max(1, lanes); // per codeword, not per batch pass.
    const double msym_s = static_cast<double>(symbols_per_iter) *
                          static_cast<double>(iters) / ns * 1e3;

    std::fprintf(stderr,
                 "  %-9s %-6s %-16s lanes=%-3d %10.1f MSym/s"
                 "  %8.2f ns/word\n",
                 codec, simd::tierName(legTier(leg)), path, lanes,
                 msym_s, ns_word);
    jsonRow("ecc_simd",
            {
                {"codec", std::string("\"") + codec + "\""},
                {"leg", std::string("\"") + leg + "\""},
                {"path", std::string("\"") + path + "\""},
                {"lanes", jsonNum(static_cast<std::uint64_t>(lanes))},
                {"iters", jsonNum(iters)},
                {"check", jsonNum(check.h)},
            });
}

/** Raw constant-multiply kernel, both tiers over one buffer. */
void
benchMulConst()
{
    constexpr std::size_t kBytes = 4096;
    Rng rng(46);
    std::vector<std::uint8_t> in(kBytes), out(kBytes);
    for (auto &b : in)
        b = static_cast<std::uint8_t>(rng.below(256));
    const std::uint64_t iters =
        std::max<std::uint64_t>(1, iterBudget() / 8);

    for (const char *leg : {"scalar", "active"}) {
        const simd::Tier tier = legTier(leg);
        report("gf256", leg, "mul_const", 0, iters, kBytes,
               [&](std::uint64_t it, Check &c) {
                   for (std::uint64_t i = 0; i < it; ++i) {
                       gfsimd::mulConstAt(
                           tier,
                           static_cast<std::uint8_t>(1 + (i & 0xfe)),
                           in.data(), out.data(), kBytes);
                       c.mix(out[i % kBytes]);
                   }
               });
    }
}

/** One codec's SoA sweep: syndrome kernel on both tiers, then the
 *  full batched decode on the active tier. */
void
benchCodec(const char *name, int n, int k)
{
    const ReedSolomon rs(n, k);
    RsWorkspace ws;
    const int rr = rs.r();
    constexpr int kLanes = RsWorkspace::kSoaLanes;
    const std::uint64_t iters =
        std::max<std::uint64_t>(1, iterBudget() / kLanes);
    const std::uint64_t sym_per_iter =
        static_cast<std::uint64_t>(n) * kLanes;

    // A block of clean codewords, staged once; corrupting rows are
    // decoded back to this exact state, so no re-staging per pass.
    Rng rng(47);
    std::vector<std::uint8_t> words(
        static_cast<std::size_t>(kLanes) * n);
    for (int l = 0; l < kLanes; ++l) {
        std::uint8_t *w =
            words.data() + static_cast<std::size_t>(l) * n;
        for (int i = 0; i < k; ++i)
            w[i] = static_cast<std::uint8_t>(rng.below(256));
        rs.encode(std::span<std::uint8_t>(
            w, static_cast<std::size_t>(n)));
    }
    gfsimd::soaScatter(words.data(), n, n, kLanes, ws.soa.data(),
                       kLanes);

    std::vector<std::uint8_t> roots(rr);
    for (int j = 0; j < rr; ++j)
        roots[j] = GF256::alphaPow(j);

    // --- SoA syndrome screen, both tiers -----------------------------
    for (const char *leg : {"scalar", "active"}) {
        const simd::Tier tier = legTier(leg);
        report(name, leg, "syndrome_soa", kLanes, iters, sym_per_iter,
               [&](std::uint64_t it, Check &c) {
                   for (std::uint64_t i = 0; i < it; ++i) {
                       gfsimd::syndromeSoaAt(
                           tier, ws.soa.data(), kLanes, n, kLanes,
                           roots.data(), rr, ws.syndSoa.data(),
                           ws.soaFlags.data());
                       c.mix(ws.soaFlags[i % kLanes]);
                   }
               });
    }

    // --- full batched decode, active tier ----------------------------
    RsLaneResult results[kLanes];

    report(name, "active", "decode_soa_clean", kLanes, iters, sym_per_iter,
           [&](std::uint64_t it, Check &c) {
               for (std::uint64_t i = 0; i < it; ++i) {
                   rs.decodeSoa(ws.soa.data(), kLanes, kLanes, ws, -1,
                                {}, results);
                   c.mix(static_cast<std::uint64_t>(
                       results[i % kLanes].status));
               }
           });

    const std::uint64_t err_iters =
        std::max<std::uint64_t>(1, iters / 4);
    report(name, "active", "decode_soa_2err", kLanes, err_iters,
           sym_per_iter, [&](std::uint64_t it, Check &c) {
               for (std::uint64_t i = 0; i < it; ++i) {
                   // Two lanes take hits; the decode restores them,
                   // so the block re-enters clean every pass.
                   ws.soa[static_cast<std::size_t>(5) * kLanes + 3] ^=
                       0x7b;
                   ws.soa[static_cast<std::size_t>(n - 1) * kLanes +
                          20] ^= 0x11;
                   rs.decodeSoa(ws.soa.data(), kLanes, kLanes, ws, -1,
                                {}, results);
                   c.mix(static_cast<std::uint64_t>(
                       results[3].status));
                   c.mix(static_cast<std::uint64_t>(
                       results[20].symbolsCorrected));
               }
           });
}

} // anonymous namespace

int
main()
{
    std::printf("SIMD GF(2^8) kernels: scalar vs active tier "
                "(tier names and timings on stderr)\n");
    std::fprintf(stderr, "detected tier: %s, active tier: %s\n",
                 simd::tierName(simd::detectTier()),
                 simd::tierName(simd::activeTier()));
    benchMulConst();
    benchCodec("rs18_16", 18, 16);
    benchCodec("rs36_32", 36, 32);
    benchCodec("rs72_64", 72, 64);
    return 0;
}
