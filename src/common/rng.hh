/**
 * @file
 * Deterministic pseudo-random number generation for the simulators.
 *
 * All stochastic components of the library (workload generators, fault
 * injection, Monte Carlo engines) draw from an explicitly seeded Rng so
 * every experiment is reproducible from its seed.  The core generator is
 * xoshiro256** which is fast, tiny, and of more than adequate quality
 * for simulation use.
 */

#ifndef ARCC_COMMON_RNG_HH
#define ARCC_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

namespace arcc
{

/**
 * xoshiro256** pseudo-random generator with simulation-oriented helper
 * distributions.  Not cryptographic.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 state expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        reseed(seed);
    }

    /**
     * The splitmix64 finalizer: a cheap bijective mixer whose output
     * is statistically unrelated to its input.  Shared by reseed(),
     * stream(), and the deterministic per-page hashes elsewhere in
     * the library.
     */
    static constexpr std::uint64_t
    mix64(std::uint64_t z)
    {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Re-initialise the state from a new seed. */
    void
    reseed(std::uint64_t seed)
    {
        // splitmix64 to spread the seed across the 256-bit state.
        std::uint64_t x = seed;
        for (int i = 0; i < 4; ++i) {
            x += 0x9e3779b97f4a7c15ULL;
            state_[i] = mix64(x);
        }
        // A zero state would be absorbing; splitmix64 never produces
        // four zero outputs, but guard anyway.
        if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0)
            state_[0] = 1;
    }

    /** @return the next raw 64-bit output. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** @return uniform integer in [0, bound) using Lemire reduction. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        if (bound <= 1)
            return 0;
        // Multiply-shift; bias is < 2^-64 * bound, negligible here.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** @return uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** @return uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** @return true with probability p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** @return exponential variate with the given rate (mean 1/rate). */
    double
    exponential(double rate)
    {
        // 1 - uniform() is in (0, 1]; log of it is finite.
        return -std::log(1.0 - uniform()) / rate;
    }

    /** @return geometric-ish integer >= 1 with mean roughly `mean`. */
    std::uint64_t
    geometric(double mean)
    {
        if (mean <= 1.0)
            return 1;
        return geometricFromLog(geometricLogKeep(mean));
    }

    /** @return log(1 - 1/mean), geometric(mean)'s constant, for a
     *  caller that draws many variates of one mean > 1. */
    static double
    geometricLogKeep(double mean)
    {
        return std::log(1.0 - 1.0 / mean);
    }

    /** @return geometric(mean) given log_keep = geometricLogKeep(mean)
     *  of a mean > 1. */
    std::uint64_t
    geometricFromLog(double log_keep)
    {
        double u = 1.0 - uniform();
        double v = std::log(u) / log_keep;
        std::uint64_t n = static_cast<std::uint64_t>(v) + 1;
        return n == 0 ? 1 : n;
    }

    /** @return a Poisson variate (Knuth for small mean, normal approx). */
    std::uint64_t
    poisson(double mean)
    {
        if (mean <= 0)
            return 0;
        if (mean < 32.0) {
            double limit = std::exp(-mean);
            double prod = uniform();
            std::uint64_t n = 0;
            while (prod > limit) {
                prod *= uniform();
                ++n;
            }
            return n;
        }
        // Normal approximation with continuity correction.
        double g = gaussian();
        double v = mean + std::sqrt(mean) * g + 0.5;
        return v < 0 ? 0 : static_cast<std::uint64_t>(v);
    }

    /** @return standard normal variate (Box-Muller, one of the pair). */
    double
    gaussian()
    {
        double u1 = 1.0 - uniform();
        double u2 = uniform();
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * M_PI * u2);
    }

    /** Fork an independent stream (e.g. one per simulated channel). */
    Rng
    fork()
    {
        return Rng(next() ^ 0xa5a5a5a5deadbeefULL);
    }

    /**
     * Splittable stream constructor: an independent generator for
     * stream `index` of the experiment seeded with `seed`.
     *
     * Unlike fork(), which consumes parent state and therefore makes
     * stream c depend on the c-1 forks before it, stream() is a pure
     * function of (seed, index).  Shards of a Monte Carlo can draw
     * their per-trial generators in any order -- on any number of
     * threads -- and still produce bit-identical histories.
     */
    static Rng
    stream(std::uint64_t seed, std::uint64_t index)
    {
        // Finalise the (seed, index) pair with two rounds of the
        // splitmix64 mixer so neighbouring indices land in unrelated
        // regions of the seed space.
        std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
        return Rng(mix64(mix64(z)));
    }

    /**
     * Jump ahead 2^128 steps (the canonical xoshiro256** jump
     * polynomial): carves the period into 2^128 non-overlapping
     * subsequences, one jump() apart.
     */
    void
    jump()
    {
        static constexpr std::uint64_t kJump[] = {
            0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
            0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
        applyJump(kJump);
    }

    /**
     * Jump ahead 2^192 steps; yields 2^64 starting points 2^128
     * long-jump-free steps apart (sub-streams within a jump block).
     */
    void
    longJump()
    {
        static constexpr std::uint64_t kLongJump[] = {
            0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL,
            0x77710069854ee241ULL, 0x39109bb02acbe635ULL};
        applyJump(kLongJump);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** Polynomial-jump helper shared by jump() and longJump(). */
    void
    applyJump(const std::uint64_t (&poly)[4])
    {
        std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        for (int i = 0; i < 4; ++i) {
            for (int b = 0; b < 64; ++b) {
                if (poly[i] & (1ULL << b)) {
                    s0 ^= state_[0];
                    s1 ^= state_[1];
                    s2 ^= state_[2];
                    s3 ^= state_[3];
                }
                next();
            }
        }
        state_[0] = s0;
        state_[1] = s1;
        state_[2] = s2;
        state_[3] = s3;
    }

    std::uint64_t state_[4];
};

} // namespace arcc

#endif // ARCC_COMMON_RNG_HH
