#ifndef OVERGEN_COMMON_RNG_H
#define OVERGEN_COMMON_RNG_H

/**
 * @file
 * Deterministic pseudo-random number generator (xoshiro256**) used by the
 * DSE, the spatial scheduler, and synthetic data generation. All
 * randomized components take an explicit Rng so experiments are exactly
 * reproducible from a seed.
 */

#include <cmath>
#include <cstdint>

#include "common/hash.h"
#include "common/logging.h"

namespace overgen {

/** Deterministic xoshiro256** generator. */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of @p seed. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        uint64_t x = seed;
        for (auto &word : state)
            word = hash::splitmix64(x);
    }

    /** @return the next raw 64-bit value. */
    uint64_t
    next()
    {
        uint64_t result = rotl(state[1] * 5, 7) * 9;
        uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /**
     * @return a uniform integer in [0, bound). @p bound must be > 0.
     * Lemire's multiply-shift with rejection of the biased low
     * slice, so every value is exactly equiprobable (a plain modulo
     * overweights small values whenever 2^64 % bound != 0).
     */
    uint64_t
    nextBelow(uint64_t bound)
    {
        OG_ASSERT(bound > 0, "nextBelow(0)");
        using u128 = unsigned __int128;
        u128 m = static_cast<u128>(next()) * bound;
        auto low = static_cast<uint64_t>(m);
        if (low < bound) {
            uint64_t threshold = -bound % bound;  // 2^64 mod bound
            while (low < threshold) {
                m = static_cast<u128>(next()) * bound;
                low = static_cast<uint64_t>(m);
            }
        }
        return static_cast<uint64_t>(m >> 64);
    }

    /** @return a uniform integer in [lo, hi] inclusive. */
    int64_t
    nextRange(int64_t lo, int64_t hi)
    {
        OG_ASSERT(lo <= hi, "bad range [", lo, ", ", hi, "]");
        return lo + static_cast<int64_t>(
            nextBelow(static_cast<uint64_t>(hi - lo + 1)));
    }

    /** @return a uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1p-53;
    }

    /** @return true with probability @p p. */
    bool
    nextBool(double p = 0.5)
    {
        return nextDouble() < p;
    }

    /** @return a standard normal sample (Box-Muller, one value). */
    double
    nextGaussian()
    {
        double u1 = nextDouble();
        double u2 = nextDouble();
        if (u1 < 1e-300)
            u1 = 1e-300;
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * 3.14159265358979323846 * u2);
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state[4];
};

} // namespace overgen

#endif // OVERGEN_COMMON_RNG_H
