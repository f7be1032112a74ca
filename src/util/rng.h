/**
 * @file
 * Deterministic random-number generation for Buffalo.
 *
 * All randomness in the library flows through Rng so every experiment is
 * reproducible from a single seed. The engine is xoshiro256**, seeded via
 * SplitMix64 as its authors recommend.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace buffalo::util {

/** xoshiro256** pseudo-random generator with convenience samplers. */
class Rng
{
  public:
    /** Constructs a generator whose full state derives from @p seed. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Returns the next raw 64-bit output. */
    std::uint64_t next();

    /** Returns a uniform integer in [0, bound). @p bound must be > 0. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Returns a uniform integer in [lo, hi]. */
    std::int64_t nextInRange(std::int64_t lo, std::int64_t hi);

    /** Returns a uniform double in [0, 1). */
    double nextDouble();

    /** Returns a standard-normal sample (Box–Muller). */
    double nextGaussian();

    /** Returns true with probability @p p. */
    bool nextBernoulli(double p);

    /**
     * Samples @p count distinct values from [0, population) without
     * replacement. Uses Floyd's algorithm, one draw per value. Counts
     * up to 64 check membership by scanning the picks so far
     * (O(count^2), no allocation beyond the result); larger counts use
     * a bitmap of population bits. When count >= population, returns
     * the whole range shuffled.
     */
    std::vector<std::uint64_t> sampleWithoutReplacement(
        std::uint64_t population, std::uint64_t count);

    /** Fisher–Yates shuffle of @p values. */
    template <typename T>
    void
    shuffle(std::vector<T> &values)
    {
        for (std::size_t i = values.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(nextBounded(i));
            std::swap(values[i - 1], values[j]);
        }
    }

    /** Derives an independent child generator (for per-thread streams). */
    Rng fork();

  private:
    std::uint64_t state_[4];
    bool have_spare_gaussian_ = false;
    double spare_gaussian_ = 0.0;
};

} // namespace buffalo::util
