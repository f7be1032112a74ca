/**
 * @file
 * Deterministic random-number generation for Buffalo.
 *
 * All randomness in the library flows through Rng so every experiment is
 * reproducible from a single seed. The engine is xoshiro256**, seeded via
 * SplitMix64 as its authors recommend. CounterStream is the keyed,
 * random-access companion: work split across threads draws from
 * streams keyed by what it is (say a batch, a layer and a node), so
 * its draws do not depend on which thread runs it or in what order.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace buffalo::util {

/**
 * Floyd's algorithm: writes @p count distinct values of
 * [0, population) to @p out in pick order, one draw(bound) call (a
 * uniform value in [0, bound)) per value. For j in
 * [population - count, population) it draws t in [0, j] and takes t
 * unless taken, else j. Counts up to 64 check membership by scanning
 * the picks so far (no allocation); larger counts mark a bitmap of
 * population bits. @p count must not exceed @p population.
 */
template <typename T, typename Draw>
void
floydSample(std::uint64_t population, std::uint64_t count, T *out,
            Draw &&draw)
{
    const bool scan = count <= 64;
    std::vector<bool> taken_bits(scan ? 0 : population, false);
    for (std::uint64_t n = 0; n < count; ++n) {
        const std::uint64_t j = population - count + n;
        const auto t = static_cast<T>(draw(j + 1));
        const bool taken = scan ? std::find(out, out + n, t) != out + n
                                : static_cast<bool>(taken_bits[t]);
        out[n] = taken ? static_cast<T>(j) : t;
        if (!scan)
            taken_bits[out[n]] = true;
    }
}

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
     * replacement by floydSample(), one nextBounded() per value. When
     * count >= population, returns the whole range shuffled.
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

/**
 * SplitMix64 over a counter: draw n of the stream keyed K is
 * mix(K + n * gamma), with SplitMix64's gamma and output mix. Cheap to
 * create (one word of state), so one stream per unit of work costs
 * nothing; streamKey() derives the keys of sub-streams.
 */
class CounterStream
{
  public:
    explicit CounterStream(std::uint64_t key) : state_(key) {}

    /** Returns the next raw 64-bit output. */
    std::uint64_t
    next()
    {
        state_ += kGamma;
        return mix(state_);
    }

    /**
     * Returns a uniform integer in [0, bound); @p bound must be > 0.
     * Lemire's multiply-shift: the high word of draw x bound, redrawn
     * only when the low word falls below 2^64 mod bound, so the common
     * path does no division.
     */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        auto low = static_cast<std::uint64_t>(m);
        if (low < bound) {
            const std::uint64_t threshold = -bound % bound;
            while (low < threshold) {
                m = static_cast<unsigned __int128>(next()) * bound;
                low = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Key of sub-stream @p index of the stream keyed @p key: that
     *  stream's draw index + 1. */
    static std::uint64_t
    streamKey(std::uint64_t key, std::uint64_t index)
    {
        return mix(key + (index + 1) * kGamma);
    }

  private:
    static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

    static std::uint64_t
    mix(std::uint64_t z)
    {
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    std::uint64_t state_;
};

} // namespace buffalo::util
