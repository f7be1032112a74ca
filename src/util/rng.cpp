#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/errors.h"

namespace buffalo::util {

namespace {

/** SplitMix64 step, used only to expand the user seed into engine state. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/** Floyd draws up to this size check membership by scanning. */
constexpr std::uint64_t kScanMaxCount = 64;

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : state_)
        word = splitMix64(sm);
}

std::uint64_t
Rng::next()
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

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    checkArgument(bound > 0, "Rng::nextBounded: bound must be positive");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextInRange(std::int64_t lo, std::int64_t hi)
{
    checkArgument(lo <= hi, "Rng::nextInRange: lo must be <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

double
Rng::nextDouble()
{
    // 53 high bits -> uniform double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::nextGaussian()
{
    if (have_spare_gaussian_) {
        have_spare_gaussian_ = false;
        return spare_gaussian_;
    }
    double u1 = 0.0;
    do {
        u1 = nextDouble();
    } while (u1 <= 1e-300);
    const double u2 = nextDouble();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double two_pi = 6.283185307179586;
    spare_gaussian_ = mag * std::sin(two_pi * u2);
    have_spare_gaussian_ = true;
    return mag * std::cos(two_pi * u2);
}

bool
Rng::nextBernoulli(double p)
{
    return nextDouble() < p;
}

std::vector<std::uint64_t>
Rng::sampleWithoutReplacement(std::uint64_t population, std::uint64_t count)
{
    if (count >= population) {
        std::vector<std::uint64_t> all(population);
        for (std::uint64_t i = 0; i < population; ++i)
            all[i] = i;
        shuffle(all);
        return all;
    }
    // Floyd's algorithm: for j in [population - count, population), pick a
    // uniform t in [0, j]; insert t unless taken, else insert j. The
    // taken set is exactly the result so far: short draws (neighbor
    // fanouts) scan it, longer ones mark a bitmap over the population.
    std::vector<std::uint64_t> result;
    result.reserve(count);
    std::vector<bool> taken_bits;
    const bool scan = count <= kScanMaxCount;
    if (!scan)
        taken_bits.resize(population, false);
    auto taken = [&](std::uint64_t v) {
        return scan ? std::find(result.begin(), result.end(), v) !=
                          result.end()
                    : static_cast<bool>(taken_bits[v]);
    };
    for (std::uint64_t j = population - count; j < population; ++j) {
        const std::uint64_t t = nextBounded(j + 1);
        const std::uint64_t pick = taken(t) ? j : t;
        if (!scan)
            taken_bits[pick] = true;
        result.push_back(pick);
    }
    return result;
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xD1B54A32D192ED03ULL);
}

} // namespace buffalo::util
