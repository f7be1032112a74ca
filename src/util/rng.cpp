#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/errors.h"

namespace buffalo::util {

namespace {

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // SplitMix64 expands the seed into engine state.
    CounterStream expand(seed);
    for (auto &word : state_)
        word = expand.next();
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
    std::vector<std::uint64_t> result(count);
    floydSample(population, count, result.data(),
                [this](std::uint64_t bound) { return nextBounded(bound); });
    return result;
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xD1B54A32D192ED03ULL);
}

} // namespace buffalo::util
