#include "util/random.hh"

#include <cmath>

#include "util/logging.hh"

namespace predvfs {
namespace util {

namespace {

/** splitmix64: seed expander recommended by the xoshiro authors. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : cachedNormal(0.0), hasCachedNormal(false)
{
    std::uint64_t x = seed;
    for (auto &word : s)
        word = splitmix64(x);
}

std::uint64_t
Rng::nextU64()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> [0, 1).
    return (nextU64() >> 11) * (1.0 / 9007199254740992.0);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    panicIf(lo > hi, "uniformInt: empty range [", lo, ", ", hi, "]");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(nextU64());
    return lo + static_cast<std::int64_t>(nextU64() % span);
}

double
Rng::normal()
{
    if (hasCachedNormal) {
        hasCachedNormal = false;
        return cachedNormal;
    }
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal = r * std::sin(theta);
    hasCachedNormal = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

std::size_t
Rng::categorical(std::initializer_list<double> weights)
{
    panicIf(weights.size() == 0, "categorical: no weights");
    double total = 0.0;
    for (double w : weights) {
        panicIf(w < 0.0, "categorical: negative weight ", w);
        total += w;
    }
    panicIf(total <= 0.0, "categorical: weights sum to zero");
    double x = uniform() * total;
    std::size_t i = 0;
    for (double w : weights) {
        x -= w;
        if (x < 0.0)
            return i;
        ++i;
    }
    return weights.size() - 1;
}

std::int64_t
Rng::burstLength(double continue_prob, std::int64_t max_len)
{
    std::int64_t len = 1;
    while (len < max_len && bernoulli(continue_prob))
        ++len;
    return len;
}

Rng
Rng::split(std::uint64_t salt)
{
    // Mix the salt with fresh output so children are decorrelated from
    // both the parent state and each other.
    std::uint64_t seed = nextU64() ^ (salt * 0x2545f4914f6cdd1dULL);
    return Rng(seed);
}

} // namespace util
} // namespace predvfs
