/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the library (workload generation, model
 * initialisation, noise injection) flows through Rng so that every
 * experiment is exactly reproducible from a seed. The generator is
 * xoshiro256** 1.0 (public domain, Blackman & Vigna), chosen for speed
 * and statistical quality without external dependencies.
 */

#ifndef PREDVFS_UTIL_RANDOM_HH
#define PREDVFS_UTIL_RANDOM_HH

#include <cstdint>
#include <initializer_list>

namespace predvfs {
namespace util {

/**
 * A small, fast, seedable PRNG (xoshiro256**).
 *
 * Instances are cheap to copy; independent streams should be created via
 * split() so that adding draws to one stream does not perturb another.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return the next raw 64-bit value. */
    std::uint64_t nextU64();

    /** @return a uniform double in [0, 1). */
    double uniform();

    /** @return a uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return a uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** @return a standard-normal draw (Box–Muller, cached pair). */
    double normal();

    /** @return a normal draw with the given mean and stddev. */
    double normal(double mean, double stddev);

    /** @return a Bernoulli draw: true with probability p. */
    bool bernoulli(double p);

    /**
     * Sample an index from a discrete distribution.
     *
     * @param weights Non-negative weights; need not be normalised.
     *        A braced list, so a draw allocates nothing.
     * @return index in [0, weights.size()).
     */
    std::size_t categorical(std::initializer_list<double> weights);

    /** @return a geometric-ish burst length in [1, max_len]. */
    std::int64_t burstLength(double continue_prob, std::int64_t max_len);

    /**
     * Derive an independent child stream.
     *
     * @param salt Distinguishes children split from the same parent.
     */
    Rng split(std::uint64_t salt);

  private:
    std::uint64_t s[4];
    double cachedNormal;
    bool hasCachedNormal;
};

} // namespace util
} // namespace predvfs

#endif // PREDVFS_UTIL_RANDOM_HH
