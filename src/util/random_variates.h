/**
 * @file
 * Random variate generators for the distributions Treadmill needs.
 *
 * The paper's open-loop controller draws exponential inter-arrival times
 * (matching Google production measurements); workload configs describe
 * key/value size distributions; Zipfian key popularity models skewed
 * key-value access. Every generator is a small value type wrapping a
 * parameterization; sampling takes the Rng explicitly so ownership of
 * randomness stays with the caller.
 */

#ifndef TREADMILL_UTIL_RANDOM_VARIATES_H_
#define TREADMILL_UTIL_RANDOM_VARIATES_H_

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace treadmill {

/** Exponential distribution with the given rate (events per unit time). */
class Exponential
{
  public:
    explicit Exponential(double rate);

    /** Draw one variate. */
    double sample(Rng &rng) const;

    double rate() const { return lambda; }
    double mean() const { return 1.0 / lambda; }

  private:
    double lambda;
};

/** Continuous uniform distribution on [lo, hi). */
class Uniform
{
  public:
    Uniform(double lo, double hi);

    double sample(Rng &rng) const;

    double low() const { return lo; }
    double high() const { return hi; }

  private:
    double lo;
    double hi;
};

/** Normal distribution (Box-Muller; one cached spare variate). */
class Normal
{
  public:
    Normal(double mean, double stddev);

    double sample(Rng &rng);

    double mean() const { return mu; }
    double stddev() const { return sigma; }

  private:
    double mu;
    double sigma;
    bool hasSpare = false;
    double spare = 0.0;
};

/** Log-normal distribution parameterized by log-space mean/stddev. */
class LogNormal
{
  public:
    LogNormal(double logMean, double logStddev);

    double sample(Rng &rng);

    /** Construct from the desired arithmetic mean and stddev. */
    static LogNormal fromMoments(double mean, double stddev);

  private:
    Normal normal;
};

/**
 * Bounded Pareto distribution on [lo, hi] with shape alpha.
 *
 * Heavy-tailed service demands are the canonical source of latency tails;
 * the bounded form keeps simulated runs finite.
 */
class BoundedPareto
{
  public:
    BoundedPareto(double alpha, double lo, double hi);

    double sample(Rng &rng) const;

    double shape() const { return alpha; }

  private:
    double alpha;
    double lo;
    double hi;
};

/** Bernoulli trial with success probability p. */
class Bernoulli
{
  public:
    explicit Bernoulli(double p);

    bool sample(Rng &rng) const;

    double probability() const { return p; }

  private:
    double p;
};

/**
 * Zipfian distribution over {0, ..., n-1} with skew s.
 *
 * Uses the Gray et al. approximation so sampling is O(1) after O(1)
 * setup, matching YCSB's generator behaviourally. The approximation
 * raises to the power 1/(1-s), so s = 1 exactly (the classical
 * harmonic case) is unsupported and rejected at construction; callers
 * wanting near-harmonic popularity should pass 0.99 or 1.01.
 */
class Zipf
{
  public:
    Zipf(std::uint64_t n, double s);

    std::uint64_t sample(Rng &rng) const;

    std::uint64_t size() const { return n; }

  private:
    std::uint64_t n;
    double zetaN;
    double zeta2;
    double alpha;
    double eta;
    double rankOneBound; ///< 1 + 2^-s: uz below it draws rank 1.
};

/**
 * Discrete distribution over caller-supplied weights.
 *
 * Sampling is O(log n) by binary search over the cumulative weights;
 * used for request-mix selection (e.g., 95% GET / 5% SET).
 */
class Discrete
{
  public:
    explicit Discrete(std::vector<double> weights);

    std::size_t sample(Rng &rng) const;

    std::size_t size() const { return cumulative.size(); }

    /** Probability of outcome i. */
    double probability(std::size_t i) const;

  private:
    std::vector<double> cumulative;
    double total;
};

} // namespace treadmill

#endif // TREADMILL_UTIL_RANDOM_VARIATES_H_
