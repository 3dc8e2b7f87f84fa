#include "util/random_variates.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "util/error.h"
#include "util/logging.h"

namespace treadmill {

Exponential::Exponential(double rate) : lambda(rate)
{
    if (!(rate > 0.0))
        throw ConfigError("Exponential rate must be positive");
}

double
Exponential::sample(Rng &rng) const
{
    return -std::log(rng.nextDoublePositive()) / lambda;
}

Uniform::Uniform(double lo_, double hi_) : lo(lo_), hi(hi_)
{
    if (!(hi_ >= lo_))
        throw ConfigError("Uniform requires hi >= lo");
}

double
Uniform::sample(Rng &rng) const
{
    return lo + (hi - lo) * rng.nextDouble();
}

Normal::Normal(double mean, double stddev) : mu(mean), sigma(stddev)
{
    if (!(stddev >= 0.0))
        throw ConfigError("Normal stddev must be non-negative");
}

double
Normal::sample(Rng &rng)
{
    if (hasSpare) {
        hasSpare = false;
        return mu + sigma * spare;
    }
    // Box-Muller transform.
    const double u1 = rng.nextDoublePositive();
    const double u2 = rng.nextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spare = r * std::sin(theta);
    hasSpare = true;
    return mu + sigma * r * std::cos(theta);
}

LogNormal::LogNormal(double logMean, double logStddev)
    : normal(logMean, logStddev)
{
}

double
LogNormal::sample(Rng &rng)
{
    return std::exp(normal.sample(rng));
}

LogNormal
LogNormal::fromMoments(double mean, double stddev)
{
    if (!(mean > 0.0))
        throw ConfigError("LogNormal mean must be positive");
    const double cv2 = (stddev / mean) * (stddev / mean);
    const double logVar = std::log1p(cv2);
    const double logMean = std::log(mean) - 0.5 * logVar;
    return LogNormal(logMean, std::sqrt(logVar));
}

BoundedPareto::BoundedPareto(double alpha_, double lo_, double hi_)
    : alpha(alpha_), lo(lo_), hi(hi_)
{
    if (!(alpha_ > 0.0))
        throw ConfigError("BoundedPareto shape must be positive");
    if (!(hi_ > lo_) || !(lo_ > 0.0))
        throw ConfigError("BoundedPareto requires 0 < lo < hi");
}

double
BoundedPareto::sample(Rng &rng) const
{
    // Inverse-CDF sampling for the bounded Pareto.
    const double u = rng.nextDouble();
    const double la = std::pow(lo, alpha);
    const double ha = std::pow(hi, alpha);
    const double x = -(u * ha - u * la - ha) / (ha * la);
    return std::pow(1.0 / x, 1.0 / alpha);
}

Bernoulli::Bernoulli(double p_) : p(p_)
{
    if (p_ < 0.0 || p_ > 1.0)
        throw ConfigError("Bernoulli probability must lie in [0, 1]");
}

bool
Bernoulli::sample(Rng &rng) const
{
    return rng.nextDouble() < p;
}

namespace {

/**
 * The generalized harmonic number H_{n,s}, memoized across Zipf
 * constructions: the O(n) pow-per-term sum dominates generator setup
 * when every load-tester instance builds the same popularity model.
 * The summation order is fixed, so the cached value is bit-identical
 * to a fresh computation; the mutex only guards construction (the
 * parallel runner builds workloads on worker threads), never sampling.
 */
double
zeta(std::uint64_t n, double s)
{
    static std::mutex mu;
    static std::map<std::pair<std::uint64_t, double>, double> cache;
    {
        const std::lock_guard<std::mutex> lock(mu);
        const auto it = cache.find({n, s});
        if (it != cache.end())
            return it->second;
    }
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), s);
    const std::lock_guard<std::mutex> lock(mu);
    cache.emplace(std::make_pair(n, s), sum);
    return sum;
}

} // namespace

Zipf::Zipf(std::uint64_t n_, double s_) : n(n_)
{
    if (n_ == 0)
        throw ConfigError(
            "Zipf requires a non-empty support (n >= 1)");
    if (!(s_ > 0.0) || s_ == 1.0)
        throw ConfigError(
            "Zipf skew must be positive and != 1: the Gray et al. "
            "approximation's exponent 1/(1-s) is singular at s = 1");
    zetaN = zeta(n_, s_);
    zeta2 = zeta(std::min<std::uint64_t>(2, n_), s_);
    alpha = 1.0 / (1.0 - s_);
    rankOneBound = 1.0 + std::pow(0.5, s_);
    eta = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - s_)) /
          (1.0 - zeta2 / zetaN);
}

std::uint64_t
Zipf::sample(Rng &rng) const
{
    // Gray et al., "Quickly generating billion-record synthetic databases".
    const double u = rng.nextDouble();
    const double uz = u * zetaN;
    if (uz < 1.0)
        return 0;
    if (uz < rankOneBound)
        return 1;
    const auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha));
    return std::min(rank, n - 1);
}

Discrete::Discrete(std::vector<double> weights) : total(0.0)
{
    if (weights.empty())
        throw ConfigError("Discrete requires at least one weight");
    cumulative.reserve(weights.size());
    for (double w : weights) {
        if (w < 0.0)
            throw ConfigError("Discrete weights must be non-negative");
        total += w;
        cumulative.push_back(total);
    }
    if (!(total > 0.0))
        throw ConfigError("Discrete weights must not all be zero");
}

std::size_t
Discrete::sample(Rng &rng) const
{
    const double u = rng.nextDouble() * total;
    const auto it =
        std::upper_bound(cumulative.begin(), cumulative.end(), u);
    const auto idx = static_cast<std::size_t>(it - cumulative.begin());
    return std::min(idx, cumulative.size() - 1);
}

double
Discrete::probability(std::size_t i) const
{
    TM_ASSERT(i < cumulative.size(), "Discrete outcome out of range");
    const double prev = i == 0 ? 0.0 : cumulative[i - 1];
    return (cumulative[i] - prev) / total;
}

} // namespace treadmill
