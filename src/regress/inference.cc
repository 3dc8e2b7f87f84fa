#include "regress/inference.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "stats/hypothesis.h"
#include "stats/summary.h"
#include "util/error.h"

namespace treadmill {
namespace regress {

std::vector<std::vector<std::size_t>>
drawResamples(std::size_t n, std::size_t replicates, Rng &rng)
{
    if (replicates < 2)
        throw ConfigError("bootstrap needs at least 2 replicates");
    std::vector<std::vector<std::size_t>> resamples(
        replicates, std::vector<std::size_t>(n));
    for (auto &indices : resamples) {
        for (auto &idx : indices)
            idx = static_cast<std::size_t>(rng.nextBelow(n));
    }
    return resamples;
}

Vec
fitResample(const Matrix &x, const Vec &y,
            const std::vector<std::size_t> &indices, double tau,
            const QuantRegOptions &options)
{
    Vec yb(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        yb[i] = y[indices[i]];
    try {
        return fitQuantile(x.selectRows(indices), yb, tau, options)
            .coefficients;
    } catch (const NumericalError &) {
        return {};
    }
}

QuantRegInference
summarizeBootstrap(QuantRegResult fit,
                   const std::vector<Vec> &replicateCoefficients,
                   double confidence)
{
    const std::size_t p = fit.coefficients.size();
    std::vector<Vec> perTerm(p);
    for (const Vec &coefficients : replicateCoefficients) {
        if (coefficients.empty())
            continue;
        for (std::size_t j = 0; j < p; ++j)
            perTerm[j].push_back(coefficients[j]);
    }
    if (p == 0 || perTerm[0].size() < 2)
        throw NumericalError(
            "bootstrap produced too few successful refits");

    QuantRegInference result;
    result.fit = std::move(fit);
    result.bootstrapReplicates = perTerm[0].size();

    const double alpha = 1.0 - confidence;
    result.coefficients.resize(p);
    for (std::size_t j = 0; j < p; ++j) {
        CoefficientInference &ci = result.coefficients[j];
        ci.estimate = result.fit.coefficients[j];
        ci.standardError = stats::stddev(perTerm[j]);
        std::sort(perTerm[j].begin(), perTerm[j].end());
        ci.ciLow = stats::quantileSorted(perTerm[j], alpha / 2);
        ci.ciHigh = stats::quantileSorted(perTerm[j], 1.0 - alpha / 2);
        if (ci.standardError > 0.0) {
            ci.pValue = stats::twoSidedPValue(ci.estimate /
                                              ci.standardError);
        } else {
            ci.pValue = ci.estimate == 0.0 ? 1.0 : 0.0;
        }
    }
    return result;
}

QuantRegInference
bootstrapQuantReg(const Matrix &x, const Vec &y, double tau,
                  std::size_t replicates, Rng &rng, double confidence,
                  const QuantRegOptions &options)
{
    const auto resamples = drawResamples(x.rows(), replicates, rng);
    QuantRegResult fit = fitQuantile(x, y, tau, options);
    std::vector<Vec> replicateCoefficients;
    replicateCoefficients.reserve(resamples.size());
    for (const auto &indices : resamples)
        replicateCoefficients.push_back(
            fitResample(x, y, indices, tau, options));
    return summarizeBootstrap(std::move(fit), replicateCoefficients,
                              confidence);
}

} // namespace regress
} // namespace treadmill
