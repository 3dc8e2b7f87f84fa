#include "regress/ols.h"

#include <cmath>

#include "stats/hypothesis.h"
#include "stats/summary.h"
#include "util/error.h"

namespace treadmill {
namespace regress {

OlsResult
fitOls(const Matrix &x, const Vec &y, double ridge)
{
    if (y.size() != x.rows())
        throw NumericalError("OLS shape mismatch");
    if (x.rows() < x.cols())
        throw NumericalError("OLS needs at least as many rows as cols");

    Matrix gram = x.gram();
    for (std::size_t i = 0; i < gram.rows(); ++i)
        gram.at(i, i) += ridge;
    const Vec xty = x.transposeMultiply(y);

    OlsResult result;
    result.coefficients = solveCholesky(gram, xty);

    const Vec predicted = x.multiply(result.coefficients);
    result.residuals.resize(y.size());
    double rss = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
        result.residuals[i] = y[i] - predicted[i];
        rss += result.residuals[i] * result.residuals[i];
    }
    result.residualSumSquares = rss;

    const double meanY = stats::mean(y);
    double tss = 0.0;
    for (double v : y)
        tss += (v - meanY) * (v - meanY);
    result.totalSumSquares = tss;
    result.rSquared = tss > 0.0 ? 1.0 - rss / tss : 0.0;

    const auto n = static_cast<double>(x.rows());
    const auto p = static_cast<double>(x.cols());
    const double dof = n - p;
    result.sigma2 = dof > 0.0 ? rss / dof : 0.0;

    const Matrix cov = invertSpd(gram);
    result.standardErrors.resize(x.cols());
    result.tStatistics.resize(x.cols());
    result.pValues.resize(x.cols());
    for (std::size_t j = 0; j < x.cols(); ++j) {
        const double se = std::sqrt(
            std::max(0.0, cov.at(j, j) * result.sigma2));
        result.standardErrors[j] = se;
        if (se > 0.0) {
            result.tStatistics[j] = result.coefficients[j] / se;
            result.pValues[j] =
                stats::twoSidedPValue(result.tStatistics[j]);
        } else {
            result.tStatistics[j] =
                result.coefficients[j] == 0.0 ? 0.0 : INFINITY;
            result.pValues[j] =
                result.coefficients[j] == 0.0 ? 1.0 : 0.0;
        }
    }
    return result;
}

Vec
solveWeightedLs(const Matrix &x, const Vec &y, const Vec &weights,
                const Vec &linearTerm, double ridge)
{
    if (y.size() != x.rows() || weights.size() != x.rows())
        throw NumericalError("weighted LS shape mismatch");
    if (linearTerm.size() != x.cols())
        throw NumericalError("weighted LS linear-term shape mismatch");

    // Runs once per MM iteration, so it walks raw rows. Hoisting w * xi
    // keeps every product's (w * xi) * x[r][j] association and every
    // sum's row order, so the result bits do not change.
    const std::size_t p = x.cols();
    Matrix xtwx(p, p);
    Vec xtwy(p, 0.0);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const double w = weights[r];
        if (w == 0.0)
            continue;
        const double *xr = x.rowData(r);
        const double yr = y[r];
        for (std::size_t i = 0; i < p; ++i) {
            const double xi = xr[i];
            if (xi == 0.0)
                continue;
            const double wxi = w * xi;
            xtwy[i] += wxi * yr;
            double *gi = xtwx.rowData(i);
            for (std::size_t j = i; j < p; ++j)
                gi[j] += wxi * xr[j];
        }
    }
    for (std::size_t i = 0; i < p; ++i) {
        xtwx.at(i, i) += ridge;
        for (std::size_t j = 0; j < i; ++j)
            xtwx.at(i, j) = xtwx.at(j, i);
        xtwy[i] += linearTerm[i];
    }
    return solveCholesky(xtwx, xtwy);
}

Vec
sequentialSumOfSquares(const Matrix &x, const Vec &y)
{
    Vec contributions(x.cols(), 0.0);
    double previousRss = 0.0;
    {
        // Null model: intercept-free zero prediction if the first
        // column is not constant; use total sum of squares about 0.
        for (double v : y)
            previousRss += v * v;
    }
    for (std::size_t k = 1; k <= x.cols(); ++k) {
        Matrix sub(x.rows(), k);
        for (std::size_t r = 0; r < x.rows(); ++r)
            for (std::size_t c = 0; c < k; ++c)
                sub.at(r, c) = x.at(r, c);
        const OlsResult fit = fitOls(sub, y, 1e-9);
        contributions[k - 1] = previousRss - fit.residualSumSquares;
        previousRss = fit.residualSumSquares;
    }
    return contributions;
}

} // namespace regress
} // namespace treadmill
