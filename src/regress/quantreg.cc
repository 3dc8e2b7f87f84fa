#include "regress/quantreg.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "regress/ols.h"
#include "util/error.h"
#include "util/logging.h"

namespace treadmill {
namespace regress {

double
pinballLoss(double tau, double err)
{
    return err >= 0.0 ? tau * err : (tau - 1.0) * err;
}

namespace {

/** Total pinball loss of @p predicted against @p y. */
double
lossOfPredictions(const Vec &y, const Vec &predicted, double tau)
{
    double loss = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
        loss += pinballLoss(tau, y[i] - predicted[i]);
    return loss;
}

} // namespace

double
totalPinballLoss(const Matrix &x, const Vec &y, const Vec &beta,
                 double tau)
{
    return lossOfPredictions(y, x.multiply(beta), tau);
}

double
QuantRegResult::predict(const Vec &xRow) const
{
    return dot(xRow, coefficients);
}

QuantRegResult
fitQuantile(const Matrix &x, const Vec &y, double tau,
            const QuantRegOptions &options)
{
    if (y.size() != x.rows())
        throw NumericalError("quantile regression shape mismatch");
    if (!(tau > 0.0 && tau < 1.0))
        throw NumericalError("tau must lie strictly in (0, 1)");
    if (x.rows() < x.cols())
        throw NumericalError(
            "quantile regression needs rows >= columns");

    QuantRegResult result;
    result.tau = tau;

    // Start from the least-squares solution.
    result.coefficients = fitOls(x, y, options.ridge).coefficients;
    // X beta for the current coefficients, carried across iterations:
    // the loss check already computes it for every candidate.
    Vec predicted = x.multiply(result.coefficients);
    double loss = lossOfPredictions(y, predicted, tau);

    // Hunter-Lange MM with annealed smoothing: the surrogate for
    // rho_tau(r) at r0 is  r^2 / (4 max(|r0|, eps)) + (tau - 1/2) r
    // (+ const), whose minimizer solves a weighted least-squares
    // system with linear term (tau - 1/2) X^T 1.
    double epsilon = options.epsilonStart;
    Vec weights(y.size());
    Vec ones(y.size(), 1.0);
    Vec linear = x.transposeMultiply(ones);
    for (double &v : linear)
        v *= (tau - 0.5);

    for (std::uint64_t it = 0; it < options.maxIterations; ++it) {
        for (std::size_t i = 0; i < y.size(); ++i) {
            const double r = std::fabs(y[i] - predicted[i]);
            weights[i] = 0.5 / std::max(r, epsilon);
        }

        Vec next = solveWeightedLs(x, y, weights, linear, options.ridge);
        Vec nextPredicted = x.multiply(next);
        const double nextLoss = lossOfPredictions(y, nextPredicted, tau);
        ++result.iterations;

        const double improvement =
            loss > 0.0 ? (loss - nextLoss) / loss : 0.0;
        if (nextLoss <= loss) {
            result.coefficients = std::move(next);
            predicted = std::move(nextPredicted);
            loss = nextLoss;
        }

        if (improvement < options.tolerance) {
            if (epsilon <= options.epsilonFloor) {
                result.converged = true;
                break;
            }
            epsilon = std::max(options.epsilonFloor, epsilon * 0.1);
        }
    }

    result.loss = loss;
    return result;
}

} // namespace regress
} // namespace treadmill
