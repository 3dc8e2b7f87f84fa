/**
 * @file
 * Bootstrap inference for quantile-regression coefficients.
 *
 * Quantile regression has no closed-form covariance free of density
 * assumptions, so Treadmill reports Table IV's Std. Err and p-value
 * columns from a nonparametric bootstrap over experiments: resample
 * rows with replacement, refit, and read the spread of each
 * coefficient across replicates. p-values use the normal
 * approximation z = estimate / SE.
 *
 * The bootstrap is three steps so a caller can run the refits on any
 * executor: drawResamples() consumes the rng, fitResample() is a pure
 * function of one resample, and summarizeBootstrap() reduces the
 * replicates in replicate order. bootstrapQuantReg() is their serial
 * composition; a caller that fans the refits out and stores each one
 * at its replicate index gets the same bits.
 */

#ifndef TREADMILL_REGRESS_INFERENCE_H_
#define TREADMILL_REGRESS_INFERENCE_H_

#include <cstdint>
#include <vector>

#include "regress/matrix.h"
#include "regress/quantreg.h"
#include "util/rng.h"

namespace treadmill {
namespace regress {

/** Point estimate with bootstrap uncertainty for one coefficient. */
struct CoefficientInference {
    double estimate = 0.0;
    double standardError = 0.0;
    double pValue = 1.0;
    double ciLow = 0.0;  ///< Percentile CI at the given confidence.
    double ciHigh = 0.0;
};

/** Inference for every coefficient of one quantile fit. */
struct QuantRegInference {
    QuantRegResult fit; ///< Fit on the full data.
    std::vector<CoefficientInference> coefficients;
    /** Refits the standard errors rest on: the requested replicates
     *  minus the resamples skipped as degenerate. */
    std::size_t bootstrapReplicates = 0;
};

/**
 * Draw @p replicates bootstrap resamples of @p n row indices each, with
 * replacement: all n indices of replicate b come from @p rng before
 * any index of replicate b + 1.
 *
 * @throws ConfigError when replicates < 2.
 */
std::vector<std::vector<std::size_t>>
drawResamples(std::size_t n, std::size_t replicates, Rng &rng);

/**
 * Refit the tau-quantile on the rows of (x, y) selected by
 * @p indices. Returns empty coefficients when the resampled design is
 * degenerate (e.g. every row from one factor cell), so the replicate
 * is skipped rather than failing the bootstrap.
 */
Vec fitResample(const Matrix &x, const Vec &y,
                const std::vector<std::size_t> &indices, double tau,
                const QuantRegOptions &options = {});

/**
 * Reduce bootstrap replicates to per-coefficient inference around
 * @p fit, the fit on the full data. @p replicateCoefficients holds one
 * fitResample() result per replicate in replicate order; empty
 * (skipped) entries are ignored.
 *
 * @throws NumericalError when fewer than two replicates survive.
 */
QuantRegInference
summarizeBootstrap(QuantRegResult fit,
                   const std::vector<Vec> &replicateCoefficients,
                   double confidence = 0.95);

/**
 * Fit the tau-quantile and bootstrap its coefficient uncertainty.
 *
 * @param x Design matrix.
 * @param y Responses.
 * @param tau Quantile order.
 * @param replicates Bootstrap resamples (>= 2).
 * @param rng Randomness for resampling.
 * @param confidence Two-sided CI level.
 * @param options Inner solver controls.
 */
QuantRegInference
bootstrapQuantReg(const Matrix &x, const Vec &y, double tau,
                  std::size_t replicates, Rng &rng,
                  double confidence = 0.95,
                  const QuantRegOptions &options = {});

} // namespace regress
} // namespace treadmill

#endif // TREADMILL_REGRESS_INFERENCE_H_
