/**
 * @file
 * End-to-end tail-latency attribution (paper S IV and S V).
 *
 * The pipeline: run repeated experiments over random permutations of
 * the 2^4 factorial configurations (at least `repsPerConfig` per
 * cell), take each experiment's aggregated quantile as the response
 * variable, perturb the dummy variables by 0.01 sd, fit quantile
 * regression with all interaction terms at each requested tau, and
 * report Table IV-style estimates with bootstrap standard errors,
 * p-values, and the pseudo-R^2 goodness-of-fit.
 */

#ifndef TREADMILL_ANALYSIS_ATTRIBUTION_H_
#define TREADMILL_ANALYSIS_ATTRIBUTION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "exec/parallel_for.h"
#include "hw/hardware_config.h"
#include "regress/design.h"
#include "regress/inference.h"

namespace treadmill {
namespace analysis {

/** Controls for one attribution study. */
struct AttributionParams {
    /** Template experiment; its `config` and `seed` are overridden
     *  per run. */
    core::ExperimentParams base;
    /** Quantiles to model (the paper reports P50/P95/P99 in Table IV
     *  and adds P90 in Figs 7-10). */
    std::vector<double> quantiles{0.5, 0.95, 0.99};
    /** Experiments per factorial cell (paper: >= 30). */
    unsigned repsPerConfig = 30;
    /** Bootstrap replicates for standard errors. */
    std::size_t bootstrapReplicates = 200;
    /** The paper's symmetric dummy-variable perturbation. */
    double perturbSd = 0.01;
    core::AggregationKind aggregation =
        core::AggregationKind::PerInstance;
    std::uint64_t seed = 1;
    /** Fan the independent experiments, and then the bootstrap
     *  refits, across threads; the Observation set and the models are
     *  bit-exact for every setting (each run's seed depends only on its
     *  index, see core::runExperiments; for the fit see
     *  FactorialFitParams::parallelism). */
    exec::Parallelism parallelism{};
    /** Optional sweep observer (runs done / total, wall-clock,
     *  achieved sim-time throughput). */
    exec::ProgressFn progress{};
};

/** One measured experiment in the attribution data set. */
struct Observation {
    hw::HardwareConfig config;
    std::uint64_t runSeed = 0;
    /** Aggregated quantile latency per requested tau, microseconds. */
    std::map<double, double> quantileUs;
    double serverUtilization = 0.0;
};

/** Table IV row: one term of one quantile model. */
struct TermEstimate {
    std::string name;
    double estimate = 0.0;
    double standardError = 0.0;
    double pValue = 1.0;
};

/** The fitted model for one quantile. */
struct QuantileModel {
    double tau = 0.5;
    std::vector<TermEstimate> terms;
    double pseudoR2 = 0.0;
    regress::QuantRegResult fit;
};

/** Complete outcome of an attribution study. */
struct AttributionResult {
    std::vector<Observation> observations;
    std::vector<QuantileModel> models;
    regress::FactorialDesign design{
        std::vector<std::string>{"numa", "turbo", "dvfs", "nic"}};

    /** Model for quantile @p tau; throws if not fitted. */
    const QuantileModel &model(double tau) const;

    /**
     * Predicted tau-quantile latency for @p config (sum of active
     * coefficients, Table IV usage example).
     */
    double predict(double tau, const hw::HardwareConfig &config) const;

    /**
     * Average impact of switching factor @p factorIdx to high level,
     * assuming all other factors are equally likely low or high
     * (Figs 8 and 10).
     */
    double averageFactorImpact(double tau, std::size_t factorIdx) const;

    /**
     * Average impact of switching factor @p factorIdx to high level
     * with factor @p givenIdx pinned at @p givenHigh, averaging over
     * the remaining factors. Exposes conditional effects such as
     * "turbo given the performance governor" (Finding 8's thermal
     * interaction).
     */
    double averageFactorImpactGiven(double tau, std::size_t factorIdx,
                                    std::size_t givenIdx,
                                    bool givenHigh) const;
};

/** Controls for fitting factorial quantile-regression models to an
 *  arbitrary (design, levels, responses) data set. */
struct FactorialFitParams {
    std::vector<double> quantiles{0.5, 0.95, 0.99};
    std::size_t bootstrapReplicates = 200;
    double perturbSd = 0.01;
    std::uint64_t seed = 1;
    /** Fan the nTau x (bootstrapReplicates + 1) quantile fits across
     *  threads. Resamples are drawn serially, each fit lands in its
     *  own index-addressed slot, and the summary is built in replicate
     *  order, so the models are bit-exact for every setting. Serial by
     *  default, for callers that already overlap fits with other
     *  work. */
    exec::Parallelism parallelism = exec::Parallelism::serial();
};

/**
 * Fit one QuantileModel per requested tau to a generic 2-level
 * factorial data set. This is the engine behind fitAttribution(),
 * exposed so studies with factor sets other than the hardware one --
 * e.g. injected-fault toggles -- reuse the identical treatment:
 * 0.01-sd dummy perturbation, quantile regression with all
 * interactions, bootstrap standard errors, pseudo-R^2.
 *
 * @param design The factor structure (any names/count).
 * @param levels One level vector (0/1 per factor) per observation.
 * @param responses tau -> one response per observation (microseconds);
 *        must contain every tau in params.quantiles.
 */
std::vector<QuantileModel> fitFactorialModels(
    const regress::FactorialDesign &design,
    const std::vector<std::vector<double>> &levels,
    const std::map<double, std::vector<double>> &responses,
    const FactorialFitParams &params);

/**
 * Collect the experiment data set for an attribution study: runs
 * repsPerConfig experiments for each of the 16 configurations in a
 * randomized order with fresh run seeds.
 */
std::vector<Observation> collectObservations(
    const AttributionParams &params);

/**
 * Fit the quantile-regression models to an observation set.
 */
AttributionResult fitAttribution(const AttributionParams &params,
                                 std::vector<Observation> observations);

/** collectObservations + fitAttribution. */
AttributionResult runAttribution(const AttributionParams &params);

} // namespace analysis
} // namespace treadmill

#endif // TREADMILL_ANALYSIS_ATTRIBUTION_H_
