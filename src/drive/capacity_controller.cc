#include "drive/capacity_controller.h"

#include <algorithm>
#include <cmath>

#include "core/run_record.h"
#include "stats/hypothesis.h"
#include "stats/summary.h"
#include "util/error.h"
#include "util/strings.h"

namespace treadmill {
namespace drive {

namespace {

/** Reject a degenerate search up front, naming the offending field. */
void
validate(const CapacityControllerParams &controls)
{
    const CapacitySearchParams &params = controls.search;
    if (!(params.tau > 0.0) || !(params.tau < 1.0))
        throw ConfigError(strprintf(
            "capacity search: tau must lie in (0, 1), got %g",
            params.tau));
    if (!(params.sloUs > 0.0))
        throw ConfigError(strprintf(
            "capacity search: sloUs must be positive, got %g",
            params.sloUs));
    if (!(params.utilizationLow > 0.0))
        throw ConfigError(strprintf(
            "capacity search: utilizationLow must be positive, got %g",
            params.utilizationLow));
    if (!(params.utilizationHigh < 1.0))
        throw ConfigError(strprintf(
            "capacity search: utilizationHigh must be below 1, got %g",
            params.utilizationHigh));
    if (params.utilizationLow >= params.utilizationHigh)
        throw ConfigError(strprintf(
            "capacity search: utilizationLow (%g) must be below "
            "utilizationHigh (%g)",
            params.utilizationLow, params.utilizationHigh));
    if (params.runsPerPoint == 0)
        throw ConfigError(
            "capacity search: runsPerPoint must be nonzero");
    if (params.maxIterations == 0)
        throw ConfigError(
            "capacity search: maxIterations must be nonzero");
    if (controls.maxRunsPerProbe < params.runsPerPoint)
        throw ConfigError(strprintf(
            "capacity controller: maxRunsPerProbe (%u) must be at "
            "least runsPerPoint (%u)",
            controls.maxRunsPerProbe, params.runsPerPoint));
    if (!(controls.confidence >= 0.5) ||
        !(controls.confidence < 1.0))
        throw ConfigError(strprintf(
            "capacity controller: confidence must lie in [0.5, 1), "
            "got %g",
            controls.confidence));
    if (!(controls.utilizationTolerance > 0.0))
        throw ConfigError(strprintf(
            "capacity controller: utilizationTolerance must be "
            "positive, got %g",
            controls.utilizationTolerance));
}

/**
 * Two-sided Student-t critical value at 95% confidence, by degrees of
 * freedom. Beyond the table the normal limit applies.
 */
double
tCritical95(std::size_t df)
{
    static const double table[] = {
        0.0,   12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
        2.306, 2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
        2.120, 2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
        2.064, 2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
    if (df == 0)
        return 0.0;
    if (df < sizeof(table) / sizeof(table[0]))
        return table[df];
    return 1.960;
}

} // namespace

SloComparison
compareToSlo(const std::vector<double> &perRunQuantileUs, double sloUs,
             double confidence)
{
    SloComparison cmp;
    cmp.runs = perRunQuantileUs.size();
    cmp.mean = stats::mean(perRunQuantileUs);
    if (cmp.runs < 2) {
        cmp.ciLowUs = cmp.ciHighUs = cmp.mean;
        cmp.verdict = SloVerdict::Uncertain;
        return cmp;
    }
    // Scale the tabulated 95% critical value for other confidence
    // levels via the normal-quantile ratio; exact at 0.95, a close
    // approximation elsewhere in the usual 0.8-0.99 range.
    const double sd = stats::stddev(perRunQuantileUs);
    double tcrit = tCritical95(cmp.runs - 1);
    if (confidence != 0.95) {
        const double z95 = 1.959964;
        // Beasley-Springer-Moro-free shortcut: invert the normal CDF
        // by bisection on stats::normalCdf (monotone, cheap).
        const double p = 0.5 + confidence / 2.0;
        double lo = 0.0, hi = 10.0;
        for (int i = 0; i < 60; ++i) {
            const double mid = 0.5 * (lo + hi);
            (stats::normalCdf(mid) < p ? lo : hi) = mid;
        }
        tcrit *= 0.5 * (lo + hi) / z95;
    }
    const double half =
        tcrit * sd / std::sqrt(static_cast<double>(cmp.runs));
    cmp.ciLowUs = cmp.mean - half;
    cmp.ciHighUs = cmp.mean + half;
    if (cmp.ciHighUs <= sloUs)
        cmp.verdict = SloVerdict::Clears;
    else if (cmp.ciLowUs > sloUs)
        cmp.verdict = SloVerdict::Violates;
    else
        cmp.verdict = SloVerdict::Uncertain;
    return cmp;
}

CapacityController::CapacityController(CapacityControllerParams params)
    : controls(std::move(params))
{
    validate(controls);
}

bool
CapacityController::meetsSlo(
    const std::vector<double> &perRunQuantileUs) const
{
    const SloComparison cmp = compareToSlo(
        perRunQuantileUs, controls.search.sloUs, controls.confidence);
    if (cmp.verdict == SloVerdict::Clears)
        return true;
    if (cmp.verdict == SloVerdict::Violates)
        return false;
    return cmp.runs >= controls.maxRunsPerProbe &&
           cmp.mean <= controls.search.sloUs;
}

ProbeOutcome
CapacityController::probe(double utilization, unsigned probeIndex,
                          store::StudyWriter *archive,
                          unsigned &nextArchiveSeq)
{
    const CapacitySearchParams &search = controls.search;
    ProbeOutcome outcome;
    outcome.utilization = utilization;

    unsigned runsDone = 0;
    while (true) {
        // First wave fans runsPerPoint runs across threads; each
        // re-probe adds one fresh seed (a new placement -- the
        // paper's hysteresis procedure).
        const unsigned batch =
            runsDone == 0 ? search.runsPerPoint : 1u;
        std::vector<core::ExperimentParams> runs;
        runs.reserve(batch);
        for (unsigned i = 0; i < batch; ++i) {
            core::ExperimentParams p = search.base;
            p.targetUtilization = utilization;
            p.requestsPerSecond = 0.0; // derive from utilization
            p.seed = search.seed * 6151 +
                     static_cast<std::uint64_t>(probeIndex) * 24593 +
                     (runsDone + i) * 131 + 7;
            runs.push_back(std::move(p));
        }
        const auto results =
            core::runExperiments(runs, search.parallelism);
        for (std::size_t i = 0; i < results.size(); ++i) {
            outcome.perRunQuantileUs.push_back(
                results[i].aggregatedQuantile(
                    search.tau, core::AggregationKind::PerInstance));
            outcome.requestsPerSecond = results[i].targetRps;
            if (archive != nullptr) {
                core::RunRecordOptions opts;
                opts.quantiles = {0.5, search.tau};
                std::sort(opts.quantiles.begin(),
                          opts.quantiles.end());
                opts.quantiles.erase(
                    std::unique(opts.quantiles.begin(),
                                opts.quantiles.end()),
                    opts.quantiles.end());
                archive->writeRun(
                    nextArchiveSeq++,
                    core::toRunRecord(runs[i], results[i],
                                      {utilization}, opts));
            }
        }
        runsDone += batch;

        outcome.comparison = compareToSlo(
            outcome.perRunQuantileUs, search.sloUs,
            controls.confidence);
        const bool resolved =
            outcome.comparison.verdict != SloVerdict::Uncertain;
        if (resolved || runsDone >= controls.maxRunsPerProbe) {
            outcome.earlyExit =
                resolved && runsDone < controls.maxRunsPerProbe;
            outcome.meetsSlo = meetsSlo(outcome.perRunQuantileUs);
            return outcome;
        }
    }
}

CapacitySearchResult
CapacityController::search(store::StudyWriter *archive)
{
    const CapacitySearchParams &params = controls.search;
    CapacitySearchResult result;
    result.fixedPlannerRuns =
        (2 + params.maxIterations) * params.runsPerPoint;
    unsigned nextSeq = 0;
    unsigned probeIndex = 0;

    const auto runProbe = [&](double utilization) {
        ProbeOutcome outcome =
            probe(utilization, probeIndex++, archive, nextSeq);
        result.totalRuns += static_cast<unsigned>(
            outcome.perRunQuantileUs.size());
        result.probes.push_back(outcome);
        return outcome;
    };

    // Establish the bracket.
    const ProbeOutcome low = runProbe(params.utilizationLow);
    if (!low.meetsSlo) {
        result.infeasible = true;
        return result;
    }
    const ProbeOutcome high = runProbe(params.utilizationHigh);
    if (high.meetsSlo) {
        result.maxUtilization = high.utilization;
        result.maxRequestsPerSecond = high.requestsPerSecond;
        result.latencyAtMaxUs = high.comparison.mean;
        result.converged = true;
        return result;
    }

    // Narrow: invariant low meets the SLO, high does not.
    ProbeOutcome best = low;
    double lo = params.utilizationLow;
    double hi = params.utilizationHigh;
    for (unsigned it = 0; it < params.maxIterations; ++it) {
        if (hi - lo <= controls.utilizationTolerance) {
            result.converged = true;
            break;
        }
        const double mid = 0.5 * (lo + hi);
        const ProbeOutcome point = runProbe(mid);
        if (point.meetsSlo) {
            best = point;
            lo = mid;
        } else {
            hi = mid;
        }
    }
    if (hi - lo <= controls.utilizationTolerance)
        result.converged = true;

    result.maxUtilization = best.utilization;
    result.maxRequestsPerSecond = best.requestsPerSecond;
    result.latencyAtMaxUs = best.comparison.mean;
    return result;
}

} // namespace drive
} // namespace treadmill
