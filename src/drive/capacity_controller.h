/**
 * @file
 * Closed-loop SLO capacity search over live runs.
 *
 * The paper motivates precise tail measurement with provisioning:
 * "servers are typically acquired in large quantities ... so it is
 * important to choose the best design possible and carefully
 * provision resources" (S I). CapacityController answers the
 * operator's question directly: given a configuration and a
 * P-quantile SLO, what is the highest utilization (and request rate)
 * the machine sustains?
 *
 * The search bisects a utilization bracket, and each probe is
 * adaptive, per the paper's repeated-experiment procedure and
 * DiPerF's closed-loop envelope extraction (PAPERS.md):
 *
 *  - every probe starts with runsPerPoint fresh-seeded runs and
 *    compares the per-run tau-quantiles against the SLO with a
 *    Student-t confidence interval (compareToSlo);
 *  - if the CI cleanly clears or violates the bound the probe stops
 *    early -- no budget wasted confirming the obvious;
 *  - if the CI straddles the bound, the point is re-probed with
 *    another fresh seed (hysteresis: new placement, same load) until
 *    the band resolves or maxRunsPerProbe is reached;
 *  - the bracket only narrows on a resolved verdict or an exhausted
 *    probe, and the search stops once the bracket is narrower than
 *    utilizationTolerance -- tight SLOs resolve in fewer probes than
 *    a fixed iteration count would spend.
 *
 * Every run can be persisted to a run store archive as it completes,
 * so the whole search is re-analyzable from disk afterwards.
 */

#ifndef TREADMILL_DRIVE_CAPACITY_CONTROLLER_H_
#define TREADMILL_DRIVE_CAPACITY_CONTROLLER_H_

#include <cstdint>
#include <vector>

#include "core/experiment.h"
#include "store/writer.h"

namespace treadmill {
namespace drive {

/** Bracket, SLO, and per-probe run floor of a capacity search. */
struct CapacitySearchParams {
    core::ExperimentParams base;
    /** SLO quantile and bound (e.g., P99 <= 300 us). */
    double tau = 0.99;
    double sloUs = 300.0;
    /** Utilization bracket searched. */
    double utilizationLow = 0.05;
    double utilizationHigh = 0.90;
    /** Cap on bracket-narrowing steps. */
    unsigned maxIterations = 8;
    /** Runs in each probe's first wave (the floor per probe). */
    unsigned runsPerPoint = 3;
    std::uint64_t seed = 1;
    /** Fan each probe's independent runs across threads (the
     *  bisection itself is inherently sequential). */
    exec::Parallelism parallelism{};
};

/** Controls for the adaptive search. */
struct CapacityControllerParams {
    CapacitySearchParams search;
    /** Ceiling on fresh-seed re-probes of an uncertain point. */
    unsigned maxRunsPerProbe = 6;
    /** Confidence level of the probe CI. */
    double confidence = 0.95;
    /** Stop once the bracket is narrower than this. */
    double utilizationTolerance = 0.02;
};

/** How a probe point's confidence interval relates to an SLO bound. */
enum class SloVerdict {
    Clears,    ///< CI entirely at or below the bound.
    Violates,  ///< CI entirely above the bound.
    Uncertain, ///< CI straddles the bound (or too few runs).
};

/** CI-aware comparison of one probe point against an SLO. */
struct SloComparison {
    double mean = 0.0;
    double ciLowUs = 0.0;  ///< Lower confidence bound on the mean.
    double ciHighUs = 0.0; ///< Upper confidence bound on the mean.
    std::size_t runs = 0;
    SloVerdict verdict = SloVerdict::Uncertain;
};

/**
 * Compare per-run tau-quantile measurements against an SLO bound with
 * a two-sided Student-t confidence interval on their mean. With fewer
 * than two runs the verdict is always Uncertain (no spread estimate).
 * @p confidence must lie in [0.5, 1); CapacityController validates it.
 */
SloComparison compareToSlo(const std::vector<double> &perRunQuantileUs,
                           double sloUs, double confidence = 0.95);

/** One adaptively probed operating point. */
struct ProbeOutcome {
    double utilization = 0.0;
    double requestsPerSecond = 0.0;
    std::vector<double> perRunQuantileUs;
    SloComparison comparison;
    /** True when the CI resolved before maxRunsPerProbe. */
    bool earlyExit = false;
    /** CapacityController::meetsSlo of perRunQuantileUs. */
    bool meetsSlo = false;
};

/** Outcome of the closed-loop search. */
struct CapacitySearchResult {
    double maxUtilization = 0.0;
    double maxRequestsPerSecond = 0.0;
    double latencyAtMaxUs = 0.0;
    bool infeasible = false;
    /** True when the bracket narrowed below tolerance (as opposed to
     *  running out of iterations). */
    bool converged = false;
    /** Total experiments simulated across all probes. */
    unsigned totalRuns = 0;
    /** Runs a non-adaptive bisection would spend on the same bracket:
     *  (2 bracket probes + maxIterations) * runsPerPoint. */
    unsigned fixedPlannerRuns = 0;
    std::vector<ProbeOutcome> probes;
};

class CapacityController
{
  public:
    /** @throws ConfigError naming any invalid field. */
    explicit CapacityController(CapacityControllerParams params);

    /**
     * Run the adaptive search. When @p archive is non-null every
     * simulated run is persisted as it completes (factor
     * "utilization", level = the probe's utilization); the caller
     * owns finish().
     */
    CapacitySearchResult search(store::StudyWriter *archive = nullptr);

    /**
     * The SLO decision on a finished probe's per-run tau-quantiles:
     * a CI that clears the bound meets it, one that violates it does
     * not, and a CI still straddling the bound falls back to the mean
     * once the probe has spent maxRunsPerProbe runs (false before).
     * Both the live search and any re-derivation from archived
     * quantiles decide through this one rule.
     */
    bool meetsSlo(const std::vector<double> &perRunQuantileUs) const;

    const CapacityControllerParams &params() const { return controls; }

  private:
    ProbeOutcome probe(double utilization, unsigned probeIndex,
                       store::StudyWriter *archive,
                       unsigned &nextArchiveSeq);

    CapacityControllerParams controls;
};

} // namespace drive
} // namespace treadmill

#endif // TREADMILL_DRIVE_CAPACITY_CONTROLLER_H_
