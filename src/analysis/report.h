/**
 * @file
 * Text rendering of tables and distribution series.
 *
 * The bench binaries regenerate the paper's tables and figures as
 * text: Table IV-style coefficient tables, CDF series for the
 * latency-distribution figures, and generic aligned column tables.
 */

#ifndef TREADMILL_ANALYSIS_REPORT_H_
#define TREADMILL_ANALYSIS_REPORT_H_

#include <string>
#include <vector>

#include "analysis/attribution.h"
#include "obs/span.h"

namespace treadmill {
namespace analysis {

/** A generic aligned text table. */
class TextTable
{
  public:
    /** @param header Column titles. */
    explicit TextTable(std::vector<std::string> header);

    /** Append one row (must match the header's column count). */
    void addRow(std::vector<std::string> row);

    /** Render with aligned columns; first column left-aligned, the
     *  rest right-aligned. */
    std::string render() const;

    std::size_t rowCount() const { return rows.size(); }

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

/**
 * Render a Table IV-style quantile-regression coefficient table:
 * one row per term, Est./Std.Err/p-value blocks per quantile.
 *
 * @param significance Bold markers (here: a trailing '*') applied to
 *        rows with p below this threshold, as the paper highlights
 *        p < 0.05.
 */
std::string renderCoefficientTable(const AttributionResult &attribution,
                                   double significance = 0.05);

/** Same rendering for a bare model set (any factorial design, e.g. a
 *  fault-injection study's fault-toggle factors). */
std::string
renderCoefficientTable(const std::vector<QuantileModel> &models,
                       double significance = 0.05);

/**
 * Render a CDF as "value cumulative-probability" rows, downsampled to
 * @p points evenly spaced probabilities (a gnuplot-ready series).
 */
std::string renderCdf(std::vector<double> samples,
                      std::size_t points = 50);

/**
 * The measured per-component latency breakdown of a traced run: which
 * component (client queueing, network, server NIC queue, worker queue,
 * service) owns each quantile of the distribution. This is the
 * measured attribution table that sits alongside the
 * quantile-regression attribution of renderCoefficientTable().
 */
struct DecompositionReport {
    /** One row per path component, in path order. */
    struct Component {
        std::string name;
        double meanUs = 0.0;
        /** Component quantiles at the requested taus. */
        std::vector<double> quantileUs;
        /** Share of the end-to-end mean owned by this component. */
        double meanShare = 0.0;
    };

    std::vector<Component> components;
    double endToEndMeanUs = 0.0;
    std::vector<double> endToEndQuantileUs;
    std::vector<double> quantiles; ///< The taus the columns report.
    std::size_t requestCount = 0;
};

/**
 * Decompose each span's winning attempt (obs::Decomposition) into
 * per-component quantiles at @p quantiles (defaults to
 * P50/P99/P99.9). Throws NumericalError when empty.
 */
DecompositionReport
decomposeTraces(const std::vector<obs::SpanTrace> &spans,
                const std::vector<double> &quantiles = {0.5, 0.99,
                                                        0.999});

/** Render a DecompositionReport as an aligned text table. */
std::string renderDecompositionTable(const DecompositionReport &report);

/** Format microseconds compactly ("355 us", "<1 us"). */
std::string formatMicros(double us);

/** Format a p-value the way Table IV does ("<1e-06" under floor). */
std::string formatPValue(double p);

} // namespace analysis
} // namespace treadmill

#endif // TREADMILL_ANALYSIS_REPORT_H_
