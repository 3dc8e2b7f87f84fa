#include "analysis/report.h"

#include <algorithm>
#include <cmath>

#include "stats/summary.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/strings.h"

namespace treadmill {
namespace analysis {

TextTable::TextTable(std::vector<std::string> header_)
    : header(std::move(header_))
{
    if (header.empty())
        throw ConfigError("table needs at least one column");
}

void
TextTable::addRow(std::vector<std::string> row)
{
    if (row.size() != header.size())
        throw ConfigError("table row width mismatch");
    rows.push_back(std::move(row));
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        widths[c] = header[c].size();
    for (const auto &row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::string out;
    const auto renderRow = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c > 0)
                out += "  ";
            out += c == 0 ? padRight(row[c], widths[c])
                          : padLeft(row[c], widths[c]);
        }
        out += '\n';
    };
    renderRow(header);
    std::size_t total = header.size() - 1;
    for (std::size_t w : widths)
        total += w + 1;
    out += std::string(total, '-');
    out += '\n';
    for (const auto &row : rows)
        renderRow(row);
    return out;
}

std::string
formatMicros(double us)
{
    if (std::fabs(us) < 1.0)
        return us >= 0.0 ? "<1 us" : ">-1 us";
    return strprintf("%.0f us", us);
}

std::string
formatPValue(double p)
{
    if (p < 1e-6)
        return "<1e-06";
    return strprintf("%.2e", p);
}

std::string
renderCoefficientTable(const std::vector<QuantileModel> &models,
                       double significance)
{
    if (models.empty())
        throw NumericalError("no fitted models to render");

    std::vector<std::string> header{"Factor"};
    for (const QuantileModel &m : models) {
        header.push_back(strprintf("P%g Est.", m.tau * 100.0));
        header.push_back(strprintf("P%g Std.Err", m.tau * 100.0));
        header.push_back(strprintf("P%g p-value", m.tau * 100.0));
    }
    TextTable table(header);

    const std::size_t terms = models[0].terms.size();
    for (std::size_t t = 0; t < terms; ++t) {
        std::vector<std::string> row;
        std::string name = models[0].terms[t].name;
        bool significant = false;
        for (const QuantileModel &m : models)
            significant |= m.terms[t].pValue < significance;
        if (significant)
            name += " *";
        row.push_back(name);
        for (const QuantileModel &m : models) {
            const TermEstimate &term = m.terms[t];
            row.push_back(formatMicros(term.estimate));
            row.push_back(formatMicros(term.standardError));
            row.push_back(formatPValue(term.pValue));
        }
        table.addRow(std::move(row));
    }

    std::string out = table.render();
    out += "\npseudo-R2:";
    for (const QuantileModel &m : models)
        out += strprintf("  P%g=%.3f", m.tau * 100.0, m.pseudoR2);
    out += "\n(* = p < ";
    out += strprintf("%g", significance);
    out += " at some quantile)\n";
    return out;
}

std::string
renderCoefficientTable(const AttributionResult &attribution,
                       double significance)
{
    return renderCoefficientTable(attribution.models, significance);
}

DecompositionReport
decomposeTraces(const std::vector<obs::SpanTrace> &spans,
                const std::vector<double> &quantiles)
{
    if (spans.empty())
        throw NumericalError("cannot decompose zero traces");
    if (quantiles.empty())
        throw ConfigError("decomposition needs at least one quantile");

    const auto &names = obs::decompositionComponentNames();
    std::vector<std::vector<double>> perComponent(names.size());
    for (auto &samples : perComponent)
        samples.reserve(spans.size());
    std::vector<double> endToEnd;
    endToEnd.reserve(spans.size());

    for (const obs::SpanTrace &s : spans) {
        const auto d = obs::Decomposition::of(s);
        const std::vector<double> parts =
            obs::decompositionComponents(d);
        for (std::size_t c = 0; c < parts.size(); ++c)
            perComponent[c].push_back(parts[c]);
        endToEnd.push_back(d.endToEndUs);
    }

    DecompositionReport report;
    report.quantiles = quantiles;
    report.requestCount = spans.size();
    report.endToEndMeanUs = stats::mean(endToEnd);
    for (double q : quantiles)
        report.endToEndQuantileUs.push_back(
            stats::quantile(endToEnd, q));

    for (std::size_t c = 0; c < names.size(); ++c) {
        DecompositionReport::Component component;
        component.name = names[c];
        component.meanUs = stats::mean(perComponent[c]);
        component.meanShare =
            report.endToEndMeanUs > 0.0
                ? component.meanUs / report.endToEndMeanUs
                : 0.0;
        for (double q : quantiles)
            component.quantileUs.push_back(
                stats::quantile(perComponent[c], q));
        report.components.push_back(std::move(component));
    }
    return report;
}

std::string
renderDecompositionTable(const DecompositionReport &report)
{
    std::vector<std::string> header{"Component", "Mean"};
    for (double q : report.quantiles)
        header.push_back(strprintf("P%g", q * 100.0));
    header.push_back("Share");
    TextTable table(header);

    const auto addRow = [&table](const std::string &name, double mean,
                                 const std::vector<double> &qs,
                                 double share, bool withShare) {
        std::vector<std::string> row{name, strprintf("%.1f", mean)};
        for (double v : qs)
            row.push_back(strprintf("%.1f", v));
        row.push_back(withShare ? strprintf("%.1f%%", share * 100.0)
                                : std::string("-"));
        table.addRow(std::move(row));
    };

    double meanSum = 0.0;
    std::vector<double> quantileSums(report.quantiles.size(), 0.0);
    for (const auto &component : report.components) {
        addRow(component.name, component.meanUs, component.quantileUs,
               component.meanShare, true);
        meanSum += component.meanUs;
        for (std::size_t i = 0; i < component.quantileUs.size(); ++i)
            quantileSums[i] += component.quantileUs[i];
    }
    addRow("sum of components", meanSum, quantileSums, 1.0, false);
    addRow("end-to-end", report.endToEndMeanUs,
           report.endToEndQuantileUs, 1.0, false);

    std::string out = strprintf(
        "Latency decomposition over %zu traced requests (us)\n",
        report.requestCount);
    out += table.render();
    out += "(per-request component sums equal end-to-end exactly;"
           " per-component\n quantiles need not sum to the end-to-end"
           " quantile)\n";
    return out;
}

std::string
renderCdf(std::vector<double> samples, std::size_t points)
{
    if (samples.empty())
        throw NumericalError("cannot render an empty CDF");
    if (points < 2)
        throw ConfigError("CDF needs at least two points");
    std::sort(samples.begin(), samples.end());
    std::string out;
    for (std::size_t i = 0; i < points; ++i) {
        const double p =
            static_cast<double>(i) / static_cast<double>(points - 1);
        const auto idx = static_cast<std::size_t>(
            p * static_cast<double>(samples.size() - 1));
        out += strprintf("%12.2f  %.4f\n", samples[idx], p);
    }
    return out;
}

} // namespace analysis
} // namespace treadmill
