#include "obs/telemetry.h"

#include <charconv>
#include <utility>

#include "util/error.h"

namespace treadmill {
namespace obs {

TelemetrySampler::TelemetrySampler(const TelemetryConfig &config)
    : cfg(config)
{
    if (cfg.enabled && cfg.periodUs <= 0.0)
        throw ConfigError("telemetry period must be positive");
}

void
TelemetrySampler::addProbe(const std::string &name, Probe probe)
{
    if (!probe)
        throw ConfigError("telemetry probe needs a callable");
    if (!series_.at.empty())
        throw ConfigError(
            "telemetry probes must be registered before sampling");
    series_.probes.push_back(name);
    series_.values.emplace_back();
    probes.push_back(std::move(probe));
}

void
TelemetrySampler::sample(SimTime now)
{
    if (!cfg.enabled || full())
        return;
    series_.at.push_back(now);
    for (std::size_t p = 0; p < probes.size(); ++p)
        series_.values[p].push_back(probes[p]());
}

TelemetrySeries
TelemetrySampler::takeSeries()
{
    TelemetrySeries out = std::move(series_);
    series_ = TelemetrySeries{};
    series_.probes = out.probes; // Keep columns if sampling resumes.
    series_.values.resize(series_.probes.size());
    return out;
}

std::string
telemetryCsv(const TelemetrySeries &series)
{
    std::string out = "time_us";
    for (const std::string &probe : series.probes) {
        out += ',';
        out += probe;
    }
    out += '\n';
    // to_chars(fixed, 3) is specified as printf's "%.3f".
    char buf[320]; // Fits %.3f of DBL_MAX (309 integer digits).
    const auto cell = [&out, &buf](double v) {
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                      std::chars_format::fixed, 3)
                            .ptr);
    };
    for (std::size_t t = 0; t < series.at.size(); ++t) {
        cell(toMicros(series.at[t]));
        for (std::size_t p = 0; p < series.values.size(); ++p) {
            out += ',';
            cell(series.values[p][t]);
        }
        out += '\n';
    }
    return out;
}

} // namespace obs
} // namespace treadmill
