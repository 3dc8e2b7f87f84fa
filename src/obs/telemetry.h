/**
 * @file
 * Deterministic sim-time telemetry: periodic snapshots of named gauges
 * (queue depths, inflight counts, utilizations, pool occupancy,
 * event-queue depth) collected into aligned time series.
 *
 * The sampler itself is passive -- obs sits at the bottom of the
 * layering DAG and cannot schedule simulation events -- so the owner
 * (the experiment harness) drives sample() on a fixed simulated-time
 * period. Probes are read-only and Rng-free: sampling adds events to
 * the queue but never reorders or perturbs the simulated trajectory,
 * so a telemetry-on run completes the same requests at the same
 * simulated instants as a telemetry-off run.
 *
 * Exports: an aligned CSV (one row per tick, one column per probe)
 * and, through chromeSpanJson()'s telemetry argument (obs/span.h),
 * Chrome trace counter events ("ph":"C") that render as stacked
 * counter tracks alongside the span lanes.
 */

#ifndef TREADMILL_OBS_TELEMETRY_H_
#define TREADMILL_OBS_TELEMETRY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/types.h"

namespace treadmill {
namespace obs {

/** Telemetry knobs; disabled sampling costs nothing at all. */
struct TelemetryConfig {
    bool enabled = false;
    /** Snapshot period in simulated microseconds. */
    double periodUs = 1000.0;
    /** Hard cap on retained ticks (sampling stops once full). */
    std::size_t maxSamples = 1u << 16;
};

/** Aligned time series: values[probe][tick] sampled at at[tick]. */
struct TelemetrySeries {
    std::vector<std::string> probes;
    std::vector<SimTime> at;
    std::vector<std::vector<double>> values;

    std::size_t ticks() const { return at.size(); }
};

/**
 * Collects periodic snapshots of registered probes. Register every
 * probe before the run starts (registration order is the stable
 * column/export order), then call sample(now) on the owner's period.
 */
class TelemetrySampler
{
  public:
    using Probe = std::function<double()>;

    explicit TelemetrySampler(const TelemetryConfig &config = {});

    /** Register a named read-only gauge probe (pre-run only). */
    void addProbe(const std::string &name, Probe probe);

    bool enabled() const { return cfg.enabled; }

    SimDuration
    period() const
    {
        return static_cast<SimDuration>(microseconds(cfg.periodUs));
    }

    /** True once the tick cap is reached (owner stops rescheduling). */
    bool
    full() const
    {
        return series_.at.size() >= cfg.maxSamples;
    }

    /** Snapshot every probe at simulated instant @p now. */
    void sample(SimTime now);

    const TelemetrySeries &series() const { return series_; }

    /** Move the collected series out. */
    TelemetrySeries takeSeries();

  private:
    TelemetryConfig cfg;
    std::vector<Probe> probes;
    TelemetrySeries series_;
};

/**
 * Render a series as CSV: header "time_us,<probe>,..." then one row
 * per tick with %.3f-formatted values.
 */
std::string telemetryCsv(const TelemetrySeries &series);

} // namespace obs
} // namespace treadmill

#endif // TREADMILL_OBS_TELEMETRY_H_
