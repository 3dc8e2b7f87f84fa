/**
 * @file
 * The metrics registry: lightweight counters, gauges, and log-bucketed
 * histograms owned per-Simulation.
 *
 * The paper's thesis is *attributing* tail latency to its source; the
 * registry is how every component (client control loop, network links,
 * server NIC/workers, the event queue itself) publishes the telemetry
 * that attribution needs. Ownership is per-Simulation so that parallel
 * experiment runs (seed-isolated, see DESIGN.md §5) never share mutable
 * metric state and remain bit-exact at any thread count: metrics are
 * pure observers and never touch an Rng stream or the event order.
 *
 * Hot-path cost: components resolve their metrics by name once, at
 * construction, and then bump plain integers/doubles through the held
 * reference. Recording into a histogram is a shift of the value's
 * IEEE-754 bits plus an array increment -- no libm call, no
 * allocation, no locking (a Simulation is single-threaded by
 * construction).
 */

#ifndef TREADMILL_OBS_METRICS_H_
#define TREADMILL_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "util/json.h"

namespace treadmill {
namespace obs {

/** A monotonically increasing event count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { total += n; }
    std::uint64_t value() const { return total; }

  private:
    std::uint64_t total = 0;
};

/** A point-in-time value (queue depth, utilization). */
class Gauge
{
  public:
    void set(double v) { current = v; }
    void add(double delta) { current += delta; }
    double value() const { return current; }

  private:
    double current = 0.0;
};

/**
 * A log-bucketed histogram of non-negative values.
 *
 * Buckets are geometric with four sub-buckets per octave (~9% relative
 * width), covering [2^-11, 2^39) -- microsecond latencies from
 * sub-nanosecond to ~6 days. Values outside the range clamp to the
 * edge buckets; exact min/max/sum are tracked alongside so means are
 * exact and quantiles are clamped into [min, max]. Storage is inline
 * and fixed (about 1.6 KB) however many values are recorded.
 */
class Histogram
{
  public:
    /** Record one observation (negative values clamp to zero). */
    void record(double value);

    std::uint64_t count() const { return observations; }
    double sum() const { return total; }
    double mean() const;
    double min() const { return observations > 0 ? minSeen : 0.0; }
    double max() const { return observations > 0 ? maxSeen : 0.0; }

    /**
     * Approximate q-quantile (bucket midpoint, clamped to [min, max]).
     * Returns 0 when empty.
     */
    double quantile(double q) const;

    static constexpr int kSubBuckets = 4;   ///< Per octave.
    /** frexp exponents of the first octave and one past the last:
     *  the range is [2^(kMinExp-1), 2^(kMaxExp-1)). */
    static constexpr int kMinExp = -10;
    static constexpr int kMaxExp = 40;
    static constexpr int kBucketCount =
        (kMaxExp - kMinExp) * kSubBuckets;

    /**
     * Bucket index for @p value, clamped into range: the same index
     * frexp's mantissa/exponent split gives, read straight from the
     * IEEE-754 bits. Zero, negatives, NaN and subnormals map to bucket
     * 0, +inf to the last bucket.
     */
    static int bucketFor(double value);

  private:
    /** Midpoint of bucket @p idx. */
    static double bucketMid(int idx);

    std::array<std::uint64_t, kBucketCount> buckets{};
    std::uint64_t observations = 0;
    double total = 0.0;
    double minSeen = 0.0;
    double maxSeen = 0.0;
};

/**
 * Owns every metric of one Simulation and hands out stable references.
 *
 * Metrics are created on first lookup; repeated lookups under the same
 * name return the same object. Storage is name-sorted so snapshot()
 * output is deterministic.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** @name Find-or-create by hierarchical name ("client0.issued").
     * References stay valid for the registry's lifetime.
     * @{
     */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);
    /** @} */

    /**
     * Claim exclusive ownership of a metric-name scope (the dotted
     * prefix a component registers all its metrics under, e.g.
     * "backend2" or "lb"). Scoped components call this once at
     * construction; a second claim of the same scope throws
     * ConfigError instead of letting two components silently share --
     * and corrupt -- each other's counters. Plain find-or-create
     * lookups are unaffected: intentional sharing (countEvent) still
     * works for names whose scope nobody claimed.
     *
     * @throws ConfigError when @p scope was already claimed.
     */
    void claimScope(const std::string &scope);

    /** Total number of registered metrics. */
    std::size_t size() const;

    /**
     * Serialize every metric to JSON:
     * {"counters": {...}, "gauges": {...}, "histograms": {name:
     * {count, sum, mean, min, max, p50, p90, p99, p999}}}.
     */
    json::Value snapshot() const;

  private:
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    std::set<std::string> claimedScopes;
};

} // namespace obs
} // namespace treadmill

#endif // TREADMILL_OBS_METRICS_H_
