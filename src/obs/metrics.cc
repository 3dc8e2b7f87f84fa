#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/error.h"
#include "util/strings.h"

namespace treadmill {
namespace obs {

int
Histogram::bucketFor(double value)
{
    if (!(value > 0.0))
        return 0; // zero, negative, NaN
    // A normal value = 1.f * 2^(e - 1023), which frexp writes as
    // (0.5 + f/2) * 2^(e - 1022); the sub-bucket (f/2 * 8) is the top
    // two fraction bits. So bits >> 50 is 4 * e + sub (the sign bit is
    // 0), and the index is that shifted by the range's lower exponent.
    // Subnormals (e = 0) land below the range and +inf (e = 0x7FF)
    // above it, so the clamp sends them to the edge buckets.
    static_assert(kSubBuckets == 4, "two fraction bits per octave");
    const auto bits = std::bit_cast<std::uint64_t>(value);
    const int idx =
        static_cast<int>(bits >> 50) - (1022 + kMinExp) * kSubBuckets;
    return std::clamp(idx, 0, kBucketCount - 1);
}

double
Histogram::bucketMid(int idx)
{
    const int exp = idx / kSubBuckets + kMinExp;
    const int sub = idx % kSubBuckets;
    const double lo =
        std::ldexp(0.5 + static_cast<double>(sub) /
                             (2.0 * kSubBuckets),
                   exp);
    const double hi =
        std::ldexp(0.5 + static_cast<double>(sub + 1) /
                             (2.0 * kSubBuckets),
                   exp);
    return 0.5 * (lo + hi);
}

void
Histogram::record(double value)
{
    if (value < 0.0)
        value = 0.0;
    if (observations == 0) {
        minSeen = value;
        maxSeen = value;
    } else {
        minSeen = std::min(minSeen, value);
        maxSeen = std::max(maxSeen, value);
    }
    ++observations;
    total += value;
    ++buckets[static_cast<std::size_t>(bucketFor(value))];
}

double
Histogram::mean() const
{
    if (observations == 0)
        return 0.0;
    return total / static_cast<double>(observations);
}

double
Histogram::quantile(double q) const
{
    if (q < 0.0 || q > 1.0)
        throw ConfigError("quantile must be in [0, 1]");
    if (observations == 0)
        return 0.0;

    // Rank of the q-quantile observation (1-based, nearest-rank).
    const auto rank = static_cast<std::uint64_t>(std::max(
        1.0, std::ceil(q * static_cast<double>(observations))));
    std::uint64_t cumulative = 0;
    for (int idx = 0; idx < kBucketCount; ++idx) {
        cumulative += buckets[static_cast<std::size_t>(idx)];
        if (cumulative >= rank)
            return std::clamp(bucketMid(idx), minSeen, maxSeen);
    }
    return maxSeen;
}

namespace {

/** Find-or-create in one of the registry's maps. */
template <typename T>
T &
findOrCreate(std::map<std::string, std::unique_ptr<T>> &metrics,
             const std::string &name)
{
    if (name.empty())
        throw ConfigError("metric name must not be empty");
    auto it = metrics.find(name);
    if (it == metrics.end())
        it = metrics.emplace(name, std::make_unique<T>()).first;
    return *it->second;
}

} // namespace

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return findOrCreate(counters, name);
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return findOrCreate(gauges, name);
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    return findOrCreate(histograms, name);
}

void
MetricsRegistry::claimScope(const std::string &scope)
{
    if (scope.empty())
        throw ConfigError("metric scope must not be empty");
    if (!claimedScopes.insert(scope).second)
        throw ConfigError(strprintf(
            "metric scope \"%s\" already claimed: two components are "
            "registering metrics under the same prefix",
            scope.c_str()));
}

std::size_t
MetricsRegistry::size() const
{
    return counters.size() + gauges.size() + histograms.size();
}

json::Value
MetricsRegistry::snapshot() const
{
    json::Object doc;

    json::Object counterObj;
    for (const auto &[name, metric] : counters)
        counterObj[name] =
            json::Value(static_cast<std::int64_t>(metric->value()));
    doc["counters"] = json::Value(std::move(counterObj));

    json::Object gaugeObj;
    for (const auto &[name, metric] : gauges)
        gaugeObj[name] = json::Value(metric->value());
    doc["gauges"] = json::Value(std::move(gaugeObj));

    json::Object histObj;
    for (const auto &[name, metric] : histograms) {
        json::Object h;
        h["count"] = json::Value(
            static_cast<std::int64_t>(metric->count()));
        h["sum"] = json::Value(metric->sum());
        h["mean"] = json::Value(metric->mean());
        h["min"] = json::Value(metric->min());
        h["max"] = json::Value(metric->max());
        h["p50"] = json::Value(metric->quantile(0.5));
        h["p90"] = json::Value(metric->quantile(0.9));
        h["p99"] = json::Value(metric->quantile(0.99));
        h["p999"] = json::Value(metric->quantile(0.999));
        histObj[name] = json::Value(std::move(h));
    }
    doc["histograms"] = json::Value(std::move(histObj));
    return json::Value(std::move(doc));
}

} // namespace obs
} // namespace treadmill
