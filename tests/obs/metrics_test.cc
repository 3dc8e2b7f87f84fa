/** @file Unit tests for the metrics registry. */

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include "util/error.h"
#include "util/json.h"
#include "util/rng.h"

namespace treadmill {
namespace obs {
namespace {

TEST(MetricsTest, CounterAccumulates)
{
    MetricsRegistry registry;
    Counter &c = registry.counter("requests");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsTest, GaugeSetAndAdd)
{
    MetricsRegistry registry;
    Gauge &g = registry.gauge("depth");
    g.set(3.0);
    g.add(-1.0);
    EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(MetricsTest, SameNameReturnsSameMetric)
{
    MetricsRegistry registry;
    Counter &a = registry.counter("x");
    a.add(7);
    Counter &b = registry.counter("x");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 7u);
    // Kinds are independent namespaces.
    registry.gauge("x").set(1.0);
    EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsTest, EmptyNameThrows)
{
    MetricsRegistry registry;
    EXPECT_THROW(registry.counter(""), ConfigError);
}

TEST(MetricsTest, HistogramTracksExactMoments)
{
    MetricsRegistry registry;
    Histogram &h = registry.histogram("lat");
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);

    for (double v : {10.0, 20.0, 30.0, 40.0})
        h.record(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 100.0);
    EXPECT_DOUBLE_EQ(h.mean(), 25.0);
    EXPECT_DOUBLE_EQ(h.min(), 10.0);
    EXPECT_DOUBLE_EQ(h.max(), 40.0);
}

TEST(MetricsTest, HistogramQuantilesApproximate)
{
    MetricsRegistry registry;
    Histogram &h = registry.histogram("lat");
    // 1000 samples uniform on [1, 1000]: P50 ~ 500, P99 ~ 990.
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i));
    // Log-bucketed with 4 sub-buckets/octave: <= ~9% relative error.
    EXPECT_NEAR(h.quantile(0.5), 500.0, 500.0 * 0.10);
    EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 * 0.10);
    // Extremes stay clamped to the exact observed range.
    EXPECT_GE(h.quantile(0.0), h.min());
    EXPECT_LE(h.quantile(0.0), h.min() * 1.2);
    EXPECT_LE(h.quantile(1.0), h.max());
    EXPECT_GE(h.quantile(1.0), h.max() * 0.9);
}

TEST(MetricsTest, HistogramClampsNegativeAndExtremeValues)
{
    MetricsRegistry registry;
    Histogram &h = registry.histogram("odd");
    h.record(-5.0); // clamps to 0
    h.record(0.0);
    h.record(1e30); // clamps into the top bucket
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 1e30);
    EXPECT_LE(h.quantile(0.5), 1e30);
}

// A histogram's storage is inline and fixed: trivially copyable means
// no member owns heap memory, so recording more values cannot grow it.
// ExperimentResult's decomposition summaries rely on this.
static_assert(std::is_trivially_copyable_v<Histogram>);
static_assert(sizeof(Histogram) < 2048);

/** The frexp formulation Histogram::bucketFor replaced, with +inf
 *  sent to the top bucket (frexp leaves its exponent unspecified). */
int
frexpBucket(double value)
{
    if (!(value > 0.0))
        return 0;
    if (std::isinf(value))
        return Histogram::kBucketCount - 1;
    int exp = 0;
    const double mantissa = std::frexp(value, &exp); // in [0.5, 1)
    const int sub = static_cast<int>((mantissa - 0.5) *
                                     (2.0 * Histogram::kSubBuckets));
    const int idx = (exp - Histogram::kMinExp) * Histogram::kSubBuckets +
                    std::clamp(sub, 0, Histogram::kSubBuckets - 1);
    return std::clamp(idx, 0, Histogram::kBucketCount - 1);
}

TEST(MetricsTest, BucketForMatchesFrexpOnEdgeValues)
{
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> values = {
        0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1e30, -1e30,
        std::numeric_limits<double>::denorm_min(),
        DBL_MIN / 2.0, std::nextafter(DBL_MIN, 0.0), DBL_MIN,
        std::nextafter(DBL_MIN, 1.0), DBL_MAX, -DBL_MAX, inf, -inf,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
    };
    // Every bucket boundary -- including the range edges 2^-10 and
    // 2^40 -- and one ulp either side of it.
    for (int exp = Histogram::kMinExp - 1; exp <= Histogram::kMaxExp + 1;
         ++exp) {
        for (int sub = 0; sub < Histogram::kSubBuckets; ++sub) {
            const double edge = std::ldexp(
                0.5 + sub / (2.0 * Histogram::kSubBuckets), exp + 1);
            values.push_back(edge);
            values.push_back(std::nextafter(edge, 0.0));
            values.push_back(std::nextafter(edge, inf));
        }
    }
    EXPECT_NE(std::find(values.begin(), values.end(), std::ldexp(1.0, -10)),
              values.end());
    EXPECT_NE(std::find(values.begin(), values.end(), std::ldexp(1.0, 40)),
              values.end());
    for (double v : values)
        EXPECT_EQ(Histogram::bucketFor(v), frexpBucket(v)) << v;
    EXPECT_EQ(Histogram::bucketFor(inf), Histogram::kBucketCount - 1);
    EXPECT_EQ(Histogram::bucketFor(DBL_MIN), 0);
    EXPECT_EQ(Histogram::bucketFor(std::ldexp(1.0, 40)),
              Histogram::kBucketCount - 1);
}

TEST(MetricsTest, BucketForMatchesFrexpOnRandomBitPatterns)
{
    Rng rng(20240613);
    int mismatches = 0;
    for (int i = 0; i < 10'000'000; ++i) {
        const double v = std::bit_cast<double>(rng.next());
        if (Histogram::bucketFor(v) != frexpBucket(v) && ++mismatches < 5)
            ADD_FAILURE() << "bucket mismatch for " << v;
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(MetricsTest, SnapshotShape)
{
    MetricsRegistry registry;
    registry.counter("a.count").add(3);
    registry.gauge("b.depth").set(1.5);
    registry.histogram("c.lat").record(10.0);

    const json::Value snap = registry.snapshot();
    ASSERT_TRUE(snap.isObject());
    EXPECT_EQ(snap.at("counters").at("a.count").asInt(), 3);
    EXPECT_DOUBLE_EQ(snap.at("gauges").at("b.depth").asNumber(), 1.5);
    const json::Value &hist = snap.at("histograms").at("c.lat");
    EXPECT_EQ(hist.at("count").asInt(), 1);
    for (const char *key :
         {"sum", "mean", "min", "max", "p50", "p90", "p99", "p999"})
        EXPECT_TRUE(hist.contains(key)) << key;

    // Round-trips through the serializer.
    const json::Value reparsed = json::parse(snap.dump());
    EXPECT_EQ(reparsed.at("counters").at("a.count").asInt(), 3);
}

TEST(MetricsTest, SnapshotIsDeterministic)
{
    const auto build = [] {
        MetricsRegistry registry;
        registry.counter("z").add(1);
        registry.counter("a").add(2);
        registry.histogram("h").record(3.25);
        registry.gauge("g").set(-1.0);
        return registry.snapshot().dump();
    };
    EXPECT_EQ(build(), build());
}

TEST(MetricsTest, ScopeClaimsAreUnique)
{
    MetricsRegistry registry;
    registry.claimScope("server");
    registry.claimScope("backend0");
    // A second owner of "server.*" would silently merge two
    // components' metrics under one set of names.
    EXPECT_THROW(registry.claimScope("server"), ConfigError);
    EXPECT_THROW(registry.claimScope(""), ConfigError);
    // Claiming never blocks find-or-create on individual names.
    registry.counter("server.queue_wait_us").add();
}

} // namespace
} // namespace obs
} // namespace treadmill
