/** @file Unit tests for the deterministic sim-time telemetry sampler
 *  and its exports. */

#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include "obs/span.h"
#include "util/error.h"
#include "util/json.h"

namespace treadmill {
namespace obs {
namespace {

TelemetryConfig
enabledConfig(double periodUs = 100.0, std::size_t maxSamples = 1000)
{
    TelemetryConfig cfg;
    cfg.enabled = true;
    cfg.periodUs = periodUs;
    cfg.maxSamples = maxSamples;
    return cfg;
}

TEST(TelemetryTest, DisabledSamplerRecordsNothing)
{
    TelemetrySampler sampler;
    double value = 1.0;
    sampler.addProbe("gauge", [&value] { return value; });
    sampler.sample(1'000);
    sampler.sample(2'000);
    EXPECT_FALSE(sampler.enabled());
    EXPECT_EQ(sampler.series().ticks(), 0u);
}

TEST(TelemetryTest, RejectsNonPositivePeriod)
{
    TelemetryConfig cfg = enabledConfig(0.0);
    EXPECT_THROW(TelemetrySampler{cfg}, ConfigError);
}

TEST(TelemetryTest, SamplesAlignedColumns)
{
    TelemetrySampler sampler(enabledConfig());
    double a = 1.0;
    double b = 10.0;
    sampler.addProbe("a", [&a] { return a; });
    sampler.addProbe("b", [&b] { return b; });

    sampler.sample(microseconds(100));
    a = 2.0;
    b = 20.0;
    sampler.sample(microseconds(200));

    const TelemetrySeries &s = sampler.series();
    ASSERT_EQ(s.ticks(), 2u);
    ASSERT_EQ(s.probes.size(), 2u);
    EXPECT_EQ(s.values[0][0], 1.0);
    EXPECT_EQ(s.values[0][1], 2.0);
    EXPECT_EQ(s.values[1][0], 10.0);
    EXPECT_EQ(s.values[1][1], 20.0);
    EXPECT_EQ(sampler.period(),
              static_cast<SimDuration>(microseconds(100.0)));
}

TEST(TelemetryTest, StopsAtTheSampleCap)
{
    TelemetrySampler sampler(enabledConfig(100.0, 2));
    sampler.addProbe("g", [] { return 0.0; });
    sampler.sample(1);
    EXPECT_FALSE(sampler.full());
    sampler.sample(2);
    EXPECT_TRUE(sampler.full());
    sampler.sample(3); // Ignored: the cap is a hard stop.
    EXPECT_EQ(sampler.series().ticks(), 2u);
}

TEST(TelemetryTest, ProbesLockedOnceSampling)
{
    TelemetrySampler sampler(enabledConfig());
    sampler.addProbe("g", [] { return 0.0; });
    sampler.sample(1);
    EXPECT_THROW(sampler.addProbe("late", [] { return 0.0; }),
                 ConfigError);
}

TEST(TelemetryTest, TakeSeriesPreservesColumnsForResume)
{
    TelemetrySampler sampler(enabledConfig());
    sampler.addProbe("g", [] { return 4.0; });
    sampler.sample(1);
    const TelemetrySeries taken = sampler.takeSeries();
    ASSERT_EQ(taken.ticks(), 1u);
    EXPECT_EQ(taken.probes.size(), 1u);
    // The sampler keeps its columns and can keep sampling.
    EXPECT_EQ(sampler.series().ticks(), 0u);
    sampler.sample(2);
    ASSERT_EQ(sampler.series().ticks(), 1u);
    EXPECT_EQ(sampler.series().values[0][0], 4.0);
}

TEST(TelemetryTest, CsvShape)
{
    TelemetrySampler sampler(enabledConfig());
    sampler.addProbe("queue_depth", [] { return 3.0; });
    sampler.addProbe("inflight", [] { return 2.5; });
    sampler.sample(microseconds(100));
    sampler.sample(microseconds(200));

    const std::string csv = telemetryCsv(sampler.series());
    EXPECT_EQ(csv.rfind("time_us,queue_depth,inflight\n", 0), 0u);
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, 3u); // Header + one row per tick.
    EXPECT_NE(csv.find("100.000,3.000,2.500"), std::string::npos);
}

TEST(TelemetryTest, ChromeCounterEventsShape)
{
    TelemetrySampler sampler(enabledConfig());
    sampler.addProbe("g", [] { return 7.0; });
    sampler.sample(microseconds(100));
    sampler.sample(microseconds(200));

    const std::string text = chromeSpanJson({}, {}, &sampler.series());
    // Streamed text with gauges is the document model's canonical dump.
    EXPECT_EQ(json::parse(text).dump(), text);
    const json::Value doc = json::parse(text);
    const json::Array &events = doc.at("traceEvents").asArray();
    // One process_name record + one counter event per probe per tick.
    ASSERT_EQ(events.size(), 1u + 2u);
    EXPECT_EQ(events[0].at("ph").asString(), "M");
    EXPECT_EQ(events[0].at("pid").asInt(), -2);
    EXPECT_EQ(events[0].at("args").at("name").asString(), "telemetry");
    for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_EQ(events[i].at("ph").asString(), "C");
        EXPECT_EQ(events[i].at("pid").asInt(), -2);
        EXPECT_EQ(events[i].at("name").asString(), "g");
        EXPECT_EQ(events[i].at("args").at("value").asNumber(), 7.0);
    }
    EXPECT_EQ(events[2].at("ts").asNumber(), 200.0);
}

TEST(TelemetryTest, EmptySeriesAppendsNoEvents)
{
    const TelemetrySeries empty;
    EXPECT_EQ(chromeSpanJson({}, {}, &empty), chromeSpanJson({}));
}

} // namespace
} // namespace obs
} // namespace treadmill
