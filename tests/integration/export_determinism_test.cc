/** @file Byte-identical export determinism: every serialized
 *  observability artifact -- span JSON, Chrome traces, telemetry CSV,
 *  decomposition CSV, and the metrics snapshot -- must be identical
 *  whether the runs executed serially or fanned across threads. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.h"
#include "exec/parallel_runner.h"
#include "fault/plan.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "util/json.h"

namespace treadmill {
namespace core {
namespace {

ExperimentParams
tracedParams(std::uint32_t backends, std::uint64_t seed)
{
    ExperimentParams p;
    if (backends > 0) {
        p.kind = WorkloadKind::Mcrouter;
        p.cluster.backends = backends;
        p.cluster.replication = 2;
    }
    p.targetUtilization = 0.4;
    p.collector.warmUpSamples = 50;
    p.collector.calibrationSamples = 50;
    p.collector.measurementSamples = 400;
    p.trace.enabled = true;
    p.telemetry.enabled = true;
    p.telemetry.periodUs = 500.0;
    p.resilience.enabled = true;
    p.resilience.hedge = true;
    p.resilience.hedgeDelayUs = 2'000.0;
    p.seed = seed;
    p.deadline = seconds(5);
    return p;
}

/** Serialize every export of one result into a single byte string. */
std::string
exportsOf(const ExperimentResult &r)
{
    std::string all;
    all += obs::spanJson(r.spans);
    all += obs::chromeSpanJson(r.spans, r.faultWindows);
    all += obs::chromeSpanJson(r.spans, r.faultWindows, &r.telemetry);
    all += obs::telemetryCsv(r.telemetry);
    all += obs::decompositionCsv(r.spans);
    all += r.metrics.dump();
    return all;
}

void
expectByteIdenticalAcrossThreads(std::uint32_t backends)
{
    std::vector<ExperimentParams> runs;
    for (std::uint64_t i = 0; i < 4; ++i)
        runs.push_back(tracedParams(backends, 31 + 17 * i));

    const auto serial =
        runExperiments(runs, exec::Parallelism::serial());
    const auto threaded =
        runExperiments(runs, exec::Parallelism{4});
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_FALSE(serial[i].spans.empty()) << "run " << i;
        ASSERT_GT(serial[i].telemetry.ticks(), 0u) << "run " << i;
        // Byte-for-byte: the exports embed every stamp, so any
        // trajectory divergence would surface here.
        EXPECT_EQ(exportsOf(serial[i]), exportsOf(threaded[i]))
            << "run " << i;
    }
}

TEST(ExportDeterminismTest, ClusterRunExportsAreByteIdentical)
{
    expectByteIdenticalAcrossThreads(4);
}

TEST(ExportDeterminismTest, SingleBackendExportsAreByteIdentical)
{
    expectByteIdenticalAcrossThreads(0);
}

TEST(ExportDeterminismTest, ClusterSpanExportsAreCanonicalJson)
{
    // Streamed exports must be byte-identical to the document model's
    // canonical dump of the same content.
    ExperimentParams p = tracedParams(4, 53);
    p.faultPlan = fault::FaultPlan::fromJson(json::parse(R"({"events": [
        {"kind": "server_stall", "backend": 1, "start_ms": 1,
         "duration_ms": 0.5, "period_ms": 5, "repeat": 4}]})"));
    const auto r = runExperiment(p);
    ASSERT_FALSE(r.spans.empty());
    ASSERT_FALSE(r.faultWindows.empty());
    const std::string spans = obs::spanJson(r.spans);
    const std::string lanes = obs::chromeSpanJson(r.spans, r.faultWindows);
    const std::string full =
        obs::chromeSpanJson(r.spans, r.faultWindows, &r.telemetry);
    EXPECT_EQ(json::parse(spans).dump(), spans);
    EXPECT_EQ(json::parse(lanes).dump(), lanes);
    EXPECT_EQ(json::parse(full).dump(), full);
}

TEST(ExportDeterminismTest, ObservabilityDoesNotPerturbTheRun)
{
    // Spans + telemetry on vs fully off: the measured latencies and
    // the metrics snapshot must not move at all.
    ExperimentParams on = tracedParams(4, 77);
    ExperimentParams off = on;
    off.trace.enabled = false;
    off.telemetry.enabled = false;
    const auto a = runExperiment(on);
    const auto b = runExperiment(off);
    EXPECT_EQ(a.groundTruthUs, b.groundTruthUs);
    EXPECT_EQ(a.backendServed, b.backendServed);
    EXPECT_EQ(a.aggregatedQuantile(0.99, AggregationKind::PerInstance),
              b.aggregatedQuantile(0.99, AggregationKind::PerInstance));
    EXPECT_TRUE(b.spans.empty());
    EXPECT_EQ(b.telemetry.ticks(), 0u);
}

} // namespace
} // namespace core
} // namespace treadmill
