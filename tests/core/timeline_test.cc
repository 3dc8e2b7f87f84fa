/**
 * @file
 * Integration tests for request tracing through a full experiment:
 * span completeness, exact decomposition, the pinned decomposition
 * CSV, capture diagnostics, and determinism of the metrics snapshot
 * under parallel execution.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/report.h"
#include "core/experiment.h"
#include "fault/plan.h"
#include "obs/span.h"
#include "util/checksum.h"
#include "util/json.h"

namespace treadmill {
namespace core {
namespace {

ExperimentParams
tracedParams(std::uint64_t seed = 17)
{
    ExperimentParams p;
    p.targetUtilization = 0.5;
    p.collector.warmUpSamples = 200;
    p.collector.calibrationSamples = 200;
    p.collector.measurementSamples = 1200;
    p.seed = seed;
    p.trace.enabled = true;
    return p;
}

/** Classic Memcached with timeouts, retries and hedging on. */
ExperimentParams
resilientParams()
{
    ExperimentParams p = tracedParams(19);
    p.resilience.enabled = true;
    p.resilience.timeoutUs = 300.0;
    p.resilience.maxRetries = 2;
    p.resilience.hedge = true;
    p.resilience.hedgeDelayUs = 150.0;
    return p;
}

/** A hedged, retrying 4-shard cluster with a periodically stalled
 *  shard. */
ExperimentParams
stalledClusterParams()
{
    ExperimentParams p;
    p.kind = WorkloadKind::Mcrouter;
    p.targetUtilization = 0.5;
    p.collector.warmUpSamples = 100;
    p.collector.calibrationSamples = 100;
    p.collector.measurementSamples = 800;
    p.seed = 29;
    p.deadline = seconds(2);
    p.cluster.backends = 4;
    p.cluster.replication = 2;
    p.resilience.enabled = true;
    p.resilience.timeoutUs = 1000.0;
    p.resilience.maxRetries = 2;
    p.resilience.hedge = true;
    p.resilience.hedgeDelayUs = 500.0;
    fault::FaultEvent stall;
    stall.kind = fault::FaultKind::ServerStall;
    stall.backend = 2;
    stall.start = milliseconds(2);
    stall.duration = milliseconds(3);
    stall.period = milliseconds(10);
    stall.repeatCount = 20;
    p.faultPlan.events.push_back(stall);
    p.trace.enabled = true;
    return p;
}

TEST(TimelineTest, EverySpanIsComplete)
{
    const auto result = runExperiment(tracedParams());
    ASSERT_FALSE(result.spans.empty());
    // intendedSend <= triggerAt <= clientSend <= nicArrival <=
    // workerStart <= workerEnd <= nicDeparture <= clientNicArrival <=
    // clientReceive for every completed request the recorder sampled.
    for (const obs::SpanTrace &s : result.spans)
        ASSERT_TRUE(obs::spanComplete(s)) << "request " << s.logicalSeqId;
}

TEST(TimelineTest, DecompositionSumsMatchEndToEnd)
{
    for (const auto &params : {tracedParams(), resilientParams()}) {
        const auto result = runExperiment(params);
        ASSERT_FALSE(result.spans.empty());
        for (const obs::SpanTrace &s : result.spans) {
            // Integer-ns stamps telescope exactly.
            obs::CriticalPath path;
            ASSERT_TRUE(obs::extractCriticalPath(s, path));
            EXPECT_EQ(path.totalNs(), s.clientReceive - s.intendedSend);
            const obs::Decomposition d = obs::Decomposition::of(s);
            EXPECT_NEAR(d.totalUs(), d.endToEndUs, 1e-6);
        }
    }
}

TEST(TimelineTest, DecompositionCsvIsPinned)
{
    // The decomposition CSV of three traced runs, pinned to the bytes
    // the flat per-request trace recorder produced before the span
    // tree became the only record of request timing. The resilient
    // and cluster runs carry hundreds of retried or hedged requests,
    // so the winner's pre-win wait is exercised too.
    const auto csvHash = [](const ExperimentParams &params) {
        const auto result = runExperiment(params);
        EXPECT_FALSE(result.deadlineHit);
        return fnv1a64(obs::decompositionCsv(result.spans));
    };
    EXPECT_EQ(csvHash(tracedParams()), 0x9270163253851117ull);
    EXPECT_EQ(csvHash(resilientParams()), 0xc623afa4b398fab3ull);
    EXPECT_EQ(csvHash(stalledClusterParams()), 0x632e4399d4ce40d5ull);
}

TEST(TimelineTest, DecompositionReportCoversFullPath)
{
    const auto result = runExperiment(tracedParams());
    const auto report = analysis::decomposeTraces(result.spans);
    ASSERT_EQ(report.components.size(), 8u);
    EXPECT_EQ(report.requestCount, result.spans.size());
    double meanSum = 0.0;
    for (const auto &component : report.components)
        meanSum += component.meanUs;
    EXPECT_NEAR(meanSum, report.endToEndMeanUs,
                1e-6 * report.endToEndMeanUs);
    // The fixed 30 us kernel delay lives in "client deliver", so it
    // must be a visible component at moderate load.
    EXPECT_GT(report.components.back().meanUs, 25.0);
}

TEST(TimelineTest, SamplingThinsDeterministically)
{
    auto every = tracedParams();
    auto fourth = tracedParams();
    fourth.trace.sampleEvery = 4;
    const auto all = runExperiment(every);
    const auto sampled = runExperiment(fourth);
    ASSERT_FALSE(sampled.spans.empty());
    // Sampling is by completion order: ~1/4 of the spans, and every
    // sampled span appears in the full set with identical stamps.
    EXPECT_NEAR(static_cast<double>(sampled.spans.size()),
                static_cast<double>(all.spans.size()) / 4.0,
                static_cast<double>(all.spans.size()) * 0.05);
    const obs::SpanTrace &probe = sampled.spans.front();
    const auto match = std::find_if(
        all.spans.begin(), all.spans.end(),
        [&probe](const obs::SpanTrace &s) {
            return s.logicalSeqId == probe.logicalSeqId &&
                   s.clientIndex == probe.clientIndex;
        });
    ASSERT_NE(match, all.spans.end());
    EXPECT_EQ(match->clientReceive, probe.clientReceive);
    EXPECT_EQ(match->winning().workerStart,
              probe.winning().workerStart);
}

TEST(TimelineTest, TracingDoesNotPerturbTheRun)
{
    auto off = tracedParams();
    off.trace.enabled = false;
    const auto traced = runExperiment(tracedParams());
    const auto plain = runExperiment(off);
    EXPECT_TRUE(plain.spans.empty());
    EXPECT_EQ(traced.groundTruthUs, plain.groundTruthUs);
    EXPECT_EQ(
        traced.aggregatedQuantile(0.99, AggregationKind::PerInstance),
        plain.aggregatedQuantile(0.99, AggregationKind::PerInstance));
}

TEST(TimelineTest, CaptureDiagnosticsAreClean)
{
    const auto result = runExperiment(tracedParams());
    // The capture matched every response; whatever was in flight at
    // the end is bounded by teardown residue, not leak-sized.
    EXPECT_EQ(result.captureUnmatchedResponses, 0u);
    EXPECT_FALSE(result.deadlineHit);
    EXPECT_LT(result.captureOutstanding, 1000u);
}

TEST(TimelineTest, MetricsSnapshotPresentAndSane)
{
    const auto result = runExperiment(tracedParams());
    ASSERT_TRUE(result.metrics.isObject());
    const json::Value &counters = result.metrics.at("counters");
    EXPECT_GT(counters.at("sim.events_executed").asInt(), 0);
    EXPECT_GT(counters.at("server.served").asInt(), 0);
    EXPECT_GT(counters.at("client0.issued").asInt(), 0);
    const json::Value &hists = result.metrics.at("histograms");
    EXPECT_GT(hists.at("server.service_us").at("count").asInt(), 0);
    EXPECT_GE(hists.at("server.queue_wait_us").at("p99").asNumber(),
              0.0);
}

TEST(TimelineTest, MetricsAreBitExactAcrossThreadCounts)
{
    std::vector<ExperimentParams> runs;
    for (std::uint64_t seed = 21; seed < 25; ++seed)
        runs.push_back(tracedParams(seed));

    const auto serial =
        runExperiments(runs, exec::Parallelism{1});
    const auto parallel =
        runExperiments(runs, exec::Parallelism{4});
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        // Registry is per-Simulation (seed-isolated), so the full
        // snapshot -- every counter, gauge, and histogram -- is
        // identical regardless of the thread count.
        EXPECT_EQ(serial[i].metrics.dump(),
                  parallel[i].metrics.dump());
        ASSERT_EQ(serial[i].spans.size(), parallel[i].spans.size());
        for (std::size_t t = 0; t < serial[i].spans.size(); ++t)
            EXPECT_EQ(serial[i].spans[t].clientReceive,
                      parallel[i].spans[t].clientReceive);
    }
}

} // namespace
} // namespace core
} // namespace treadmill
