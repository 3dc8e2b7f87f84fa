/** @file Integration tests for the full measurement procedure. */

#include "core/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "stats/summary.h"

namespace treadmill {
namespace core {
namespace {

ExperimentParams
quickParams(double utilization)
{
    ExperimentParams p;
    p.targetUtilization = utilization;
    p.collector.warmUpSamples = 200;
    p.collector.calibrationSamples = 200;
    p.collector.measurementSamples = 1500;
    p.seed = 11;
    return p;
}

TEST(ExperimentTest, DeriveRequestRateScalesWithUtilization)
{
    const double low = deriveRequestRate(quickParams(0.1));
    const double high = deriveRequestRate(quickParams(0.8));
    EXPECT_GT(low, 0.0);
    EXPECT_NEAR(high / low, 8.0, 0.01);
}

TEST(ExperimentTest, ExplicitRateOverridesUtilization)
{
    auto p = quickParams(0.5);
    p.requestsPerSecond = 12345.0;
    EXPECT_DOUBLE_EQ(deriveRequestRate(p), 12345.0);
}

TEST(ExperimentTest, HighLoadRunReachesTargets)
{
    // Pin the governor for a predictable service rate.
    auto p = quickParams(0.7);
    p.config.dvfs = hw::DvfsGovernor::Performance;
    const auto result = runExperiment(p);

    EXPECT_EQ(result.instancesAtTarget(), 8u);
    EXPECT_NEAR(result.serverUtilization, 0.7, 0.08);
    EXPECT_NEAR(result.achievedRps / result.targetRps, 1.0, 0.1);
    EXPECT_FALSE(result.groundTruthUs.empty());
}

TEST(ExperimentTest, GroundTruthBelowClientMeasurement)
{
    const auto result = runExperiment(quickParams(0.3));
    const double clientP50 =
        result.aggregatedQuantile(0.5, AggregationKind::PerInstance);
    const double gtP50 = stats::quantile(result.groundTruthUs, 0.5);
    // Client view adds kernel (30 us) + client + network time.
    EXPECT_GT(clientP50, gtP50 + 25.0);
    EXPECT_LT(clientP50, gtP50 + 60.0);
}

TEST(ExperimentTest, TailGrowsWithUtilization)
{
    auto lowP = quickParams(0.15);
    auto highP = quickParams(0.75);
    lowP.config.dvfs = hw::DvfsGovernor::Performance;
    highP.config.dvfs = hw::DvfsGovernor::Performance;
    const auto low = runExperiment(lowP);
    const auto high = runExperiment(highP);
    EXPECT_GT(high.aggregatedQuantile(0.99, AggregationKind::PerInstance),
              low.aggregatedQuantile(0.99, AggregationKind::PerInstance));
    // The spread between P99 and P50 widens with load (queueing).
    const double spreadLow =
        low.aggregatedQuantile(0.99, AggregationKind::PerInstance) -
        low.aggregatedQuantile(0.5, AggregationKind::PerInstance);
    const double spreadHigh =
        high.aggregatedQuantile(0.99, AggregationKind::PerInstance) -
        high.aggregatedQuantile(0.5, AggregationKind::PerInstance);
    EXPECT_GT(spreadHigh, spreadLow * 1.5);
}

TEST(ExperimentTest, OpenLoopSeesMoreOutstandingThanClosedLoop)
{
    auto openP = quickParams(0.75);
    openP.config.dvfs = hw::DvfsGovernor::Performance;

    auto closedP = openP;
    closedP.tester = mutilateSpec();
    closedP.tester.connectionsPerClient = 4;

    const auto open = runExperiment(openP);
    const auto closed = runExperiment(closedP);

    const auto maxOutstanding = [](const ExperimentResult &r) {
        std::uint64_t m = 0;
        for (const auto &inst : r.instances)
            if (!inst.outstandingAtSend.empty())
                m = std::max<std::uint64_t>(
                    m, inst.outstandingAtSend.size() - 1);
        return m;
    };
    EXPECT_GT(maxOutstanding(open), maxOutstanding(closed));
    // Closed loop caps at the slot count.
    EXPECT_LT(maxOutstanding(closed), 4u);
}

TEST(ExperimentTest, ClosedLoopUnderestimatesTail)
{
    auto openP = quickParams(0.75);
    openP.config.dvfs = hw::DvfsGovernor::Performance;
    auto closedP = openP;
    closedP.tester = mutilateSpec();
    closedP.tester.connectionsPerClient = 4;

    const auto open = runExperiment(openP);
    const auto closed = runExperiment(closedP);
    // The paper's Fig 6: the closed-loop tester reports a lower P99
    // than the open-loop tester driving the same nominal load.
    EXPECT_LT(
        closed.aggregatedQuantile(0.99, AggregationKind::Holistic),
        open.aggregatedQuantile(0.99, AggregationKind::PerInstance));
}

TEST(ExperimentTest, SingleClientSuffersClientSideQueueing)
{
    // Drive a load the single client machine cannot sustain: 0.88
    // server utilization needs ~290k RPS, and at 2+2 us of client CPU
    // per request that exceeds one client machine's capacity.
    auto multi = quickParams(0.88);
    multi.config.dvfs = hw::DvfsGovernor::Performance;
    multi.clientSendCostUs = 2.0;
    multi.clientReceiveCostUs = 2.0;

    auto single = multi;
    single.tester = cloudSuiteSpec();
    single.tester.loop = ControlLoop::OpenLoop; // isolate client count
    single.collector.measurementSamples = 1500;

    const auto multiR = runExperiment(multi);
    const auto singleR = runExperiment(single);

    // All client CPUs lightly used with 8 machines; saturated with 1.
    double multiMaxCpu = 0.0;
    for (const auto &inst : multiR.instances)
        multiMaxCpu = std::max(multiMaxCpu, inst.cpuUtilization);
    EXPECT_LT(multiMaxCpu, 0.3);
    EXPECT_GT(singleR.instances[0].cpuUtilization, 0.85);

    // And the single client's measured latency is inflated.
    EXPECT_GT(singleR.clientComponentUs.mean(),
              multiR.clientComponentUs.mean() * 2.0);
}

TEST(ExperimentTest, RemoteRackClientDominatesMergedTail)
{
    auto p = quickParams(0.4);
    p.config.dvfs = hw::DvfsGovernor::Performance;
    p.tester.clientMachines = 4;
    p.oneRemoteRackClient = true;
    const auto result = runExperiment(p);

    ASSERT_TRUE(result.instances[0].remoteRack);
    // Count whose samples exceed the merged P95: the remote client
    // should be heavily over-represented (Fig 2).
    auto merged = result.mergedSamples();
    const double p95 = stats::quantile(merged, 0.95);
    std::size_t remoteAbove = 0;
    std::size_t totalAbove = 0;
    for (std::size_t i = 0; i < result.instances.size(); ++i) {
        for (double v : result.instances[i].rawSamples) {
            if (v > p95) {
                ++totalAbove;
                remoteAbove += result.instances[i].remoteRack ? 1 : 0;
            }
        }
    }
    ASSERT_GT(totalAbove, 0u);
    EXPECT_GT(static_cast<double>(remoteAbove) /
                  static_cast<double>(totalAbove),
              0.6);

    // Per-instance aggregation is robust to the outlier client:
    // holistic P99 exceeds the per-instance mean.
    EXPECT_GT(result.aggregatedQuantile(0.99, AggregationKind::Holistic),
              result.aggregatedQuantile(0.99,
                                        AggregationKind::PerInstance));
}

TEST(ExperimentTest, McrouterWorkloadRuns)
{
    auto p = quickParams(0.5);
    p.kind = WorkloadKind::Mcrouter;
    p.config.dvfs = hw::DvfsGovernor::Performance;
    const auto result = runExperiment(p);
    EXPECT_EQ(result.instancesAtTarget(), 8u);
    // Router latency includes the backend round trip (~20 us mean).
    EXPECT_GT(stats::quantile(result.groundTruthUs, 0.5), 20.0);
}

TEST(ExperimentTest, DeterministicForSameSeed)
{
    const auto a = runExperiment(quickParams(0.5));
    const auto b = runExperiment(quickParams(0.5));
    EXPECT_EQ(a.aggregatedQuantile(0.99, AggregationKind::PerInstance),
              b.aggregatedQuantile(0.99, AggregationKind::PerInstance));
    EXPECT_EQ(a.groundTruthUs, b.groundTruthUs);
}

TEST(ExperimentTest, DifferentSeedsShowHysteresis)
{
    // Different run seeds (fresh placements) converge to different
    // values even with identical configuration (Fig 4).
    std::vector<double> p99s;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        auto p = quickParams(0.7);
        p.seed = seed * 1000;
        p99s.push_back(runExperiment(p).aggregatedQuantile(
            0.99, AggregationKind::PerInstance));
    }
    const double spread =
        *std::max_element(p99s.begin(), p99s.end()) -
        *std::min_element(p99s.begin(), p99s.end());
    EXPECT_GT(spread / stats::mean(p99s), 0.03);
}

TEST(ExperimentTest, RepeatedProcedureConverges)
{
    ProcedureParams pp;
    pp.base = quickParams(0.6);
    pp.base.collector.measurementSamples = 800;
    pp.minRuns = 4;
    pp.maxRuns = 20;
    pp.tolerance = 0.05;
    const auto result = repeatedProcedure(pp);
    EXPECT_GE(result.runs, 4u);
    EXPECT_GT(result.mean, 0.0);
    EXPECT_EQ(result.perRunMetric.size(), result.runs);
    EXPECT_TRUE(result.converged);
}

TEST(ExperimentTest, LatencyDecompositionIsConsistent)
{
    auto p = quickParams(0.5);
    p.config.dvfs = hw::DvfsGovernor::Performance;
    const auto result = runExperiment(p);
    ASSERT_GT(result.serverComponentUs.count(), 0u);
    // Components are non-negative and the server is the largest chunk
    // beyond the fixed kernel delay at moderate load.
    EXPECT_GT(result.serverComponentUs.mean(), 0.0);
    EXPECT_GT(result.networkComponentUs.mean(), 0.0);
    EXPECT_GE(result.clientComponentUs.mean(), 0.0);
}

} // namespace
} // namespace core
} // namespace treadmill
