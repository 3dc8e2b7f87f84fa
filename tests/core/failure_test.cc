/** @file Failure-injection tests: overload, deadlines, and starved
 *  testers must degrade gracefully and report honestly. */

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/tester_spec.h"
#include "util/error.h"
#include "util/logging.h"

namespace treadmill {
namespace core {
namespace {

ExperimentParams
smallParams()
{
    ExperimentParams params;
    params.collector.warmUpSamples = 100;
    params.collector.calibrationSamples = 100;
    params.collector.measurementSamples = 1500;
    params.seed = 3;
    return params;
}

TEST(FailureTest, OverloadedServerHitsDeadlineAndReportsPartial)
{
    // Drive the server well past capacity with a short deadline: the
    // experiment must terminate, and the report must show the miss.
    setLogLevel(LogLevel::Quiet); // silence the expected warning
    ExperimentParams params = smallParams();
    params.requestsPerSecond = 5e6; // far beyond capacity
    params.collector.measurementSamples = 200000;
    params.deadline = milliseconds(50);
    const auto result = runExperiment(params);
    setLogLevel(LogLevel::Warn);

    EXPECT_EQ(result.simulatedTime, milliseconds(50));
    EXPECT_LT(result.achievedRps, params.requestsPerSecond * 0.5);
    EXPECT_LT(result.instancesAtTarget(), 8u);
}

TEST(FailureTest, SaturatedClientCannotReachTargetRate)
{
    // A single client machine with realistic costs cannot push the
    // high-load rate; achieved throughput reports the shortfall.
    ExperimentParams params = smallParams();
    params.targetUtilization = 0.8;
    params.tester = cloudSuiteSpec();
    params.tester.loop = ControlLoop::OpenLoop;
    params.clientSendCostUs = 4.0;
    params.clientReceiveCostUs = 4.0;
    params.deadline = seconds(5);
    setLogLevel(LogLevel::Quiet);
    const auto result = runExperiment(params);
    setLogLevel(LogLevel::Warn);
    EXPECT_LT(result.achievedRps, result.targetRps * 0.7);
}

TEST(FailureTest, UndersizedClosedLoopThrottlesInsteadOfDiverging)
{
    // Rate-limited closed loop with one slot: throughput is bounded
    // by 1/RTT, the experiment still completes, nothing diverges.
    ExperimentParams params = smallParams();
    params.targetUtilization = 0.7;
    params.tester = mutilateSpec();
    params.tester.connectionsPerClient = 1;
    params.collector.measurementSamples = 800;
    params.deadline = seconds(10);
    setLogLevel(LogLevel::Quiet);
    const auto result = runExperiment(params);
    setLogLevel(LogLevel::Warn);
    EXPECT_GT(result.achievedRps, 0.0);
    EXPECT_LT(result.achievedRps, result.targetRps);
    // Outstanding never exceeded the single slot per instance.
    for (const auto &inst : result.instances)
        EXPECT_LE(inst.outstandingAtSend.size(), 1u);
}

TEST(FailureTest, SingleInstanceExperimentWorks)
{
    ExperimentParams params = smallParams();
    params.tester.clientMachines = 1;
    params.targetUtilization = 0.3;
    const auto result = runExperiment(params);
    EXPECT_EQ(result.instances.size(), 1u);
    EXPECT_EQ(result.instancesAtTarget(), 1u);
    EXPECT_NO_THROW(result.aggregatedQuantile(
        0.99, AggregationKind::PerInstance));
}

TEST(FailureTest, TinyMeasurementTargetStillProducesQuantiles)
{
    ExperimentParams params = smallParams();
    params.collector.warmUpSamples = 5;
    params.collector.calibrationSamples = 10;
    params.collector.measurementSamples = 20;
    params.targetUtilization = 0.3;
    const auto result = runExperiment(params);
    EXPECT_EQ(result.instancesAtTarget(), 8u);
    EXPECT_GT(result.aggregatedQuantile(
                  0.5, AggregationKind::PerInstance),
              0.0);
}

TEST(FailureTest, ZeroClientsRejected)
{
    ExperimentParams params = smallParams();
    params.tester.clientMachines = 0;
    EXPECT_THROW(runExperiment(params), ConfigError);
}

TEST(FailureTest, HolisticAggregationOnPartialDataStillWorks)
{
    setLogLevel(LogLevel::Quiet);
    ExperimentParams params = smallParams();
    params.requestsPerSecond = 4e6;
    params.collector.measurementSamples = 100000;
    params.deadline = milliseconds(30);
    const auto result = runExperiment(params);
    setLogLevel(LogLevel::Warn);
    // Some samples were collected before the deadline; aggregation
    // must work on whatever exists.
    if (!result.mergedSamples().empty()) {
        EXPECT_GT(result.aggregatedQuantile(
                      0.5, AggregationKind::Holistic),
                  0.0);
    }
}

} // namespace
} // namespace core
} // namespace treadmill
