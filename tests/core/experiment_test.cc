/** @file Integration tests for the full measurement procedure. */

#include "core/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "fault/plan.h"
#include "stats/summary.h"
#include "util/checksum.h"

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

/** Append @p v to @p out as an exact hex float. */
void
appendExact(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a,", v);
    out += buf;
}

void
appendExact(std::string &out, std::uint64_t v)
{
    out += std::to_string(v);
    out += ',';
}

void
appendHistogram(std::string &out, const obs::Histogram &h)
{
    appendExact(out, h.count());
    appendExact(out, h.sum());
    appendExact(out, h.min());
    appendExact(out, h.max());
}

/** Every byte of a result the simulator produces, in a fixed order:
 *  the metrics snapshot, each instance's quantiles, samples and
 *  counters, and the scalar and per-backend result fields. */
std::string
resultBytes(const ExperimentResult &r)
{
    std::string out = r.metrics.dump();
    out += '|';
    for (const InstanceReport &inst : r.instances) {
        for (const auto &[q, v] : inst.quantiles) {
            appendExact(out, q);
            appendExact(out, v);
        }
        for (double v : inst.rawSamples)
            appendExact(out, v);
        for (std::uint64_t n : inst.outstandingAtSend)
            appendExact(out, n);
        appendExact(out, inst.cpuUtilization);
        appendExact(out, inst.measured);
        appendExact(out, std::uint64_t{inst.reachedTarget});
        out += '|';
    }
    for (double v : r.groundTruthUs)
        appendExact(out, v);
    appendExact(out, r.targetRps);
    appendExact(out, r.achievedRps);
    appendExact(out, r.serverUtilization);
    appendExact(out, r.frequencyTransitions);
    appendExact(out, static_cast<std::uint64_t>(r.simulatedTime));
    appendExact(out, std::uint64_t{r.deadlineHit});
    appendExact(out, r.captureUnmatchedResponses);
    appendExact(out, static_cast<std::uint64_t>(r.captureOutstanding));
    for (std::uint64_t n : r.backendServed)
        appendExact(out, n);
    for (std::uint64_t n : r.backendDispatched)
        appendExact(out, n);
    appendExact(out, r.lbQueued);
    appendExact(out, r.lbUnroutable);
    appendExact(out, r.lbFailovers);
    appendHistogram(out, r.serverComponentUs);
    appendHistogram(out, r.networkComponentUs);
    appendHistogram(out, r.clientComponentUs);
    appendHistogram(out, r.getLatencyUs);
    appendHistogram(out, r.setLatencyUs);
    return out;
}

TEST(ExperimentTest, ResultBytesArePinned)
{
    // The simulator's event order is its output: any change to which
    // events run, or to their (when, seq) order, moves these hashes.
    // Hot-path refactors must leave both untouched.

    // Memcached with every hardware factor at its high level.
    auto hwOn = quickParams(0.6);
    hwOn.config.numa = hw::NumaPolicy::Interleave;
    hwOn.config.turbo = hw::TurboMode::On;
    hwOn.config.dvfs = hw::DvfsGovernor::Performance;
    hwOn.config.nic = hw::NicAffinity::AllNodes;
    const auto memcached = runExperiment(hwOn);
    EXPECT_EQ(fnv1a64(resultBytes(memcached)), 0xb8b44412c171d570ull);

    // A 4-shard cluster with a stalled shard, a bounded dispatch
    // queue, timeouts, retries, and hedges: every optional event
    // kind (timeout, retry, hedge, cancel, lb queueing) fires.
    ExperimentParams cl;
    cl.kind = WorkloadKind::Mcrouter;
    cl.targetUtilization = 0.5;
    cl.collector.warmUpSamples = 100;
    cl.collector.calibrationSamples = 100;
    cl.collector.measurementSamples = 800;
    cl.seed = 29;
    cl.deadline = seconds(2);
    cl.cluster.backends = 4;
    cl.cluster.replication = 2;
    cl.cluster.maxInflightPerBackend = 4;
    cl.resilience.enabled = true;
    cl.resilience.timeoutUs = 300.0;
    cl.resilience.maxRetries = 2;
    cl.resilience.hedge = true;
    cl.resilience.hedgeDelayUs = 500.0;
    fault::FaultEvent stall;
    stall.kind = fault::FaultKind::ServerStall;
    stall.backend = 2;
    stall.start = milliseconds(2);
    stall.duration = milliseconds(3);
    stall.period = milliseconds(10);
    stall.repeatCount = 20;
    cl.faultPlan.events.push_back(stall);
    const auto cluster = runExperiment(cl);
    const json::Value &counters = cluster.metrics.at("counters");
    for (const char *kind : {"timeout", "retry", "hedge"}) {
        EXPECT_GT(counters.at(std::string("sim.events.client.") + kind)
                      .asNumber(),
                  0.0)
            << kind;
    }
    EXPECT_GT(counters.at("sim.events_cancelled").asNumber(), 0.0);
    EXPECT_GT(cluster.lbQueued, 0u);
    EXPECT_EQ(fnv1a64(resultBytes(cluster)), 0x91e17854727889e6ull);

    // Event counters register on first use: a run whose resilience
    // policy is off never creates the client timeout/retry/hedge keys.
    const json::Value &plain = memcached.metrics.at("counters");
    for (const char *kind : {"timeout", "retry", "hedge"}) {
        EXPECT_FALSE(
            plain.contains(std::string("sim.events.client.") + kind))
            << kind;
    }
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
