/** @file Tests for per-operation and per-component latency views. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/experiment.h"
#include "core/tester_spec.h"

namespace treadmill {
namespace core {
namespace {

ExperimentParams
mixedParams()
{
    ExperimentParams params;
    params.workload.getFraction = 0.7;
    params.workload.valueBytesMean = 400.0;
    params.workload.valueBytesSigma = 0.0;
    params.targetUtilization = 0.4;
    params.config.dvfs = hw::DvfsGovernor::Performance;
    params.collector.warmUpSamples = 100;
    params.collector.calibrationSamples = 100;
    params.collector.measurementSamples = 2500;
    params.seed = 6;
    return params;
}

/** Exact moments of one summary, as the per-request logs gave them. */
struct Moments {
    std::uint64_t count;
    double sum;
    double mean;
    double min;
    double max;
};

void
expectMoments(const obs::Histogram &h, const Moments &want,
              const char *name)
{
    SCOPED_TRACE(name);
    EXPECT_EQ(h.count(), want.count);
    EXPECT_EQ(h.sum(), want.sum);
    EXPECT_EQ(h.mean(), want.mean);
    EXPECT_EQ(h.min(), want.min);
    EXPECT_EQ(h.max(), want.max);
}

TEST(DecompositionTest, SummariesMatchThePerRequestLogs)
{
    // Golden values computed from the per-request vectors these
    // summaries replaced (stats::mean's left-to-right sum, exact
    // min/max), same config and seed. Recording sums in completion
    // order reproduces them bit for bit.
    const auto result = runExperiment(mixedParams());
    expectMoments(result.serverComponentUs,
                  {21607, 0x1.e1fa990624da9p+18, 0x1.6d78b2e033d4bp+4,
                   0x1.99ba5e353f7cfp+2, 0x1.1ab2b020c49bap+8},
                  "server");
    expectMoments(result.networkComponentUs,
                  {21607, 0x1.d454f53f7cb79p+16, 0x1.631f9119e0d09p+2,
                   0x1.472b020c49ba6p+2, 0x1.ae353f7ced917p+2},
                  "network");
    expectMoments(result.clientComponentUs,
                  {21607, 0x1.5418a960414f1p+19, 0x1.01e2c35fddbb9p+5,
                   0x1.019999999999ap+5, 0x1.1bc49ba5e353fp+5},
                  "client");
    expectMoments(result.getLatencyUs,
                  {15050, 0x1.b99feb1a9fbf6p+19, 0x1.e0c4f46057e7ap+5,
                   0x1.5dba5e353f7cfp+5, 0x1.40a6e978d4fdfp+8},
                  "get");
    expectMoments(result.setLatencyUs,
                  {6557, 0x1.8c0152e147aefp+18, 0x1.eebff21b71f59p+5,
                   0x1.690e560418937p+5, 0x1.301c28f5c28f6p+8},
                  "set");
}

TEST(DecompositionTest, OutstandingCountsMatchThePerSendLog)
{
    // Per-instance histograms of the outstanding-at-send log the count
    // vectors replaced, same config and seed.
    const std::vector<std::vector<std::uint64_t>> want = {
        {1138, 1003, 428, 110, 19, 4},
        {1098, 974, 460, 143, 19, 7},
        {1082, 974, 474, 143, 21, 6},
        {1142, 978, 415, 123, 35, 7, 1},
        {1151, 953, 413, 137, 37, 8, 2},
        {1101, 968, 437, 145, 42, 6, 2},
        {1156, 941, 429, 132, 38, 5},
        {1112, 979, 442, 136, 28, 5},
    };
    const auto result = runExperiment(mixedParams());
    ASSERT_EQ(result.instances.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(result.instances[i].outstandingAtSend, want[i])
            << "instance " << i;
}

TEST(DecompositionTest, PerOpSamplesCoverAllResponses)
{
    const auto result = runExperiment(mixedParams());
    const std::uint64_t total =
        result.getLatencyUs.count() + result.setLatencyUs.count();
    EXPECT_EQ(total, result.serverComponentUs.count());
    EXPECT_GT(result.getLatencyUs.count(), 0u);
    EXPECT_GT(result.setLatencyUs.count(), 0u);
}

TEST(DecompositionTest, MixRatioMatchesWorkload)
{
    const auto result = runExperiment(mixedParams());
    const double total = static_cast<double>(
        result.getLatencyUs.count() + result.setLatencyUs.count());
    EXPECT_NEAR(static_cast<double>(result.getLatencyUs.count()) / total,
                0.7, 0.03);
}

TEST(DecompositionTest, SetsAreSlowerThanGets)
{
    // SETs cost more worker cycles. At the default costs the exact
    // medians (55.7 vs 54.0 us) share one histogram bucket, so the
    // exact means carry the ordering there ...
    const auto mixed = runExperiment(mixedParams());
    EXPECT_GT(mixed.setLatencyUs.mean(), mixed.getLatencyUs.mean());

    // ... and with a SET three times as expensive the exact medians
    // (82.0 vs 60.0 us) sit two buckets apart, so the histogram
    // medians must separate.
    auto params = mixedParams();
    params.memcachedParams.setCycles = 60000.0;
    const auto heavy = runExperiment(params);
    const double setMedian = heavy.setLatencyUs.quantile(0.5);
    const double getMedian = heavy.getLatencyUs.quantile(0.5);
    EXPECT_GT(setMedian, getMedian);
    EXPECT_GT(obs::Histogram::bucketFor(setMedian),
              obs::Histogram::bucketFor(getMedian) + 1);
}

TEST(DecompositionTest, ComponentsSumBelowEndToEnd)
{
    // server + network + client components account for the measured
    // latency (they are the full path decomposition).
    const auto result = runExperiment(mixedParams());
    const double endToEnd =
        result.getLatencyUs.mean() *
            static_cast<double>(result.getLatencyUs.count()) +
        result.setLatencyUs.mean() *
            static_cast<double>(result.setLatencyUs.count());
    const double parts =
        (result.serverComponentUs.mean() +
         result.networkComponentUs.mean() +
         result.clientComponentUs.mean()) *
        static_cast<double>(result.serverComponentUs.count());
    EXPECT_NEAR(parts / endToEnd, 1.0, 0.02);
}

} // namespace
} // namespace core
} // namespace treadmill
