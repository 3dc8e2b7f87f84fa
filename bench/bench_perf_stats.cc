/**
 * @file
 * Performance microbenchmarks for the statistics substrate: adaptive
 * histogram insertion, re-binning, quantile queries, and reservoir
 * sampling. These are the per-sample costs on Treadmill's hot path;
 * the paper's design keeps them O(1) so clients stay lightly loaded.
 */

#include <benchmark/benchmark.h>

#include "stats/histogram.h"
#include "stats/reservoir.h"
#include "stats/summary.h"
#include "util/random_variates.h"
#include "util/rng.h"

using namespace treadmill;

namespace {

std::vector<double>
latencySamples(std::size_t n)
{
    Rng rng(42);
    Exponential exp(0.01);
    std::vector<double> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        xs.push_back(exp.sample(rng));
    return xs;
}

void
BM_AdaptiveHistogramAdd(benchmark::State &state)
{
    const auto samples = latencySamples(1 << 16);
    stats::AdaptiveHistogram hist(
        std::vector<double>(samples.begin(), samples.begin() + 512));
    std::size_t i = 0;
    for (auto _ : state) {
        hist.add(samples[i++ & 0xffff]);
        benchmark::DoNotOptimize(hist.count());
    }
}
BENCHMARK(BM_AdaptiveHistogramAdd);

void
BM_AdaptiveHistogramQuantile(benchmark::State &state)
{
    const auto samples = latencySamples(1 << 16);
    stats::AdaptiveHistogram hist(samples);
    for (auto _ : state)
        benchmark::DoNotOptimize(hist.quantile(0.99));
}
BENCHMARK(BM_AdaptiveHistogramQuantile);

void
BM_AdaptiveHistogramRebinStorm(benchmark::State &state)
{
    // Worst case: calibration far below the eventual range.
    for (auto _ : state) {
        state.PauseTiming();
        stats::AdaptiveHistogram::Params params;
        params.overflowTrigger = 16;
        stats::AdaptiveHistogram hist(
            std::vector<double>{1.0, 2.0, 3.0}, params);
        state.ResumeTiming();
        for (int i = 1; i <= 2000; ++i)
            hist.add(static_cast<double>(i) * 10.0);
        benchmark::DoNotOptimize(hist.rebinCount());
    }
}
BENCHMARK(BM_AdaptiveHistogramRebinStorm);

void
BM_StaticHistogramAdd(benchmark::State &state)
{
    const auto samples = latencySamples(1 << 16);
    stats::StaticHistogram hist(0.0, 1000.0, 1024);
    std::size_t i = 0;
    for (auto _ : state) {
        hist.add(samples[i++ & 0xffff]);
        benchmark::DoNotOptimize(hist.count());
    }
}
BENCHMARK(BM_StaticHistogramAdd);

void
BM_ReservoirAdd(benchmark::State &state)
{
    const auto samples = latencySamples(1 << 16);
    stats::ReservoirSampler reservoir(20000, Rng(7));
    std::size_t i = 0;
    for (auto _ : state) {
        reservoir.add(samples[i++ & 0xffff]);
        benchmark::DoNotOptimize(reservoir.seen());
    }
}
BENCHMARK(BM_ReservoirAdd);

void
BM_ExactQuantileSort(benchmark::State &state)
{
    const auto samples =
        latencySamples(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        auto copy = samples;
        benchmark::DoNotOptimize(stats::quantile(std::move(copy), 0.99));
    }
}
BENCHMARK(BM_ExactQuantileSort)->Arg(1000)->Arg(20000);

/** One key-popularity draw at the workload's default skew. */
void
BM_ZipfSample(benchmark::State &state)
{
    Rng rng(11);
    Zipf zipf(100000, 0.99);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample);

} // namespace

BENCHMARK_MAIN();
