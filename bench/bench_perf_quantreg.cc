/**
 * @file
 * Performance microbenchmarks for the regression layer: the quantile-
 * regression fit that the attribution pipeline runs per quantile and
 * per bootstrap replicate (480 rows x 16 terms at paper scale), its MM
 * inner solve, and the whole bootstrap fit at attribution-sweep scale
 * (128 rows, 3 taus, 60 replicates) on 1 and 4 threads.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include <benchmark/benchmark.h>

#include "analysis/attribution.h"
#include "regress/design.h"
#include "regress/ols.h"
#include "regress/quantreg.h"
#include "util/random_variates.h"
#include "util/rng.h"

using namespace treadmill;
using namespace treadmill::regress;

namespace {

struct Dataset {
    Matrix x;
    Vec y;
};

Dataset
factorialDataset(std::size_t reps)
{
    FactorialDesign design({"numa", "turbo", "dvfs", "nic"});
    Rng rng(5);
    Normal noise(0.0, 15.0);
    std::vector<std::vector<double>> obs;
    Vec y;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        for (unsigned cell = 0; cell < 16; ++cell) {
            std::vector<double> levels{
                static_cast<double>(cell & 1),
                static_cast<double>((cell >> 1) & 1),
                static_cast<double>((cell >> 2) & 1),
                static_cast<double>((cell >> 3) & 1)};
            obs.push_back(levels);
            y.push_back(355.0 + 56.0 * levels[0] - 29.0 * levels[1] +
                        29.0 * levels[3] - 58.0 * levels[2] * levels[3] +
                        noise.sample(rng));
        }
    }
    Matrix x = design.designMatrix(obs);
    x = FactorialDesign::perturb(x, 0.01, rng);
    return Dataset{std::move(x), std::move(y)};
}

void
BM_QuantRegFitP99(benchmark::State &state)
{
    const Dataset data =
        factorialDataset(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(fitQuantile(data.x, data.y, 0.99));
}
BENCHMARK(BM_QuantRegFitP99)->Arg(10)->Arg(30);

void
BM_QuantRegFitMedian(benchmark::State &state)
{
    const Dataset data = factorialDataset(30);
    for (auto _ : state)
        benchmark::DoNotOptimize(fitQuantile(data.x, data.y, 0.5));
}
BENCHMARK(BM_QuantRegFitMedian);

void
BM_SolveWeightedLs(benchmark::State &state)
{
    // One MM step's weighted system at sweep scale (128 x 16), with the
    // weights a P99 fit would use at the least-squares start.
    const Dataset data = factorialDataset(8);
    const Vec beta = fitOls(data.x, data.y).coefficients;
    const Vec predicted = data.x.multiply(beta);
    Vec weights(data.y.size());
    for (std::size_t i = 0; i < weights.size(); ++i)
        weights[i] = 0.5 / std::max(std::fabs(data.y[i] - predicted[i]),
                                    1e-3);
    Vec linear = data.x.transposeMultiply(Vec(data.y.size(), 1.0));
    for (double &v : linear)
        v *= 0.99 - 0.5;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            solveWeightedLs(data.x, data.y, weights, linear, 1e-8));
}
BENCHMARK(BM_SolveWeightedLs);

void
BM_FitFactorialModels(benchmark::State &state)
{
    // The attribution sweep's fit: 8 reps x 16 cells, P50/P95/P99,
    // 60 bootstrap replicates, on state.range(0) threads.
    FactorialDesign design({"numa", "turbo", "dvfs", "nic"});
    Rng rng(11);
    Normal noise(0.0, 15.0);
    std::vector<std::vector<double>> levels;
    std::map<double, std::vector<double>> responses;
    for (unsigned i = 0; i < 128; ++i) {
        const unsigned cell = i % 16;
        const std::vector<double> l{static_cast<double>(cell & 1),
                                    static_cast<double>((cell >> 1) & 1),
                                    static_cast<double>((cell >> 2) & 1),
                                    static_cast<double>((cell >> 3) & 1)};
        const double mean = 355.0 + 56.0 * l[0] - 29.0 * l[1] +
                            29.0 * l[3] - 58.0 * l[2] * l[3];
        levels.push_back(l);
        for (double tau : {0.5, 0.95, 0.99})
            responses[tau].push_back(mean * (1.0 + tau) +
                                     noise.sample(rng));
    }
    analysis::FactorialFitParams params;
    params.quantiles = {0.5, 0.95, 0.99};
    params.bootstrapReplicates = 60;
    params.parallelism =
        exec::Parallelism{static_cast<unsigned>(state.range(0))};
    for (auto _ : state)
        benchmark::DoNotOptimize(analysis::fitFactorialModels(
            design, levels, responses, params));
    state.counters["fits"] = benchmark::Counter(
        3.0 * 61.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FitFactorialModels)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_OlsFit(benchmark::State &state)
{
    const Dataset data = factorialDataset(30);
    for (auto _ : state)
        benchmark::DoNotOptimize(fitOls(data.x, data.y));
}
BENCHMARK(BM_OlsFit);

void
BM_DesignMatrixBuild(benchmark::State &state)
{
    FactorialDesign design({"numa", "turbo", "dvfs", "nic"});
    std::vector<std::vector<double>> obs;
    for (std::size_t i = 0; i < 480; ++i)
        obs.push_back({static_cast<double>(i & 1),
                       static_cast<double>((i >> 1) & 1),
                       static_cast<double>((i >> 2) & 1),
                       static_cast<double>((i >> 3) & 1)});
    for (auto _ : state)
        benchmark::DoNotOptimize(design.designMatrix(obs));
}
BENCHMARK(BM_DesignMatrixBuild);

} // namespace

BENCHMARK_MAIN();
