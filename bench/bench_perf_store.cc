/**
 * @file
 * Run store microbenchmarks: the per-run cost of persisting a record
 * (encode + CRC + atomic rename) and the cost of a full refit from an
 * archived study. Persistence rides the StudyDriver's simulation
 * thread, so BM_StoreWriteRun bounds how much archiving can slow a
 * sweep; BM_StoreRefit is the price of re-analysis without
 * simulation, the whole point of keeping the archive.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/refit.h"
#include "store/reader.h"
#include "store/writer.h"
#include "util/random_variates.h"
#include "util/rng.h"

using namespace treadmill;

namespace {

namespace fs = std::filesystem;

/** A representative archived run: a full 20k-sample reservoir, three
 *  quantile snapshots, and a handful of provenance rows. */
store::RunRecord
sampleRecord(std::uint64_t seed, const std::vector<double> &levels)
{
    Rng rng(seed);
    Exponential exp(0.01);
    store::RunRecord rec;
    rec.seed = seed;
    rec.configDigest = 0xbadc0ffee0ddf00dull;
    rec.factorLevels = levels;
    rec.quantileTaus = {0.5, 0.95, 0.99};
    rec.quantileUs = {101.0 + static_cast<double>(seed % 7),
                      220.0 + static_cast<double>(seed % 5),
                      450.0 + static_cast<double>(seed % 3)};
    rec.reservoir.reserve(20000);
    for (int i = 0; i < 20000; ++i)
        rec.reservoir.push_back(exp.sample(rng));
    rec.reservoirSeen = 1200000;
    rec.reservoirCapacity = 20000;
    rec.targetRps = 250000.0;
    rec.achievedRps = 249913.5;
    rec.serverUtilization = 0.7;
    rec.simulatedSeconds = 4.8;
    rec.metricsJson =
        "{\"counters\":{\"requests\":1200000,\"timeouts\":3},"
        "\"gauges\":{\"depth\":12}}";
    rec.provenance = {{0.99, 3, 180.0, 0.41},
                      {0.99, 1, 120.0, 0.28},
                      {0.99, 5, 60.0, 0.13},
                      {0.5, 3, 40.0, 0.35}};
    return rec;
}

store::StudyMeta
benchMeta()
{
    store::StudyMeta meta;
    meta.name = "bench";
    meta.factors = {"a", "b"};
    meta.quantiles = {0.5, 0.95, 0.99};
    meta.configDigest = 0xbadc0ffee0ddf00dull;
    return meta;
}

void
BM_StoreWriteRun(benchmark::State &state)
{
    const std::string dir =
        (fs::temp_directory_path() / "tmbench_store_write").string();
    fs::remove_all(dir);
    store::StudyWriter writer(dir, benchMeta());
    const store::RunRecord rec = sampleRecord(7, {1.0, 0.0});
    const std::size_t bytes =
        store::encodedByteSize(store::encodeRunRecord(rec, 0));

    // Rewriting seq 0 keeps the directory one file large however long
    // the benchmark runs; each iteration still pays the full encode,
    // CRC, write, and rename.
    for (auto _ : state) {
        writer.writeRun(0, rec);
        benchmark::DoNotOptimize(writer.runsWritten());
    }

    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(bytes));
    fs::remove_all(dir);
}
BENCHMARK(BM_StoreWriteRun);

void
BM_StoreEncodeRunRecord(benchmark::State &state)
{
    // The CPU-only slice of persistence (no filesystem): columnar
    // encode plus per-column CRC over the 20k-sample reservoir.
    const store::RunRecord rec = sampleRecord(7, {1.0, 0.0});
    for (auto _ : state)
        benchmark::DoNotOptimize(store::encodeRunRecord(rec, 0));
}
BENCHMARK(BM_StoreEncodeRunRecord);

void
BM_StoreRefit(benchmark::State &state)
{
    // A 2-factor, 24-run archive -- the shape examples/capacity_study
    // writes -- refitted end to end: open every run, verify CRCs,
    // load responses, fit three quantile models with bootstrap SEs.
    const std::string dir =
        (fs::temp_directory_path() / "tmbench_store_refit").string();
    fs::remove_all(dir);
    {
        store::StudyWriter writer(dir, benchMeta());
        std::uint64_t seq = 0;
        for (int rep = 0; rep < 6; ++rep)
            for (int a = 0; a <= 1; ++a)
                for (int b = 0; b <= 1; ++b) {
                    writer.writeRun(
                        seq, sampleRecord(100 + seq,
                                          {static_cast<double>(a),
                                           static_cast<double>(b)}));
                    ++seq;
                }
        writer.finish();
    }

    analysis::FactorialFitParams fit;
    fit.quantiles = {0.5, 0.95, 0.99};
    fit.bootstrapReplicates = 50;
    fit.seed = 9;
    for (auto _ : state) {
        const store::StudyReader study(dir);
        benchmark::DoNotOptimize(analysis::refitFromStore(study, fit));
    }
    fs::remove_all(dir);
}
BENCHMARK(BM_StoreRefit);

} // namespace

BENCHMARK_MAIN();
