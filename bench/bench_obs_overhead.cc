/**
 * @file
 * Observability overhead microbenchmarks.
 *
 * The metrics registry and trace recorder sit on the simulation's hot
 * paths (every event, packet, and request), so their cost budget is
 * strict: with tracing disabled an instrumented experiment must run
 * within ~5% of the pre-instrumentation baseline. The experiment pair
 * below measures that directly (trace off vs tracing every request);
 * the micro-ops quantify the per-call costs the budget is built from.
 */

#include <benchmark/benchmark.h>

#include "core/experiment.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

using namespace treadmill;

namespace {

core::ExperimentParams
overheadParams()
{
    core::ExperimentParams params;
    params.targetUtilization = 0.5;
    params.collector.warmUpSamples = 100;
    params.collector.calibrationSamples = 100;
    params.collector.measurementSamples = 2000;
    params.seed = 29;
    return params;
}

/** Baseline: metrics always on (they are unconditional), tracing off.
 *  Compare against BM_ExperimentTraceEveryRequest for the recorder's
 *  marginal cost, and against historical BM_FullExperiment numbers for
 *  the registry's. */
void
BM_ExperimentTraceOff(benchmark::State &state)
{
    for (auto _ : state) {
        auto params = overheadParams();
        const auto result = core::runExperiment(params);
        benchmark::DoNotOptimize(result.achievedRps);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 2000 * 8));
}
BENCHMARK(BM_ExperimentTraceOff)->Unit(benchmark::kMillisecond);

/** Worst case: record every completed request's full timeline (the
 *  one trace knob also builds the per-attempt span tree). */
void
BM_ExperimentTraceEveryRequest(benchmark::State &state)
{
    for (auto _ : state) {
        auto params = overheadParams();
        params.trace.enabled = true;
        params.trace.sampleEvery = 1;
        const auto result = core::runExperiment(params);
        benchmark::DoNotOptimize(result.traces.size());
        benchmark::DoNotOptimize(result.spans.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 2000 * 8));
}
BENCHMARK(BM_ExperimentTraceEveryRequest)
    ->Unit(benchmark::kMillisecond);

/** Full observability: every span retained *and* the telemetry
 *  sampler ticking every simulated millisecond. */
void
BM_ExperimentSpansAndTelemetry(benchmark::State &state)
{
    for (auto _ : state) {
        auto params = overheadParams();
        params.trace.enabled = true;
        params.trace.sampleEvery = 1;
        params.telemetry.enabled = true;
        params.telemetry.periodUs = 1000.0;
        const auto result = core::runExperiment(params);
        benchmark::DoNotOptimize(result.spans.size());
        benchmark::DoNotOptimize(result.telemetry.ticks());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 2000 * 8));
}
BENCHMARK(BM_ExperimentSpansAndTelemetry)
    ->Unit(benchmark::kMillisecond);

/** A held counter reference bump: the hot-path pattern everywhere. */
void
BM_CounterAdd(benchmark::State &state)
{
    obs::MetricsRegistry registry;
    obs::Counter &counter = registry.counter("bench.counter");
    for (auto _ : state) {
        counter.add();
        // Inside the loop: observed once per iteration, the bump
        // cannot be folded into a single add of the trip count.
        benchmark::DoNotOptimize(counter.value());
    }
}
BENCHMARK(BM_CounterAdd);

/** Histogram record: bucket from the value's bits + exact moments. */
void
BM_HistogramRecord(benchmark::State &state)
{
    obs::MetricsRegistry registry;
    obs::Histogram &hist = registry.histogram("bench.hist");
    double v = 1.0;
    for (auto _ : state) {
        hist.record(v);
        v = v < 1e6 ? v * 1.1 : 1.0;
    }
    benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramRecord);

/** Name lookup (map find): the cost callers avoid by holding refs. */
void
BM_RegistryLookup(benchmark::State &state)
{
    obs::MetricsRegistry registry;
    registry.counter("bench.lookup");
    for (auto _ : state)
        benchmark::DoNotOptimize(
            registry.counter("bench.lookup").value());
}
BENCHMARK(BM_RegistryLookup);

/** TraceRecorder::record when sampling keeps the request. */
void
BM_TraceRecord(benchmark::State &state)
{
    obs::TraceConfig cfg;
    cfg.enabled = true;
    obs::TraceRecorder recorder(cfg);
    obs::RequestTrace trace;
    trace.intendedSend = 1;
    trace.clientSend = 2;
    trace.nicArrival = 3;
    trace.workerStart = 4;
    trace.workerEnd = 5;
    trace.nicDeparture = 6;
    trace.clientNicArrival = 7;
    trace.clientReceive = 8;
    for (auto _ : state) {
        benchmark::DoNotOptimize(recorder.record(trace));
        if (recorder.traces().size() >= (1u << 16))
            recorder.takeTraces();
    }
}
BENCHMARK(BM_TraceRecord);

/** SpanRecorder::record of a two-attempt span: the per-completion
 *  cost when span tracing is on (one struct copy into a reserved
 *  vector, no allocation at steady state). */
void
BM_SpanRecord(benchmark::State &state)
{
    obs::TraceConfig cfg;
    cfg.enabled = true;
    obs::SpanRecorder recorder(cfg);
    recorder.reserveFor(1u << 16);
    obs::SpanTrace span;
    span.intendedSend = 1;
    span.clientReceive = 100;
    span.attemptCount = 2;
    span.stored = 2;
    span.winner = 1;
    span.attempts[1].won = true;
    for (auto _ : state) {
        benchmark::DoNotOptimize(recorder.record(span));
        if (recorder.spans().size() >= (1u << 16))
            recorder.takeSpans();
    }
}
BENCHMARK(BM_SpanRecord);

/** One telemetry tick over a typical probe set (eight gauges). */
void
BM_TelemetrySample(benchmark::State &state)
{
    obs::TelemetryConfig cfg;
    cfg.enabled = true;
    cfg.maxSamples = 1u << 20;
    obs::TelemetrySampler sampler(cfg);
    double gauge = 0.0;
    for (int p = 0; p < 8; ++p)
        sampler.addProbe("bench.gauge",
                         [&gauge] { return gauge; });
    SimTime now = 0;
    for (auto _ : state) {
        gauge += 1.0;
        now += 1'000'000;
        sampler.sample(now);
        if (sampler.full())
            sampler.takeSeries();
    }
    benchmark::DoNotOptimize(sampler.series().ticks());
}
BENCHMARK(BM_TelemetrySample);

} // namespace

BENCHMARK_MAIN();
