/**
 * @file
 * Performance microbenchmarks for the simulation substrate: event
 * queue throughput, a request-shaped schedule-and-fire cycle, the KV
 * store's operation mix, and a complete small load-test experiment.
 * The attribution pipeline runs hundreds of experiments, so
 * end-to-end experiment cost is the budget that matters.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/experiment.h"
#include "exec/parallel_for.h"
#include "server/kvstore.h"
#include "server/request.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "util/random_variates.h"
#include "util/rng.h"

using namespace treadmill;

namespace {

void
BM_EventQueuePushPop(benchmark::State &state)
{
    sim::EventQueue queue;
    std::uint64_t t = 0;
    for (auto _ : state) {
        queue.push((t * 7919) % 1000 + t, [] {});
        ++t;
        if (queue.size() > 1024) {
            SimTime when = 0;
            queue.pop(when);
            benchmark::DoNotOptimize(when);
        }
    }
}
BENCHMARK(BM_EventQueuePushPop);

/**
 * Regression benchmark for the O(1) cancel fix: with state.range(0)
 * pending timeout events (up to 10^5), each iteration cancels one
 * pending event and schedules a replacement, the per-request timeout
 * pattern. Before the fix cancel() scanned the whole heap
 * (quadratic under load); the reported complexity must stay O(1) --
 * per-cancel time flat as the pending count grows 100x.
 */
void
BM_EventQueueCancelWithPendingTimeouts(benchmark::State &state)
{
    const auto pending = static_cast<std::uint64_t>(state.range(0));
    sim::EventQueue queue;
    std::vector<sim::EventId> ids;
    ids.reserve(pending);
    for (std::uint64_t i = 0; i < pending; ++i)
        ids.push_back(queue.push((i * 7919) % 100000, [] {}));

    std::uint64_t t = 0;
    std::size_t victim = 0;
    for (auto _ : state) {
        // Cancel one pending timeout, then re-arm it.
        benchmark::DoNotOptimize(queue.cancel(ids[victim]));
        ids[victim] = queue.push((t * 104729) % 100000, [] {});
        victim = (victim + 1) % ids.size();
        ++t;
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EventQueueCancelWithPendingTimeouts)
    ->RangeMultiplier(10)
    ->Range(1000, 100000)
    ->Complexity(benchmark::o1);

/** Schedule the next hop of a request chain: the event owns the
 *  request handle and moves it on when it fires, like the client and
 *  harness closures on the request path. */
void
scheduleHop(sim::Simulation &sim, server::RequestPtr request,
            std::uint64_t &fired)
{
    const SimDuration delay = 1000 + (request->seqId * 7919) % 1000;
    sim.schedule(delay, [&sim, &fired,
                         request = std::move(request)]() mutable {
        ++fired;
        ++request->seqId;
        scheduleHop(sim, std::move(request), fired);
    });
}

/**
 * One schedule + fire of an event capturing a server::RequestPtr (a
 * non-trivially-relocatable closure, the shape of the client send,
 * kernel and receive events), against a standing backlog of 1024
 * pending request chains so every push and pop sifts a realistic
 * heap.
 */
void
BM_ScheduleFireNonTrivial(benchmark::State &state)
{
    sim::Simulation sim;
    server::RequestPool pool;
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < 1024; ++i) {
        auto request = pool.make();
        request->seqId = i;
        scheduleHop(sim, std::move(request), fired);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.step());
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScheduleFireNonTrivial);

/**
 * The Memcached model's store traffic: 95% GET (find) / 5% SET over a
 * Zipf(0.99) stream of 100k keys with 16-215 byte values, replayed
 * from a pre-drawn 64k-operation tape against a store warmed by one
 * pass of that tape (GETs of keys no SET has stored yet miss, as in
 * a simulated run).
 */
void
BM_KvStoreMixed(benchmark::State &state)
{
    struct Op {
        std::string key;
        std::uint32_t valueBytes;
        bool set;
    };
    constexpr std::size_t kTape = 1 << 16;
    Rng rng(0x6b7673746f7265ull);
    const Zipf zipf(100000, 0.99);
    std::vector<Op> tape;
    tape.reserve(kTape);
    for (std::size_t i = 0; i < kTape; ++i) {
        Op op;
        op.key = "key:" + std::to_string(zipf.sample(rng));
        op.valueBytes = 16 + static_cast<std::uint32_t>(rng.nextBelow(200));
        op.set = rng.nextDouble() < 0.05;
        tape.push_back(std::move(op));
    }
    server::KvStore kv;
    std::uint64_t hitBytes = 0;
    const auto apply = [&kv, &hitBytes](const Op &op) {
        if (op.set) {
            kv.set(op.key, op.valueBytes, 'v');
        } else {
            const auto value = kv.find(op.key);
            hitBytes += value ? value->size() : 0;
        }
    };
    for (const Op &op : tape)
        apply(op);

    std::size_t i = 0;
    for (auto _ : state) {
        apply(tape[i]);
        benchmark::DoNotOptimize(hitBytes);
        i = (i + 1) & (kTape - 1);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KvStoreMixed);

void
BM_SimulationEventChain(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulation sim;
        std::uint64_t fired = 0;
        std::function<void()> chain = [&] {
            if (++fired < 10000)
                sim.schedule(100, chain);
        };
        sim.schedule(100, chain);
        sim.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulationEventChain);

void
BM_FullExperiment(benchmark::State &state)
{
    for (auto _ : state) {
        core::ExperimentParams params;
        params.targetUtilization = 0.5;
        params.collector.warmUpSamples = 100;
        params.collector.calibrationSamples = 100;
        params.collector.measurementSamples =
            static_cast<std::uint64_t>(state.range(0));
        params.seed = 3;
        const auto result = core::runExperiment(params);
        benchmark::DoNotOptimize(result.achievedRps);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * state.range(0) * 8));
}
BENCHMARK(BM_FullExperiment)->Unit(benchmark::kMillisecond)
    ->Arg(1000)->Arg(4000);

/**
 * The parallel experiment fan-out: a fixed batch of 8 seed-isolated
 * experiments executed with state.range(0) worker threads. Comparing
 * the timings across thread counts gives the wall-clock speedup of
 * the ParallelRunner on this machine (the results themselves are
 * bit-exact at every thread count; the determinism suite pins that).
 */
void
BM_ExperimentBatchParallel(benchmark::State &state)
{
    std::vector<core::ExperimentParams> runs;
    for (std::size_t i = 0; i < 8; ++i) {
        core::ExperimentParams params;
        params.targetUtilization = 0.5;
        params.collector.warmUpSamples = 100;
        params.collector.calibrationSamples = 100;
        params.collector.measurementSamples = 1000;
        params.seed = 17 + i * 101;
        runs.push_back(std::move(params));
    }
    const exec::Parallelism par{
        static_cast<unsigned>(state.range(0))};
    double simSeconds = 0.0;
    for (auto _ : state) {
        const auto results = core::runExperiments(runs, par);
        for (const auto &r : results)
            simSeconds += toSeconds(r.simulatedTime);
        benchmark::DoNotOptimize(results.front().achievedRps);
    }
    state.counters["sim_s_per_wall_s"] = benchmark::Counter(
        simSeconds, benchmark::Counter::kIsRate);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_ExperimentBatchParallel)
    ->Unit(benchmark::kMillisecond)
    // Work happens on pool threads; rate counters must divide by
    // wall time, not the (near-idle) main thread's CPU time.
    ->UseRealTime()
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8);

} // namespace

BENCHMARK_MAIN();
