/**
 * @file
 * Steady-state allocation assertions for the client request loop.
 *
 * Built only under -DTM_COUNT_ALLOCS=ON: the binary links the global
 * operator new/delete interposer (util/alloc_hook.cc) and asserts that
 * once the request pool, event-queue slots, and collector buffers are
 * warm, driving tens of thousands of requests through a load-tester
 * instance performs zero heap allocations, and that a whole experiment
 * (client, links, server, KV store) allocates a number of times that
 * does not grow with its request count. This pins the central claim
 * -- the hot path is allocation-free in steady state -- as a test
 * rather than a benchmark observation.
 */

#include "core/client.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.h"

#include "sim/simulation.h"
#include "util/alloc_counter.h"

namespace treadmill {
namespace core {
namespace {

/** Fixed-delay echo transmit: stamps NIC fields and reflects the
 *  request back to the instance without touching the heap. */
LoadTesterInstance::TransmitFn
echoTransmit(sim::Simulation &sim, LoadTesterInstance *&slot,
             SimDuration delay)
{
    return [&sim, &slot, delay](server::RequestPtr req) {
        sim.schedule(delay, [&sim, &slot,
                             req = std::move(req)]() mutable {
            req->nicArrival = sim.now();
            req->nicDeparture = sim.now();
            req->clientNicArrival = sim.now();
            slot->onResponseDelivered(std::move(req));
        });
    };
}

TEST(ZeroAllocTest, WarmClientLoopRunsWithoutHeapAllocations)
{
    util::forceLinkAllocHook();
    ASSERT_TRUE(util::allocCountingActive())
        << "alloc hook not linked; build with TM_COUNT_ALLOCS=ON";

    sim::Simulation sim;
    ClientParams params;
    params.requestsPerSecond = 100000.0;
    params.collector.warmUpSamples = 200;
    params.collector.calibrationSamples = 300;
    params.collector.measurementSamples = 40000;

    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, params, WorkloadConfig{},
                            echoTransmit(sim, slot, microseconds(20)));
    slot = &inst;
    inst.start();

    // Warm-up: run through warm-up + calibration and well into the
    // measurement phase so every arena, slot vector, and histogram has
    // reached its steady-state footprint.
    sim.runUntil(milliseconds(100)); // ~10k requests at 100k rps
    ASSERT_GT(inst.collector().measured(), 5000u);
    ASSERT_FALSE(inst.done());

    const std::uint64_t allocsBefore = util::allocCount();
    const std::uint64_t freesBefore = util::freeCount();

    // Steady state: ~20k more requests end to end.
    sim.runUntil(milliseconds(300));

    const std::uint64_t allocDelta = util::allocCount() - allocsBefore;
    const std::uint64_t freeDelta = util::freeCount() - freesBefore;
    EXPECT_GT(inst.collector().measured(), 20000u);
    EXPECT_EQ(allocDelta, 0u)
        << "steady-state client loop performed " << allocDelta
        << " heap allocations (and " << freeDelta << " frees)";
}

TEST(ZeroAllocTest, RequestPoolRecyclesInsteadOfAllocating)
{
    util::forceLinkAllocHook();
    ASSERT_TRUE(util::allocCountingActive());

    server::RequestPool pool;
    // Warm with a working set larger than any steady-state window.
    {
        std::vector<server::RequestPtr> warm;
        for (int i = 0; i < 256; ++i)
            warm.push_back(pool.make());
    }

    const std::uint64_t before = util::allocCount();
    for (int round = 0; round < 1000; ++round) {
        auto a = pool.make();
        auto b = pool.make();
        a->seqId = static_cast<std::uint64_t>(round);
        b->seqId = a->seqId + 1;
    }
    EXPECT_EQ(util::allocCount() - before, 0u);
}

/** Heap allocations of one whole Memcached experiment measuring
 *  @p samples per instance; @p requests receives its wire sends. */
std::uint64_t
wholeRunAllocs(std::size_t samples, double &requests)
{
    ExperimentParams p;
    p.targetUtilization = 0.5;
    p.collector.warmUpSamples = 200;
    p.collector.calibrationSamples = 200;
    p.collector.measurementSamples = samples;
    p.seed = 5;
    const std::uint64_t before = util::allocCount();
    const ExperimentResult result = runExperiment(p);
    const std::uint64_t allocs = util::allocCount() - before;
    requests =
        result.metrics.at("counters").at("sim.events.client.send").asNumber();
    return allocs;
}

TEST(ZeroAllocTest, WholeRunAllocationsDoNotGrowWithRequests)
{
    util::forceLinkAllocHook();
    ASSERT_TRUE(util::allocCountingActive());

    // Setup, harvest, and one-off growth (arenas, slot chunks, the KV
    // store's working set, result vectors) cost the same in both runs
    // or grow sublinearly; what is left is the per-request cost.
    double shortRequests = 0.0;
    double longRequests = 0.0;
    const std::uint64_t shortAllocs = wholeRunAllocs(1000, shortRequests);
    const std::uint64_t longAllocs = wholeRunAllocs(4000, longRequests);
    ASSERT_GT(longRequests, shortRequests + 20000.0);
    const double perRequest =
        (static_cast<double>(longAllocs) -
         static_cast<double>(shortAllocs)) /
        (longRequests - shortRequests);
    EXPECT_LE(perRequest, 0.002)
        << longAllocs << " allocations for " << longRequests
        << " requests vs " << shortAllocs << " for " << shortRequests;
}

} // namespace
} // namespace core
} // namespace treadmill
