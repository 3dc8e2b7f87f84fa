#include "lb/balancer.h"

#include <algorithm>
#include <utility>

#include "util/error.h"
#include "util/logging.h"
#include "util/strings.h"

namespace treadmill {
namespace lb {

void
BalancerParams::validate() const
{
    if (backends == 0)
        throw ConfigError("balancer needs at least one backend");
    if (replication == 0)
        throw ConfigError("balancer replication must be >= 1");
    if (replication > backends)
        throw ConfigError(strprintf(
            "balancer replication %u exceeds backend count %u",
            replication, backends));
    if (vnodesPerBackend == 0)
        throw ConfigError("balancer needs at least one virtual node");
    if (policy == PolicyKind::Edf && edfSlackUs <= 0.0)
        throw ConfigError("EDF slack must be positive");
}

LoadBalancer::LoadBalancer(sim::Simulation &sim_,
                           const BalancerParams &params_)
    : sim(sim_), params(params_),
      ring((params_.validate(), params_.backends),
           params_.vnodesPerBackend),
      policy(makePolicy(params_.policy, params_.seed,
                        params_.edfSlackUs)),
      inflight(params_.backends, 0), dispatchCount(params_.backends, 0),
      dispatchedCounter(sim_.metrics().counter("lb.dispatched")),
      queuedCounter(sim_.metrics().counter("lb.queued")),
      unroutableCounter(sim_.metrics().counter("lb.unroutable")),
      failoversCounter(sim_.metrics().counter("lb.failovers")),
      queueDepthGauge(sim_.metrics().gauge("lb.queue_depth")),
      queueWaitHist(sim_.metrics().histogram("lb.queue_wait_us"))
{
    sim.metrics().claimScope("lb");
    backends.reserve(params.backends);
    backendDispatched.reserve(params.backends);
    backendInflight.reserve(params.backends);
    for (std::uint32_t b = 0; b < params.backends; ++b) {
        const std::string prefix = strprintf("lb.backend%u.", b);
        backendDispatched.push_back(
            &sim.metrics().counter(prefix + "dispatched"));
        backendInflight.push_back(
            &sim.metrics().gauge(prefix + "inflight"));
    }
    scratchReplicas.reserve(params.backends);
    scratchHealthy.reserve(params.backends);
    scratchFree.reserve(params.backends);
}

void
LoadBalancer::addBackend(server::Service &backend)
{
    if (backends.size() >= params.backends)
        throw ConfigError("more backends attached than configured");
    backends.push_back(&backend);
}

// tmlint:hot-path-begin -- receive/dispatch/drainQueue run once per
// routed request; stamping and selection must stay alloc-free.
void
LoadBalancer::receive(server::RequestPtr request,
                      server::RespondFn respond)
{
    TM_ASSERT(backends.size() == params.backends,
              "balancer used before all backends attached");
    request->lbArrival = sim.now();
    ring.replicas(HashRing::hashKey(request->key), params.replication,
                  scratchReplicas);
    scratchHealthy.clear();
    for (std::uint32_t b : scratchReplicas) {
        if (backends[b]->up())
            scratchHealthy.push_back(b);
    }
    if (scratchHealthy.empty()) {
        // Every replica of this key is down. The request dies here;
        // the client's timeout/retry machinery owns unanswered
        // requests, and the counter makes the black hole visible.
        // The stamp lets span traces account the loss as failover
        // wait instead of an anonymous timeout.
        request->lbDropped = true;
        ++unroutableCount;
        unroutableCounter.add();
        return;
    }
    if (scratchHealthy.front() != scratchReplicas.front()) {
        ++failoverCount;
        failoversCounter.add();
        // Down replicas skipped ahead of the first healthy one: the
        // per-attempt failover hop count for span traces.
        std::uint32_t hops = 0;
        for (std::uint32_t b : scratchReplicas) {
            if (b == scratchHealthy.front())
                break;
            ++hops;
        }
        request->lbFailovers = hops;
    }

    if (params.maxInflightPerBackend > 0) {
        scratchFree.clear();
        for (std::uint32_t b : scratchHealthy) {
            if (inflight[b] < params.maxInflightPerBackend)
                scratchFree.push_back(b);
        }
        if (scratchFree.empty()) {
            // Every replica is saturated: park in the dispatch queue
            // under the policy's priority (ties by arrival order).
            ++queuedCount;
            queuedCounter.add();
            QueuedRequest entry;
            entry.enqueuedAt = sim.now();
            entry.candidates = scratchHealthy;
            entry.request = std::move(request);
            entry.respond = std::move(respond);
            queue.emplace(
                std::make_pair(policy->queuePriority(*entry.request),
                               nextQueueSeq++),
                std::move(entry));
            queueDepthGauge.set(static_cast<double>(queue.size()));
            return;
        }
        const BackendSnapshot snapshot{inflight.data(),
                                       inflight.size()};
        const std::size_t pick =
            policy->select(scratchFree, snapshot, *request);
        dispatch(scratchFree[pick], std::move(request),
                 std::move(respond));
        return;
    }

    const BackendSnapshot snapshot{inflight.data(), inflight.size()};
    const std::size_t pick =
        policy->select(scratchHealthy, snapshot, *request);
    dispatch(scratchHealthy[pick], std::move(request),
             std::move(respond));
}

void
LoadBalancer::dispatch(std::uint32_t b, server::RequestPtr request,
                       server::RespondFn respond)
{
    ++inflight[b];
    ++dispatchCount[b];
    dispatchedCounter.add();
    backendDispatched[b]->add();
    backendInflight[b]->set(static_cast<double>(inflight[b]));
    request->backendId = static_cast<std::int32_t>(b);
    request->lbDispatch = sim.now();
    backends[b]->receive(
        std::move(request),
        [this, b, respond = std::move(respond)](
            server::RequestPtr response) {
            --inflight[b];
            backendInflight[b]->set(
                static_cast<double>(inflight[b]));
            // Reuse the freed slot at the earliest instant, then let
            // the response continue toward the client.
            drainQueue();
            respond(std::move(response));
        });
}

void
LoadBalancer::drainQueue()
{
    // Strict priority order: only the head may dispatch. If the head's
    // replicas are all still saturated (or down), later entries wait
    // behind it -- head-of-line blocking is part of what the balancer
    // queue models.
    while (!queue.empty()) {
        auto headIt = queue.begin();
        QueuedRequest &head = headIt->second;
        scratchFree.clear();
        for (std::uint32_t b : head.candidates) {
            if (backends[b]->up() &&
                (params.maxInflightPerBackend == 0 ||
                 inflight[b] < params.maxInflightPerBackend))
                scratchFree.push_back(b);
        }
        if (scratchFree.empty())
            break;
        const BackendSnapshot snapshot{inflight.data(),
                                       inflight.size()};
        const std::size_t pick =
            policy->select(scratchFree, snapshot, *head.request);
        queueWaitHist.record(toMicros(sim.now() - head.enqueuedAt));
        server::RequestPtr request = std::move(head.request);
        server::RespondFn respond = std::move(head.respond);
        const std::uint32_t target = scratchFree[pick];
        queue.erase(headIt);
        queueDepthGauge.set(static_cast<double>(queue.size()));
        dispatch(target, std::move(request), std::move(respond));
    }
}
// tmlint:hot-path-end

} // namespace lb
} // namespace treadmill
