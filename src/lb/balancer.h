/**
 * @file
 * The load-balancer tier: a first-class component between the router
 * and the backend shards.
 *
 * The balancer is itself a server::Service, so anything that can talk
 * to a server can talk to a cluster: it hashes each request's key onto
 * the consistent-hash ring, collects the key's replica set, filters
 * out crashed backends (failover), and lets the configured
 * SchedulingPolicy pick the destination. When every replica is
 * saturated (maxInflightPerBackend) the request parks in the dispatch
 * queue, ordered by the policy's priority -- this queue is exactly the
 * "LB queueing" term the attribution studies separate from "backend N
 * got slow".
 *
 * The balancer never touches packets or machines itself: each backend
 * is an opaque server::Service (typically: uplink -> shard service ->
 * downlink) whose up() is the health probe, so the lb module stays
 * below core in the layering DAG and is unit-testable with synthetic
 * backends.
 */

#ifndef TREADMILL_LB_BALANCER_H_
#define TREADMILL_LB_BALANCER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "lb/hash_ring.h"
#include "lb/policy.h"
#include "obs/metrics.h"
#include "server/request.h"
#include "sim/simulation.h"
#include "util/types.h"

namespace treadmill {
namespace lb {

/** Configuration of one balancer tier. */
struct BalancerParams {
    std::uint32_t backends = 0;    ///< Number of shards (required).
    std::uint32_t replication = 1; ///< Replicas per key (<= backends).
    std::uint32_t vnodesPerBackend = 128;
    /** Saturation cap per backend; 0 = never queue at the balancer. */
    std::uint32_t maxInflightPerBackend = 0;
    PolicyKind policy = PolicyKind::Fcfs;
    double edfSlackUs = 1000.0; ///< EDF latency budget.
    std::uint64_t seed = 1;     ///< Run seed (policy randomness).

    /** @throws ConfigError when inconsistent. */
    void validate() const;
};

/** Routes requests onto backend shards; see file comment. */
class LoadBalancer : public server::Service
{
  public:
    LoadBalancer(sim::Simulation &sim, const BalancerParams &params);

    LoadBalancer(const LoadBalancer &) = delete;
    LoadBalancer &operator=(const LoadBalancer &) = delete;

    /** Attach the next backend (ids assigned 0.. in call order);
     *  exactly params.backends calls, before the first receive().
     *  @p backend must outlive the balancer; its up() is consulted
     *  at every dispatch. */
    void addBackend(server::Service &backend);

    /**
     * Route @p request: ring lookup, replica walk, health filter,
     * policy selection; queue when all replicas are saturated; drop
     * (and count) when all replicas are down -- the client's timeout
     * machinery owns unanswered requests.
     */
    void receive(server::RequestPtr request,
                 server::RespondFn respond) override;

    /** @name Observers
     * @{
     */
    const HashRing &hashRing() const { return ring; }
    std::uint64_t inflightOf(std::uint32_t b) const
    {
        return inflight[b];
    }
    std::uint64_t dispatchedTo(std::uint32_t b) const
    {
        return dispatchCount[b];
    }
    /** Requests parked in the dispatch queue right now. */
    std::size_t queueDepth() const { return queue.size(); }
    /** Requests that ever waited in the dispatch queue. */
    std::uint64_t queued() const { return queuedCount; }
    /** Requests dropped because every replica was down. */
    std::uint64_t unroutable() const { return unroutableCount; }
    /** Requests routed past a down primary to a later replica. */
    std::uint64_t failovers() const { return failoverCount; }
    /** @} */

  private:
    struct QueuedRequest {
        server::RequestPtr request;
        server::RespondFn respond;
        SimTime enqueuedAt = 0;
        /** Healthy replicas at enqueue time (re-filtered at pop). */
        std::vector<std::uint32_t> candidates;
    };

    /** Hand @p request to backend @p b and arm the completion path. */
    void dispatch(std::uint32_t b, server::RequestPtr request,
                  server::RespondFn respond);

    /** A slot freed: dispatch queue heads while they fit. */
    void drainQueue();

    sim::Simulation &sim;
    BalancerParams params;
    HashRing ring;
    std::unique_ptr<SchedulingPolicy> policy;
    std::vector<server::Service *> backends;

    std::vector<std::uint64_t> inflight;      ///< Per backend.
    std::vector<std::uint64_t> dispatchCount; ///< Per backend.
    /** Dispatch queue ordered by (policy priority, arrival seq). */
    std::map<std::pair<double, std::uint64_t>, QueuedRequest> queue;
    std::uint64_t nextQueueSeq = 0;
    std::uint64_t queuedCount = 0;
    std::uint64_t unroutableCount = 0;
    std::uint64_t failoverCount = 0;

    /** Scratch replica buffers (reused; dispatch allocates nothing
     *  once warm). */
    std::vector<std::uint32_t> scratchReplicas;
    std::vector<std::uint32_t> scratchHealthy;
    std::vector<std::uint32_t> scratchFree;

    /** @name Registry handles ("lb.*", resolved once)
     * @{
     */
    obs::Counter &dispatchedCounter;
    obs::Counter &queuedCounter;
    obs::Counter &unroutableCounter;
    obs::Counter &failoversCounter;
    obs::Gauge &queueDepthGauge;
    obs::Histogram &queueWaitHist;
    std::vector<obs::Counter *> backendDispatched;
    std::vector<obs::Gauge *> backendInflight;
    /** @} */
};

} // namespace lb
} // namespace treadmill

#endif // TREADMILL_LB_BALANCER_H_
