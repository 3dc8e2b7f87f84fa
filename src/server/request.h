/**
 * @file
 * Request/response representation shared by clients and servers.
 *
 * A Request carries its own timeline: every component that touches it
 * stamps the simulated clock, so any latency decomposition the paper
 * performs (client-side, network, server residence, Fig 3) falls out
 * of simple timestamp differences.
 */

#ifndef TREADMILL_SERVER_REQUEST_H_
#define TREADMILL_SERVER_REQUEST_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/inline_function.h"
#include "util/pool.h"
#include "util/types.h"

namespace treadmill {
namespace server {

/** Memcached-protocol operation type. */
enum class OpType { Get, Set };

/** One in-flight request and its accumulated timeline. */
struct Request {
    std::uint64_t seqId = 0;
    std::uint64_t connectionId = 0;
    std::uint64_t clientIndex = 0; ///< Which load-tester instance sent it.

    /** @name Resilience bookkeeping
     * Every wire attempt gets a fresh seqId, but all attempts of one
     * logical request share logicalSeqId and the original intendedSend,
     * so clientLatencyUs() on whichever attempt completes first spans
     * from the instant the open-loop schedule meant to issue the
     * request (paper SII: latency includes everything the client waited
     * through, retries included).
     * @{
     */
    std::uint64_t logicalSeqId = 0; ///< Stable across retries/hedges.
    std::uint32_t attempt = 0;      ///< 0 = first send, 1+ = retries.
    bool hedged = false;            ///< True for hedge (backup) sends.
    /** @} */

    OpType op = OpType::Get;
    std::string key;
    /** Backend shard that served the request (-1 = direct path,
     *  no balancer tier involved). Stamped by the load balancer at
     *  dispatch so attribution can split "backend N got slow" from
     *  "the balancer queued". */
    std::int32_t backendId = -1;
    std::uint32_t valueBytes = 0;   ///< SET payload size.
    std::uint32_t requestBytes = 0; ///< Wire size of the request packet.
    std::uint32_t responseBytes = 0; ///< Wire size of the response.
    bool hit = false;               ///< GET outcome.

    /** @name Timeline (kNoTime until stamped)
     * @{
     */
    SimTime intendedSend = kNoTime; ///< Open-loop schedule instant.
    SimTime clientSend = kNoTime;   ///< Actually left the client.
    SimTime nicArrival = kNoTime;   ///< Reached the server NIC.
    SimTime workerStart = kNoTime;  ///< Began worker processing.
    SimTime workerEnd = kNoTime;    ///< Finished worker processing.
    SimTime nicDeparture = kNoTime; ///< Response left the server NIC.
    SimTime clientNicArrival = kNoTime; ///< Response hit the client NIC.
    SimTime clientReceive = kNoTime; ///< Response callback ran.
    /** @} */

    /** @name Per-attempt resilience stamps
     * triggerAt is the instant the client decided to send *this*
     * attempt: the intendedSend for the scheduled first attempt, the
     * backoff/hedge timer firing for clones. The gap
     * [intendedSend, triggerAt] is the pre-win wait the decomposition
     * must account explicitly (it is retry/hedge policy delay, not
     * client queueing). timeoutAt records when this attempt's timeout
     * fired, kNoTime if it never did.
     * @{
     */
    SimTime triggerAt = kNoTime;
    SimTime timeoutAt = kNoTime;
    /** @} */

    /** @name Cluster-tier hop stamps (kNoTime on the classic path)
     * Stamped along the router -> balancer -> fabric -> backend chain
     * so span traces can split LB queueing, fabric transit, and
     * backend residence out of what used to collapse into one opaque
     * worker interval.
     * @{
     */
    SimTime lbArrival = kNoTime;  ///< Entered the balancer.
    SimTime lbDispatch = kNoTime; ///< Left the balancer queue.
    SimTime backendNicArrival = kNoTime;  ///< Reached the shard NIC.
    SimTime backendWorkerStart = kNoTime; ///< Shard worker began.
    SimTime backendWorkerEnd = kNoTime;   ///< Shard worker finished.
    SimTime backendNicDeparture = kNoTime; ///< Left the shard NIC.
    SimTime routerReturn = kNoTime; ///< Response back at the router.
    /** Healthy-failover hops: down replicas skipped ahead of the one
     *  that got this attempt. */
    std::uint32_t lbFailovers = 0;
    /** The balancer dropped this attempt (every replica down). */
    bool lbDropped = false;
    /** @} */

    /** End-to-end latency as the load tester perceives it, in us. */
    double
    clientLatencyUs() const
    {
        return toMicros(clientReceive - intendedSend);
    }

    /** Server residence (NIC in to NIC out), in us. */
    double
    serverLatencyUs() const
    {
        return toMicros(nicDeparture - nicArrival);
    }
};

using RequestPtr = std::shared_ptr<Request>;

/**
 * Free-list arena for Request objects. make() replaces make_shared on
 * the issue path: the shared_ptr control block and the Request land in
 * one recycled block, so a warmed-up client issues requests without
 * heap allocation. Outstanding RequestPtr handles keep the arena
 * alive, so pool and simulation teardown order does not matter.
 */
using RequestPool = util::Pool<Request>;

/**
 * Callback delivering a completed response; the request handle is
 * passed on, not copied. Move-only and the size of a std::function:
 * captures up to 24 bytes (the harness's response path) live inline,
 * and a response callback nested in another's capture is boxed.
 */
using RespondFn = util::InlineFunction<void(RequestPtr), 24>;

/**
 * Anything that accepts requests at its NIC and eventually responds.
 */
class Service
{
  public:
    virtual ~Service() = default;

    /**
     * Deliver @p request, already stamped with nicArrival. The service
     * invokes @p respond once the response is ready to leave its NIC
     * (nicDeparture stamped).
     */
    virtual void receive(RequestPtr request, RespondFn respond) = 0;

    /** False while the service cannot answer (crashed); a balancer
     *  routes around a down backend. */
    virtual bool up() const { return true; }
};

} // namespace server
} // namespace treadmill

#endif // TREADMILL_SERVER_REQUEST_H_
