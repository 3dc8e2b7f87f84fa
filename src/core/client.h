/**
 * @file
 * A load-tester instance on its own client machine.
 *
 * Each instance owns a controller (open- or closed-loop), a workload
 * generator, a sample collector, and a model of the client machine's
 * CPU: send construction and response-callback processing occupy the
 * client CPU, so an overloaded client queues -- the client-side
 * queueing bias of paper S II-C. A fixed kernel interrupt-handling
 * delay sits between the client NIC and user code, producing the
 * constant offset the paper observes between tcpdump and load-tester
 * measurements (Figs 5-6).
 */

#ifndef TREADMILL_CORE_CLIENT_H_
#define TREADMILL_CORE_CLIENT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/collector.h"
#include "core/controller.h"
#include "core/workload.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "server/request.h"
#include "sim/simulation.h"
#include "util/inline_function.h"
#include "util/rng.h"

namespace treadmill {
namespace core {

/**
 * Client-side failure handling: per-request timeout, capped-backoff
 * retry, and hedged (backup) requests.
 *
 * Latency discipline: all attempts of one logical request share the
 * original intendedSend stamp, so the recorded latency spans from the
 * instant the open-loop schedule meant to issue the request to the
 * first response -- retries and hedges make the tail *visible*, they
 * never reset the clock (paper S II's open-loop measurement rule).
 * Timed-out requests that exhaust their retries are counted as
 * failures, not recorded as fabricated latency samples.
 *
 * Disabled (the default), the client request path is byte-identical
 * to a build without this struct: no state, events, or Rng draws.
 */
struct ResiliencePolicy {
    bool enabled = false;

    /** Per-attempt timeout; 0 disables timeouts (and thus retries). */
    double timeoutUs = 0.0;

    /** @name Retry (after a timeout)
     * Retry k waits min(backoffCapUs, backoffBaseUs * 2^(k-1)),
     * scaled by a deterministic uniform jitter of +/-jitterFraction.
     * @{ */
    unsigned maxRetries = 0;
    double backoffBaseUs = 100.0;
    double backoffCapUs = 10000.0;
    double jitterFraction = 0.1;
    /** @} */

    /** @name Hedging
     * After hedgeDelayUs (or, when 0, the collector's running
     * hedgeQuantile estimate once hedgeMinSamples measurements exist)
     * without a response, send one backup copy; first answer wins.
     * hedgeDelayUs == 0 together with hedgeMinSamples == 0 is
     * rejected: the zero-sample quantile would fire the hedge at send
     * time, silently doubling offered load.
     * @{ */
    bool hedge = false;
    double hedgeDelayUs = 0.0;
    double hedgeQuantile = 0.95;
    std::uint64_t hedgeMinSamples = 50;
    /** @} */
};

/** Configuration of one load-tester instance. */
struct ClientParams {
    std::size_t index = 0; ///< Instance number (also the seq-id space).
    /** Open-loop issue rate for this instance. */
    double requestsPerSecond = 10000.0;
    /** Connections this instance multiplexes requests over. */
    unsigned connections = 16;
    ControlLoop loop = ControlLoop::OpenLoop;
    /** Outstanding slots when loop == ClosedLoop. */
    unsigned closedLoopSlots = 8;
    /** Pace the closed loop at requestsPerSecond (Mutilate's
     *  target-QPS mode); false = saturating worker loop. */
    bool rateLimitedClosedLoop = true;
    /** Rate-limited closed loop sends at exactly 1/rate intervals
     *  (Mutilate's deterministic pacing, the inter-arrival pitfall)
     *  instead of exponential ones. */
    bool uniformClosedLoopSpacing = true;
    SampleCollector::Params collector;
    /** @name Client machine model
     * @{
     */
    double sendCostUs = 1.0;    ///< CPU time to build + send a request.
    double receiveCostUs = 1.2; ///< CPU time for the response callback.
    double kernelDelayUs = 30.0; ///< NIC-to-user interrupt handling.
    /** @} */
    ResiliencePolicy resilience;
    /**
     * Build an obs::SpanTrace (the per-attempt tree) for every
     * completed logical request and hand it to the span sink. Off by
     * default: with it off the request path touches no span state at
     * all -- attempts are not retained and no stamps are copied.
     */
    bool recordSpans = false;
    std::uint64_t seed = 1;
};

/** One running load-tester instance. */
class LoadTesterInstance
{
  public:
    /** Hands a fully built request to the harness for transmission. */
    using TransmitFn = util::InlineFunction<void(server::RequestPtr), 24>;
    /** Observes each fully processed response (see
     *  setCompletionHook()). */
    using CompletionHook =
        util::InlineFunction<void(const server::RequestPtr &), 16>;
    /** Consumes each completed span (see setSpanSink()). */
    using SpanSink =
        util::InlineFunction<void(const obs::SpanTrace &), 16>;

    /**
     * @param sim Owning simulation.
     * @param params Instance configuration.
     * @param workload Workload description.
     * @param transmit Called when a request leaves the client NIC.
     */
    LoadTesterInstance(sim::Simulation &sim, const ClientParams &params,
                       const WorkloadConfig &workload,
                       TransmitFn transmit);

    LoadTesterInstance(const LoadTesterInstance &) = delete;
    LoadTesterInstance &operator=(const LoadTesterInstance &) = delete;

    /** Begin generating load. */
    void start();

    /** Stop issuing new requests (in-flight ones still complete). */
    void stopLoad();

    /** The harness delivers a response packet arriving at this
     *  client's NIC. */
    void onResponseDelivered(server::RequestPtr request);

    /** @name Observers
     * @{
     */
    const SampleCollector &collector() const { return samples; }
    bool done() const { return samples.done(); }
    std::size_t outstanding() const { return outstandingCount; }
    std::uint64_t issued() const { return issuedCount; }
    std::uint64_t received() const { return receivedCount; }
    /** Attempts that hit their timeout. */
    std::uint64_t timeouts() const { return timeoutCount; }
    /** Extra wire attempts sent by the retry policy. */
    std::uint64_t retries() const { return retryCount; }
    /** Backup requests sent by the hedging policy. */
    std::uint64_t hedges() const { return hedgeCount; }
    /** Logical requests whose hedge answered first. */
    std::uint64_t hedgeWins() const { return hedgeWinCount; }
    /** Logical requests abandoned after exhausting retries. */
    std::uint64_t failed() const { return failedCount; }
    /** Responses that arrived after their logical request completed,
     *  failed, or the measurement window closed. */
    std::uint64_t lateResponses() const { return lateCount; }
    /** Sends per outstanding-request count seen at the send instant
     *  (the Fig 1 distribution): entry k counts sends that found k
     *  requests in flight; the length is the largest k seen plus one. */
    const std::vector<std::uint64_t> &outstandingAtSend() const
    {
        return outstandingCounts;
    }
    /** Busy fraction of the client CPU. */
    double cpuUtilization() const;
    /** Slabs the request arena carved so far (pool-occupancy probe). */
    std::size_t requestPoolSlabs() const
    {
        return requestPool.slabCount();
    }
    const ClientParams &params() const { return cfg; }
    /** @} */

    /**
     * Install a hook invoked after each response has been fully
     * processed and sampled (used by the experiment harness for
     * latency decomposition and stop conditions).
     */
    void setCompletionHook(CompletionHook hook)
    {
        completionHook = std::move(hook);
    }

    /**
     * Install the consumer of completed spans (typically
     * obs::SpanRecorder::record via the harness). Only invoked when
     * ClientParams::recordSpans is set; the SpanTrace argument is a
     * scratch object reused across calls -- copy it if retained.
     */
    void setSpanSink(SpanSink sink)
    {
        spanSink = std::move(sink);
    }

  private:
    /** Per-logical-request resilience state, keyed by logicalSeqId. */
    struct PendingState {
        server::Request proto;    ///< Template for retry/hedge clones.
        unsigned retriesLeft = 0;
        std::uint32_t attemptsSent = 1;
        bool hedgeSent = false;
        /** Retries are exhausted but a hedge attempt is still in
         *  flight; one final timeout window runs before the logical
         *  request is declared failed. */
        bool awaitingHedge = false;
        sim::EventId timeoutEvent = 0;
        sim::EventId hedgeEvent = 0;
        sim::EventId retryEvent = 0; ///< Backoff-delayed retry send.
        /** @name Attempt retention (recordSpans only)
         * Every wire attempt is held alive until the logical request
         * completes so its stamps survive into the SpanTrace (losing
         * attempts keep partial timelines). The pool recycles them
         * when the entry is erased. Empty when recordSpans is off.
         * @{ */
        std::array<server::RequestPtr, obs::kMaxSpanAttempts> held;
        std::uint32_t heldCount = 0;
        /** Index (into held) of the newest non-hedged attempt -- the
         *  one whose timeout fires next. */
        std::uint32_t lastPrimaryHeld = 0;
        /** @} */
    };

    /** Controller callback: build and send one request. */
    void issueRequest(SimTime intendedSend);

    /** Occupy the client CPU, then transmit @p request. */
    void transmitAttempt(server::RequestPtr request);

    /** Arm the timeout (and, for first attempts, the hedge timer) of
     *  an attempt of @p logicalId that just left the client. */
    void armAttempt(std::uint64_t logicalId, std::uint32_t attempt,
                    bool hedged);

    /** An attempt of @p logicalId hit its timeout. */
    void onTimeout(std::uint64_t logicalId);

    /** The backoff delay of @p logicalId elapsed: send the retry. */
    void onRetryTimer(std::uint64_t logicalId);

    /** The hedge timer of @p logicalId fired unanswered. */
    void onHedgeTimer(std::uint64_t logicalId);

    /** Clone the prototype of @p state into a new wire attempt. */
    server::RequestPtr cloneAttempt(PendingState &state, bool hedged);

    /**
     * Build the span of a completed logical request into spanScratch
     * and hand it to the sink. @p state may be null (resilience
     * disabled: the single @p winner attempt is the whole span).
     */
    void recordSpan(const PendingState *state,
                    const server::RequestPtr &winner);

    sim::Simulation &sim;
    ClientParams cfg;
    WorkloadGenerator workload;
    /** Recycles Request blocks across the instance's lifetime; issue
     *  and clone paths allocate nothing once the arena is warm. */
    server::RequestPool requestPool;
    TransmitFn transmit;
    std::unique_ptr<LoadController> controller;
    SampleCollector samples;
    Rng rng;
    Rng resilienceRng; ///< Backoff jitter; untouched when disabled.

    SimTime cpuFreeAt = 0;
    SimDuration cpuBusy = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t nextConnection = 0;
    std::size_t outstandingCount = 0;
    std::uint64_t issuedCount = 0;
    std::uint64_t receivedCount = 0;
    std::uint64_t timeoutCount = 0;
    std::uint64_t retryCount = 0;
    std::uint64_t hedgeCount = 0;
    std::uint64_t hedgeWinCount = 0;
    std::uint64_t failedCount = 0;
    std::uint64_t lateCount = 0;
    std::vector<std::uint64_t> outstandingCounts;
    CompletionHook completionHook;
    SpanSink spanSink;
    /** Reused span buffer: recordSpan fills it in place, so span
     *  emission allocates nothing on the hot path. */
    obs::SpanTrace spanScratch;
    /** Logical requests awaiting their first response (resilience
     *  enabled only; empty and untouched otherwise). */
    std::unordered_map<std::uint64_t, PendingState> pending;

    /** @name Registry handles ("client<i>.*", resolved once)
     * @{
     */
    obs::Counter &issuedCounter;
    obs::Counter &receivedCounter;
    obs::Counter &timeoutsCounter;
    obs::Counter &retriesCounter;
    obs::Counter &hedgesCounter;
    obs::Counter &hedgeWinsCounter;
    obs::Counter &failedCounter;
    obs::Counter &lateCounter;
    obs::Histogram &sendSlipHist;     ///< intendedSend -> clientSend, us.
    obs::Histogram &outstandingHist;  ///< Outstanding at each send.
    obs::Gauge &outstandingGauge;
    /** @} */
};

} // namespace core
} // namespace treadmill

#endif // TREADMILL_CORE_CLIENT_H_
