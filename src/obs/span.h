/**
 * @file
 * Request tracing: sampled per-attempt span trees, the single record
 * of request timing, exported as span JSON, as Chrome trace-event JSON
 * (loadable in Perfetto / chrome://tracing) and as a per-request
 * latency-decomposition CSV.
 *
 * A SpanTrace owns the whole life of one *logical* request: one
 * AttemptSpan per wire attempt (original / retry-k / hedge), each
 * carrying the full hop timeline including the cluster-tier stamps
 * (balancer arrival/dispatch, fabric transit, backend residence) and
 * the resilience stamps (trigger instant, timeout instant). Exactly
 * one attempt is marked as the winner -- the one whose response the
 * client consumed.
 *
 * On top of the raw spans, extractCriticalPath() computes the exact
 * segment chain that determined clientReceive: timeout waits, retry
 * backoffs, and hedge waits on the losing side, then the winning
 * attempt's wire path hop by hop. Segments share endpoints, so the
 * integer-nanosecond sum telescopes *exactly* to end-to-end latency;
 * ClusterDecomposition aggregates the chain per segment kind, while
 * Decomposition splits the winning attempt into the eight components
 * the paper attributes (client queueing, network, server queueing,
 * service).
 *
 * Everything here is plain data over util only (obs sits at the bottom
 * of the layering DAG); producers in core copy Request stamps in.
 */

#ifndef TREADMILL_OBS_SPAN_H_
#define TREADMILL_OBS_SPAN_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry.h"
#include "util/types.h"

namespace treadmill {
namespace obs {

/** Tracing knobs; disabled recording costs one branch per request. */
struct TraceConfig {
    bool enabled = false;
    /** Record every Nth completed request (1 = all). */
    std::uint64_t sampleEvery = 1;
    /** Hard cap on retained spans (newest dropped once full). */
    std::size_t maxTraces = 1u << 20;
};

/**
 * A named wall-of-time annotation overlaid on the trace, e.g. an
 * injected fault window. Kept as a plain struct so producers (the
 * fault injector) need no dependency on obs beyond this header.
 */
struct TraceAnnotation {
    std::string name;     ///< Display label ("server_stall").
    SimTime start = 0;    ///< Window start (simulated ns).
    SimTime end = 0;      ///< Window end (simulated ns).
};

/** Why an attempt was sent. */
enum class AttemptCause : std::uint8_t {
    Scheduled = 0, ///< The open-loop schedule's first send.
    Retry = 1,     ///< A timeout elapsed and the retry budget allowed.
    Hedge = 2,     ///< The hedge timer fired unanswered.
};

/** Display name of @p cause ("scheduled", "retry", "hedge"). */
const char *attemptCauseName(AttemptCause cause);

/** Attempts retained inline per span; extras beyond this are counted
 *  in SpanTrace::attemptCount but their stamps are dropped (the winner
 *  is always retained). */
constexpr std::uint32_t kMaxSpanAttempts = 8;

/**
 * The hop timeline of one wire attempt. Stamps are kNoTime until the
 * attempt reached that hop; losing attempts legitimately stop partway
 * (e.g. a hedge still in flight when the primary answered).
 */
struct AttemptSpan {
    std::uint64_t seqId = 0;
    std::uint32_t attempt = 0; ///< 0 = first send, 1+ = clones.
    AttemptCause cause = AttemptCause::Scheduled;
    bool hedged = false;
    bool won = false;       ///< This attempt's response was consumed.
    bool lbDropped = false; ///< Balancer dropped it (replicas down).
    std::int32_t backendId = -1; ///< Shard dispatched to; -1 = none.
    std::uint32_t lbFailovers = 0; ///< Down replicas skipped at dispatch.

    /** @name Client-side stamps
     * @{ */
    SimTime triggerAt = kNoTime;  ///< Client decided to send it.
    SimTime clientSend = kNoTime; ///< Left the client CPU.
    SimTime timeoutAt = kNoTime;  ///< Its timeout fired (if ever).
    /** @} */

    /** @name Router / classic-server stamps
     * @{ */
    SimTime nicArrival = kNoTime;
    SimTime workerStart = kNoTime;
    SimTime workerEnd = kNoTime;
    SimTime nicDeparture = kNoTime;
    /** @} */

    /** @name Cluster-tier stamps (kNoTime on the classic path)
     * @{ */
    SimTime lbArrival = kNoTime;
    SimTime lbDispatch = kNoTime;
    SimTime backendNicArrival = kNoTime;
    SimTime backendWorkerStart = kNoTime;
    SimTime backendWorkerEnd = kNoTime;
    SimTime backendNicDeparture = kNoTime;
    SimTime routerReturn = kNoTime;
    /** @} */

    /** @name Client-side completion stamps
     * @{ */
    SimTime clientNicArrival = kNoTime;
    SimTime clientReceive = kNoTime;
    /** @} */
};

/** The full attempt tree of one completed logical request. */
struct SpanTrace {
    std::uint64_t logicalSeqId = 0;
    std::uint64_t connectionId = 0; ///< First attempt's connection.
    std::uint64_t clientIndex = 0;
    bool isGet = true;
    bool hit = false;

    SimTime intendedSend = kNoTime;  ///< Open-loop schedule instant.
    SimTime clientReceive = kNoTime; ///< Winning response consumed.

    std::uint32_t attemptCount = 0; ///< Wire attempts actually sent.
    std::uint32_t stored = 0;       ///< Attempts retained below.
    std::int32_t winner = -1;       ///< Index of the winning attempt.
    std::array<AttemptSpan, kMaxSpanAttempts> attempts{};

    double
    endToEndUs() const
    {
        return toMicros(clientReceive - intendedSend);
    }

    /** The attempt whose response was consumed (winner must be set). */
    const AttemptSpan &
    winning() const
    {
        return attempts[static_cast<std::size_t>(winner)];
    }
};

/**
 * True when every *stamped* hop of @p a is monotone in lifecycle
 * order (unset stamps are skipped; a partial timeline can still be
 * monotone).
 */
bool attemptMonotonic(const AttemptSpan &a);

/**
 * True when the span is structurally sound: a valid winner index,
 * exactly one attempt marked won, every retained attempt monotone,
 * and the winning attempt's end-to-end timeline complete
 * (triggerAt through clientReceive all stamped).
 */
bool spanComplete(const SpanTrace &span);

/**
 * One segment kind of the critical path. The first block are
 * *pre-win* waits (the losing side of retries and hedges); the rest
 * are hops of the winning attempt's wire path. Classic
 * (non-cluster) runs use ServerQueue/Service/ServerNic; cluster runs
 * split the same interval into router, balancer, fabric, and backend
 * segments.
 */
enum class SegmentKind : std::uint8_t {
    ClientQueue = 0, ///< Trigger to actual send (client CPU queue).
    TimeoutWait,     ///< Send to timeout of a failed attempt.
    FailoverWait,    ///< Timeout window of a balancer-dropped attempt.
    RetryBackoff,    ///< Timeout to the next attempt's trigger.
    HedgeWait,       ///< Primary send to the winning hedge's trigger.
    NetRequest,      ///< Client NIC to server NIC.
    RouterQueue,     ///< Router NIC to router worker (cluster).
    RouterService,   ///< Router deserialize up to the balancer.
    LbQueue,         ///< Balancer arrival to dispatch.
    FabricRequest,   ///< Dispatch to backend NIC.
    BackendQueue,    ///< Backend NIC to backend worker.
    BackendService,  ///< Backend worker execution.
    BackendNic,      ///< Backend worker end to backend NIC out.
    FabricResponse,  ///< Backend NIC out to router return.
    RouterEgress,    ///< Router return to router serialize end.
    ServerQueue,     ///< Server NIC to worker (classic path).
    Service,         ///< Worker execution (classic path).
    ServerNic,       ///< Worker end to server NIC out.
    NetResponse,     ///< Server NIC out to client NIC.
    ClientDeliver,   ///< Client NIC to response callback.
};

/** Number of SegmentKind values. */
constexpr std::size_t kSegmentKindCount =
    static_cast<std::size_t>(SegmentKind::ClientDeliver) + 1;

/** Display names indexed by SegmentKind, in declaration order. */
const std::vector<std::string> &segmentKindNames();

/** One hop (or wait) of a critical path. */
struct PathSegment {
    SegmentKind kind = SegmentKind::ClientQueue;
    SimTime begin = 0;
    SimTime end = 0;
    /** Attempt the segment belongs to (index into SpanTrace). */
    std::int32_t attempt = -1;
    /** Backend the time is attributable to; -1 = client/net/router. */
    std::int32_t backendId = -1;

    SimDuration
    ns() const
    {
        return end - begin;
    }
};

/** Upper bound on segments per path: ~12 wire hops for the winner
 *  plus three waits per losing attempt. */
constexpr std::size_t kMaxPathSegments = 12 + 3 * kMaxSpanAttempts;

/** The exact segment chain that determined one span's completion. */
struct CriticalPath {
    std::array<PathSegment, kMaxPathSegments> segments{};
    std::size_t count = 0;
    SimTime startAt = 0; ///< == span.intendedSend.
    SimTime endAt = 0;   ///< == span.clientReceive.

    /** Exact integer sum of the segment durations. */
    SimDuration totalNs() const;
};

/**
 * Extract the critical path of @p span into @p out. Returns false
 * (leaving @p out empty) when the span is incomplete. On success the
 * segments tile [intendedSend, clientReceive] with shared endpoints:
 * totalNs() == clientReceive - intendedSend holds exactly.
 */
bool extractCriticalPath(const SpanTrace &span, CriticalPath &out);

/**
 * Per-kind aggregation of one span's critical path: the cluster-aware
 * decomposition. Integer-nanosecond sums per SegmentKind, telescoping
 * exactly to end-to-end; plus the hedge-overlap diagnostic (time the
 * primary and its hedge were in flight simultaneously -- *not* a
 * critical-path segment, the overlap is the point of hedging).
 */
struct ClusterDecomposition {
    std::array<SimDuration, kSegmentKindCount> ns{};
    SimDuration endToEndNs = 0;
    SimDuration hedgeOverlapNs = 0;
    bool valid = false; ///< False when the span was incomplete.

    SimDuration totalNs() const;

    double
    us(SegmentKind kind) const
    {
        return toMicros(ns[static_cast<std::size_t>(kind)]);
    }

    double
    endToEndUs() const
    {
        return toMicros(endToEndNs);
    }

    static ClusterDecomposition of(const SpanTrace &span);
};

/**
 * The flat full-path latency decomposition of one request, in
 * microseconds: the winning attempt's timeline split at its stamps.
 *
 * The eight components partition [intendedSend, clientReceive], so
 * totalUs() equals endToEndUs exactly (integer-nanosecond stamps).
 */
struct Decomposition {
    double preWinUs = 0.0;        ///< Retry/hedge policy delay before the
                                  ///< winning attempt was even triggered:
                                  ///< intendedSend->winner triggerAt.
    double clientQueueUs = 0.0;   ///< Send slip: triggerAt->clientSend.
    double netRequestUs = 0.0;    ///< clientSend->nicArrival.
    double serverQueueUs = 0.0;   ///< NIC-to-worker wait:
                                  ///< nicArrival->workerStart.
    double serviceUs = 0.0;       ///< workerStart->workerEnd.
    double serverNicUs = 0.0;     ///< workerEnd->nicDeparture.
    double netResponseUs = 0.0;   ///< nicDeparture->clientNicArrival.
    double clientDeliverUs = 0.0; ///< Kernel + callback:
                                  ///< clientNicArrival->clientReceive.
    double endToEndUs = 0.0;      ///< intendedSend->clientReceive.

    /** Sum of the eight components. */
    double totalUs() const;

    /**
     * Decompose @p span's winning attempt (its stamps must be
     * complete; panics when the span has no winner). A trigger
     * outside [intendedSend, clientSend] degrades to the
     * single-attempt split with no pre-win wait.
     */
    static Decomposition of(const SpanTrace &span);
};

/** Component display names, in path order (matches Decomposition). */
const std::vector<std::string> &decompositionComponentNames();

/** Component values of @p d in the same order as the names. */
std::vector<double> decompositionComponents(const Decomposition &d);

/**
 * Render spans as a per-request decomposition CSV: one row per span
 * (keyed by the winning attempt's seq id) with the eight component
 * latencies, their sum, and the end-to-end latency (all
 * microseconds).
 */
std::string decompositionCsv(const std::vector<SpanTrace> &spans);

/**
 * Collects sampled SpanTraces during a run. Sampling is by completion
 * order modulo TraceConfig::sampleEvery -- deterministic given the
 * simulation's event order, and independent of any Rng stream, so
 * enabling tracing cannot perturb a run.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(const TraceConfig &config = {});

    /** Pre-size retention so steady-state recording never grows the
     *  vector (@p expected completions, before sampling). */
    void reserveFor(std::size_t expected);

    // tmlint:hot-path-begin -- called once per completed logical
    // request when tracing is on; must stay alloc- and string-free.
    /** Offer one completed span; returns true if it was retained. */
    bool
    record(const SpanTrace &span)
    {
        if (!cfg.enabled)
            return false;
        const bool sampled = offered % cfg.sampleEvery == 0;
        ++offered;
        if (!sampled || retained.size() >= cfg.maxTraces)
            return false;
        retained.push_back(span);
        return true;
    }
    // tmlint:hot-path-end

    /** Spans offered so far (sampled or not). */
    std::uint64_t seen() const { return offered; }

    const std::vector<SpanTrace> &spans() const { return retained; }

    /** Move the retained spans out (recorder keeps counting). */
    std::vector<SpanTrace> takeSpans();

  private:
    TraceConfig cfg;
    std::vector<SpanTrace> retained;
    std::uint64_t offered = 0;
};

/**
 * Render spans as a standalone JSON document for external tooling and
 * CI validation: {"spans": [{logical, client, winner, attempts:
 * [{seq, attempt, cause, won, backend, stamps...}]}]}. Deterministic
 * ordering, integer microsecond-scaled stamps with 3 decimals.
 */
std::string spanJson(const std::vector<SpanTrace> &spans);

/**
 * Render spans into Chrome trace-event JSON: one "process" per
 * client, one lane per wire attempt (labelled original/retry-k/
 * hedge), each lane tiled with its critical-path or hop segments.
 * Optional @p annotations (fault windows) render as spans on a
 * dedicated "faults" process (pid -1), and an optional @p telemetry
 * series renders as "ph":"C" counter tracks on a dedicated
 * "telemetry" process (pid -2), so one document carries requests,
 * faults and gauges on a shared clock.
 */
std::string chromeSpanJson(
    const std::vector<SpanTrace> &spans,
    const std::vector<TraceAnnotation> &annotations = {},
    const TelemetrySeries *telemetry = nullptr);

} // namespace obs
} // namespace treadmill

#endif // TREADMILL_OBS_SPAN_H_
