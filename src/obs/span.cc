#include "obs/span.h"

#include <algorithm>
#include <optional>
#include <set>
#include <string_view>

#include "util/json.h"
#include "util/logging.h"
#include "util/strings.h"

namespace treadmill {
namespace obs {

const char *
attemptCauseName(AttemptCause cause)
{
    switch (cause) {
      case AttemptCause::Scheduled:
        return "scheduled";
      case AttemptCause::Retry:
        return "retry";
      case AttemptCause::Hedge:
        return "hedge";
    }
    return "unknown";
}

namespace {

/** The lifecycle order of every AttemptSpan stamp. */
constexpr std::size_t kAttemptStampCount = 15;

void
attemptStamps(const AttemptSpan &a,
              SimTime (&out)[kAttemptStampCount])
{
    out[0] = a.triggerAt;
    out[1] = a.clientSend;
    out[2] = a.nicArrival;
    out[3] = a.workerStart;
    out[4] = a.lbArrival;
    out[5] = a.lbDispatch;
    out[6] = a.backendNicArrival;
    out[7] = a.backendWorkerStart;
    out[8] = a.backendWorkerEnd;
    out[9] = a.backendNicDeparture;
    out[10] = a.routerReturn;
    out[11] = a.workerEnd;
    out[12] = a.nicDeparture;
    out[13] = a.clientNicArrival;
    out[14] = a.clientReceive;
}

} // namespace

bool
attemptMonotonic(const AttemptSpan &a)
{
    SimTime stamps[kAttemptStampCount];
    attemptStamps(a, stamps);
    SimTime last = 0;
    for (SimTime stamp : stamps) {
        if (stamp == kNoTime)
            continue;
        if (stamp < last)
            return false;
        last = stamp;
    }
    // The timeout, when it fired, fired after the attempt was sent.
    if (a.timeoutAt != kNoTime &&
        (a.clientSend == kNoTime || a.timeoutAt < a.clientSend))
        return false;
    return true;
}

bool
spanComplete(const SpanTrace &span)
{
    if (span.intendedSend == kNoTime || span.clientReceive == kNoTime)
        return false;
    if (span.stored == 0 || span.stored > kMaxSpanAttempts)
        return false;
    if (span.winner < 0 ||
        static_cast<std::uint32_t>(span.winner) >= span.stored)
        return false;
    std::uint32_t winners = 0;
    for (std::uint32_t i = 0; i < span.stored; ++i) {
        const AttemptSpan &a = span.attempts[i];
        if (a.won)
            ++winners;
        if (!attemptMonotonic(a))
            return false;
    }
    if (winners != 1 ||
        !span.attempts[static_cast<std::size_t>(span.winner)].won)
        return false;

    const AttemptSpan &w =
        span.attempts[static_cast<std::size_t>(span.winner)];
    const SimTime required[] = {w.triggerAt,    w.clientSend,
                                w.nicArrival,   w.workerStart,
                                w.workerEnd,    w.nicDeparture,
                                w.clientNicArrival, w.clientReceive};
    for (SimTime stamp : required)
        if (stamp == kNoTime)
            return false;
    return w.triggerAt >= span.intendedSend &&
           w.clientReceive == span.clientReceive;
}

const std::vector<std::string> &
segmentKindNames()
{
    static const std::vector<std::string> names = {
        "client queue",   "timeout wait", "failover wait",
        "retry backoff",  "hedge wait",   "net request",
        "router queue",   "router service", "lb queue",
        "fabric request", "backend queue", "backend service",
        "backend nic",    "fabric response", "router egress",
        "server queue",   "service",      "server nic",
        "net response",   "client deliver"};
    return names;
}

SimDuration
CriticalPath::totalNs() const
{
    SimDuration sum = 0;
    for (std::size_t i = 0; i < count; ++i)
        sum += segments[i].ns();
    return sum;
}

namespace {

/** Append-with-invariants helper for extractCriticalPath: every
 *  segment must start where the previous one ended and must not run
 *  backwards. */
class PathBuilder
{
  public:
    PathBuilder(CriticalPath &path, SimTime start)
        : out(path), cursor(start)
    {
        out.count = 0;
    }

    bool
    push(SegmentKind kind, SimTime begin, SimTime end,
         std::int32_t attempt, std::int32_t backendId)
    {
        if (begin != cursor || end < begin || end == kNoTime ||
            out.count >= kMaxPathSegments)
            return false;
        PathSegment &seg = out.segments[out.count++];
        seg.kind = kind;
        seg.begin = begin;
        seg.end = end;
        seg.attempt = attempt;
        seg.backendId = backendId;
        cursor = end;
        return true;
    }

    SimTime at() const { return cursor; }

    void
    restart(SimTime start)
    {
        out.count = 0;
        cursor = start;
    }

  private:
    CriticalPath &out;
    SimTime cursor;
};

/** True when the winning attempt carries the full cluster-hop
 *  timeline (it crossed a balancer tier). */
bool
hasClusterStamps(const AttemptSpan &w)
{
    return w.lbArrival != kNoTime && w.lbDispatch != kNoTime &&
           w.backendNicArrival != kNoTime &&
           w.backendWorkerStart != kNoTime &&
           w.backendWorkerEnd != kNoTime &&
           w.backendNicDeparture != kNoTime &&
           w.routerReturn != kNoTime;
}

/**
 * The pre-win chain for a retry winner: every earlier primary
 * (non-hedged) attempt contributed [trigger -> send] client queueing,
 * [send -> timeout] waiting on an unanswered attempt, and
 * [timeout -> next trigger] backoff. Returns false when a stamp is
 * missing (e.g. intermediate attempts dropped past the retention
 * cap); the caller then collapses the whole pre-win gap into one
 * catch-all backoff segment to keep the telescoping exact.
 */
bool
pushRetryChain(PathBuilder &b, const SpanTrace &span,
               const AttemptSpan &w)
{
    // Indices of the failed primaries ahead of the winner, already in
    // send (= trigger) order because attempts are stored as sent.
    std::int32_t chain[kMaxSpanAttempts];
    std::size_t chainLen = 0;
    for (std::uint32_t i = 0; i < span.stored; ++i) {
        const AttemptSpan &a = span.attempts[i];
        if (static_cast<std::int32_t>(i) == span.winner || a.hedged)
            continue;
        if (a.triggerAt == kNoTime || a.triggerAt >= w.triggerAt)
            continue;
        chain[chainLen++] = static_cast<std::int32_t>(i);
    }
    for (std::size_t k = 0; k < chainLen; ++k) {
        const AttemptSpan &p =
            span.attempts[static_cast<std::size_t>(chain[k])];
        if (p.clientSend == kNoTime || p.timeoutAt == kNoTime)
            return false;
        const SimTime nextTrigger =
            k + 1 < chainLen
                ? span.attempts[static_cast<std::size_t>(chain[k + 1])]
                      .triggerAt
                : w.triggerAt;
        if (!b.push(SegmentKind::ClientQueue, p.triggerAt,
                    p.clientSend, chain[k], -1))
            return false;
        if (!b.push(p.lbDropped ? SegmentKind::FailoverWait
                                : SegmentKind::TimeoutWait,
                    p.clientSend, p.timeoutAt, chain[k], p.backendId))
            return false;
        if (!b.push(SegmentKind::RetryBackoff, p.timeoutAt,
                    nextTrigger, chain[k], -1))
            return false;
    }
    return chainLen > 0;
}

} // namespace

bool
extractCriticalPath(const SpanTrace &span, CriticalPath &out)
{
    out.count = 0;
    if (!spanComplete(span))
        return false;
    const std::size_t widx = static_cast<std::size_t>(span.winner);
    const AttemptSpan &w = span.attempts[widx];

    PathBuilder b(out, span.intendedSend);

    // --- Pre-win waits: how the clock got from intendedSend to the
    // winning attempt's trigger. ---
    if (w.triggerAt > span.intendedSend) {
        bool covered = false;
        if (w.cause == AttemptCause::Hedge && span.stored > 0 &&
            !span.attempts[0].hedged) {
            // The hedge fired while the primary sat unanswered: the
            // whole wait from the primary's send to the hedge trigger
            // is attributable to the backend the primary was on
            // (timeouts/backoffs inside that window are collapsed --
            // the client was waiting on *some* unanswered attempt
            // either way).
            const AttemptSpan &a0 = span.attempts[0];
            if (a0.clientSend != kNoTime &&
                a0.clientSend <= w.triggerAt) {
                covered =
                    b.push(SegmentKind::ClientQueue, span.intendedSend,
                           a0.clientSend, 0, -1) &&
                    b.push(SegmentKind::HedgeWait, a0.clientSend,
                           w.triggerAt, 0, a0.backendId);
            }
        } else if (w.cause == AttemptCause::Retry) {
            covered = pushRetryChain(b, span, w);
        }
        if (!covered || b.at() != w.triggerAt) {
            // Catch-all: retention overflow or a partial chain. Keep
            // the telescoping exact with one collapsed wait segment.
            b.restart(span.intendedSend);
            if (!b.push(w.cause == AttemptCause::Hedge
                            ? SegmentKind::HedgeWait
                            : SegmentKind::RetryBackoff,
                        span.intendedSend, w.triggerAt, -1, -1))
                return false;
        }
    }

    // --- The winning attempt's wire path, hop by hop. ---
    const auto wi = static_cast<std::int32_t>(widx);
    bool ok = b.push(SegmentKind::ClientQueue, w.triggerAt,
                     w.clientSend, wi, -1) &&
              b.push(SegmentKind::NetRequest, w.clientSend,
                     w.nicArrival, wi, -1);
    if (ok && hasClusterStamps(w)) {
        ok = b.push(SegmentKind::RouterQueue, w.nicArrival,
                    w.workerStart, wi, -1) &&
             b.push(SegmentKind::RouterService, w.workerStart,
                    w.lbArrival, wi, -1) &&
             b.push(SegmentKind::LbQueue, w.lbArrival, w.lbDispatch,
                    wi, w.backendId) &&
             b.push(SegmentKind::FabricRequest, w.lbDispatch,
                    w.backendNicArrival, wi, w.backendId) &&
             b.push(SegmentKind::BackendQueue, w.backendNicArrival,
                    w.backendWorkerStart, wi, w.backendId) &&
             b.push(SegmentKind::BackendService, w.backendWorkerStart,
                    w.backendWorkerEnd, wi, w.backendId) &&
             b.push(SegmentKind::BackendNic, w.backendWorkerEnd,
                    w.backendNicDeparture, wi, w.backendId) &&
             b.push(SegmentKind::FabricResponse, w.backendNicDeparture,
                    w.routerReturn, wi, w.backendId) &&
             b.push(SegmentKind::RouterEgress, w.routerReturn,
                    w.workerEnd, wi, -1);
    } else if (ok) {
        ok = b.push(SegmentKind::ServerQueue, w.nicArrival,
                    w.workerStart, wi, w.backendId) &&
             b.push(SegmentKind::Service, w.workerStart, w.workerEnd,
                    wi, w.backendId);
    }
    ok = ok &&
         b.push(SegmentKind::ServerNic, w.workerEnd, w.nicDeparture,
                wi, -1) &&
         b.push(SegmentKind::NetResponse, w.nicDeparture,
                w.clientNicArrival, wi, -1) &&
         b.push(SegmentKind::ClientDeliver, w.clientNicArrival,
                w.clientReceive, wi, -1);
    if (!ok) {
        out.count = 0;
        return false;
    }
    out.startAt = span.intendedSend;
    out.endAt = span.clientReceive;
    return true;
}

SimDuration
ClusterDecomposition::totalNs() const
{
    SimDuration sum = 0;
    for (SimDuration n : ns)
        sum += n;
    return sum;
}

ClusterDecomposition
ClusterDecomposition::of(const SpanTrace &span)
{
    ClusterDecomposition d;
    CriticalPath path;
    if (!extractCriticalPath(span, path))
        return d;
    for (std::size_t i = 0; i < path.count; ++i) {
        const PathSegment &seg = path.segments[i];
        d.ns[static_cast<std::size_t>(seg.kind)] += seg.ns();
    }
    d.endToEndNs = span.clientReceive - span.intendedSend;
    // Hedge-overlap diagnostic: both the primary and its hedge were in
    // flight from the hedge's send to the first response. Off the
    // critical path by definition -- overlap is what hedging buys.
    for (std::uint32_t i = 0; i < span.stored; ++i) {
        const AttemptSpan &a = span.attempts[i];
        if (a.hedged && a.clientSend != kNoTime &&
            a.clientSend < span.clientReceive) {
            d.hedgeOverlapNs = span.clientReceive - a.clientSend;
            break;
        }
    }
    d.valid = true;
    return d;
}

double
Decomposition::totalUs() const
{
    return preWinUs + clientQueueUs + netRequestUs + serverQueueUs +
           serviceUs + serverNicUs + netResponseUs + clientDeliverUs;
}

Decomposition
Decomposition::of(const SpanTrace &span)
{
    TM_ASSERT(span.winner >= 0 &&
                  static_cast<std::uint32_t>(span.winner) < span.stored,
              "span has no winning attempt");
    const AttemptSpan &w = span.winning();
    // The winning attempt's trigger instant, clamped to the timeline
    // so a malformed stamp degrades to the no-pre-win split.
    const SimTime trigger = w.triggerAt == kNoTime ||
                                    w.triggerAt < span.intendedSend ||
                                    w.triggerAt > w.clientSend
                                ? span.intendedSend
                                : w.triggerAt;
    Decomposition d;
    d.preWinUs = toMicros(trigger - span.intendedSend);
    d.clientQueueUs = toMicros(w.clientSend - trigger);
    d.netRequestUs = toMicros(w.nicArrival - w.clientSend);
    d.serverQueueUs = toMicros(w.workerStart - w.nicArrival);
    d.serviceUs = toMicros(w.workerEnd - w.workerStart);
    d.serverNicUs = toMicros(w.nicDeparture - w.workerEnd);
    d.netResponseUs = toMicros(w.clientNicArrival - w.nicDeparture);
    d.clientDeliverUs = toMicros(w.clientReceive - w.clientNicArrival);
    d.endToEndUs = toMicros(w.clientReceive - span.intendedSend);
    return d;
}

const std::vector<std::string> &
decompositionComponentNames()
{
    static const std::vector<std::string> names = {
        "pre-win wait",  "client queue", "net request",
        "server queue",  "service",      "server nic",
        "net response",  "client deliver"};
    return names;
}

std::vector<double>
decompositionComponents(const Decomposition &d)
{
    return {d.preWinUs,    d.clientQueueUs, d.netRequestUs,
            d.serverQueueUs, d.serviceUs,   d.serverNicUs,
            d.netResponseUs, d.clientDeliverUs};
}

std::string
decompositionCsv(const std::vector<SpanTrace> &spans)
{
    std::string out =
        "seq_id,client,op,hit,pre_win_us,client_queue_us,"
        "net_request_us,server_queue_us,service_us,server_nic_us,"
        "net_response_us,client_deliver_us,component_sum_us,"
        "end_to_end_us\n";
    for (const SpanTrace &s : spans) {
        const Decomposition d = Decomposition::of(s);
        out += strprintf(
            "%llu,%llu,%s,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,"
            "%.3f,%.3f\n",
            static_cast<unsigned long long>(s.winning().seqId),
            static_cast<unsigned long long>(s.clientIndex),
            s.isGet ? "get" : "set", s.hit ? 1 : 0, d.preWinUs,
            d.clientQueueUs, d.netRequestUs, d.serverQueueUs,
            d.serviceUs, d.serverNicUs, d.netResponseUs,
            d.clientDeliverUs, d.totalUs(), d.endToEndUs);
    }
    return out;
}

SpanRecorder::SpanRecorder(const TraceConfig &config) : cfg(config)
{
    if (cfg.sampleEvery == 0)
        cfg.sampleEvery = 1;
}

void
SpanRecorder::reserveFor(std::size_t expected)
{
    if (!cfg.enabled)
        return;
    retained.reserve(std::min(
        expected / static_cast<std::size_t>(cfg.sampleEvery) + 1,
        cfg.maxTraces));
}

std::vector<SpanTrace>
SpanRecorder::takeSpans()
{
    std::vector<SpanTrace> out = std::move(retained);
    retained.clear();
    return out;
}

namespace {

// The exporters stream through json::Writer, which requires ascending
// keys (Value::dump()'s member order): members go alphabetically.

std::int64_t
i64(std::uint64_t v)
{
    return static_cast<std::int64_t>(v);
}

/** Write a stamp member (microseconds) only when it is set, so partial
 *  attempt timelines serialize without sentinel noise. */
void
stampMember(json::Writer &w, std::string_view key, SimTime stamp)
{
    if (stamp != kNoTime)
        w.member(key, toMicros(stamp));
}

void
writeAttempt(json::Writer &w, const AttemptSpan &a)
{
    w.beginObject()
        .member("attempt", i64(a.attempt))
        .member("backend", std::int64_t{a.backendId});
    stampMember(w, "backend_nic_arrival_us", a.backendNicArrival);
    stampMember(w, "backend_nic_departure_us", a.backendNicDeparture);
    stampMember(w, "backend_worker_end_us", a.backendWorkerEnd);
    stampMember(w, "backend_worker_start_us", a.backendWorkerStart);
    w.member("cause", attemptCauseName(a.cause));
    stampMember(w, "client_nic_arrival_us", a.clientNicArrival);
    stampMember(w, "client_receive_us", a.clientReceive);
    stampMember(w, "client_send_us", a.clientSend);
    w.member("hedged", a.hedged);
    stampMember(w, "lb_arrival_us", a.lbArrival);
    stampMember(w, "lb_dispatch_us", a.lbDispatch);
    w.member("lb_dropped", a.lbDropped)
        .member("lb_failovers", i64(a.lbFailovers));
    stampMember(w, "nic_arrival_us", a.nicArrival);
    stampMember(w, "nic_departure_us", a.nicDeparture);
    stampMember(w, "router_return_us", a.routerReturn);
    w.member("seq", i64(a.seqId));
    stampMember(w, "timeout_us", a.timeoutAt);
    stampMember(w, "trigger_us", a.triggerAt);
    w.member("won", a.won);
    stampMember(w, "worker_end_us", a.workerEnd);
    stampMember(w, "worker_start_us", a.workerStart);
    w.endObject();
}

void
writeOtherData(json::Writer &w, const char *schema)
{
    w.key("otherData")
        .beginObject()
        .member("schema", schema)
        .member("tool", "treadmill")
        .endObject();
}

/** A "process_name"/"thread_name" metadata event. */
void
writeNameMeta(json::Writer &w, const char *kind, std::int64_t pid,
              std::optional<std::int64_t> tid, std::string_view label)
{
    w.beginObject()
        .key("args")
        .beginObject()
        .member("name", label)
        .endObject()
        .member("name", kind)
        .member("ph", "M")
        .member("pid", pid);
    if (tid)
        w.member("tid", *tid);
    w.endObject();
}

/** Tile one attempt's lane with every consecutive stamped hop. */
void
writeAttemptLane(json::Writer &w, const SpanTrace &s,
                 const AttemptSpan &a)
{
    const auto &names = segmentKindNames();
    // Which path a hop belongs to: the classic path renders
    // workerStart->workerEnd as one "service" hop; the cluster path
    // splits that interval via the lb/fabric/backend stamps instead.
    enum class Path : std::uint8_t { Any, Cluster, Classic };
    struct Hop {
        SimTime begin, end;
        SegmentKind kind;
        Path path;
    };
    const bool cluster = a.lbArrival != kNoTime;
    const Hop hops[] = {
        {a.triggerAt, a.clientSend, SegmentKind::ClientQueue, Path::Any},
        {a.clientSend, a.nicArrival, SegmentKind::NetRequest, Path::Any},
        {a.nicArrival, a.workerStart,
         cluster ? SegmentKind::RouterQueue : SegmentKind::ServerQueue,
         Path::Any},
        {a.workerStart, a.lbArrival, SegmentKind::RouterService,
         Path::Cluster},
        {a.lbArrival, a.lbDispatch, SegmentKind::LbQueue, Path::Cluster},
        {a.lbDispatch, a.backendNicArrival, SegmentKind::FabricRequest,
         Path::Cluster},
        {a.backendNicArrival, a.backendWorkerStart,
         SegmentKind::BackendQueue, Path::Cluster},
        {a.backendWorkerStart, a.backendWorkerEnd,
         SegmentKind::BackendService, Path::Cluster},
        {a.backendWorkerEnd, a.backendNicDeparture,
         SegmentKind::BackendNic, Path::Cluster},
        {a.backendNicDeparture, a.routerReturn,
         SegmentKind::FabricResponse, Path::Cluster},
        {a.routerReturn, a.workerEnd, SegmentKind::RouterEgress,
         Path::Cluster},
        {a.workerStart, a.workerEnd, SegmentKind::Service, Path::Classic},
        {a.workerEnd, a.nicDeparture, SegmentKind::ServerNic, Path::Any},
        {a.nicDeparture, a.clientNicArrival, SegmentKind::NetResponse,
         Path::Any},
        {a.clientNicArrival, a.clientReceive, SegmentKind::ClientDeliver,
         Path::Any},
    };
    for (const Hop &hop : hops) {
        if (hop.path != Path::Any && (hop.path == Path::Cluster) != cluster)
            continue;
        if (hop.begin == kNoTime || hop.end == kNoTime ||
            hop.end < hop.begin)
            continue;
        w.beginObject().key("args").beginObject().member(
            "attempt", i64(a.attempt));
        if (a.backendId >= 0)
            w.member("backend", std::int64_t{a.backendId});
        w.member("cause", attemptCauseName(a.cause))
            .member("logical", i64(s.logicalSeqId))
            .member("won", a.won)
            .endObject()
            .member("cat", "attempt")
            .member("dur", toMicros(hop.end - hop.begin))
            .member("name",
                    names[static_cast<std::size_t>(hop.kind)])
            .member("ph", "X")
            .member("pid", i64(s.clientIndex))
            .member("tid", i64(a.seqId))
            .member("ts", toMicros(hop.begin))
            .endObject();
    }
}

} // namespace

std::string
spanJson(const std::vector<SpanTrace> &spans)
{
    std::string out;
    json::Writer w(out);
    w.beginObject();
    writeOtherData(w, "span/1");
    w.key("spans").beginArray();
    for (const SpanTrace &s : spans) {
        w.beginObject()
            .member("attempt_count", i64(s.attemptCount))
            .key("attempts")
            .beginArray();
        for (std::uint32_t i = 0; i < s.stored; ++i)
            writeAttempt(w, s.attempts[i]);
        w.endArray().member("client", i64(s.clientIndex));
        stampMember(w, "client_receive_us", s.clientReceive);
        w.member("conn", i64(s.connectionId)).member("hit", s.hit);
        stampMember(w, "intended_send_us", s.intendedSend);
        w.member("logical", i64(s.logicalSeqId))
            .member("op", s.isGet ? "get" : "set")
            .member("winner", std::int64_t{s.winner})
            .endObject();
    }
    w.endArray().endObject();
    return out;
}

std::string
chromeSpanJson(const std::vector<SpanTrace> &spans,
               const std::vector<TraceAnnotation> &annotations,
               const TelemetrySeries *telemetry)
{
    std::string out;
    json::Writer w(out);
    w.beginObject().member("displayTimeUnit", "ms");
    writeOtherData(w, "span-lanes/1");
    w.key("traceEvents").beginArray();

    if (!annotations.empty()) {
        const std::int64_t faultPid = -1;
        writeNameMeta(w, "process_name", faultPid, std::nullopt,
                      "faults");
        for (const TraceAnnotation &a : annotations)
            w.beginObject()
                .member("cat", "fault")
                .member("dur", toMicros(a.end - a.start))
                .member("name", a.name)
                .member("ph", "X")
                .member("pid", faultPid)
                .member("tid", std::int64_t{0})
                .member("ts", toMicros(a.start))
                .endObject();
    }

    if (telemetry != nullptr && telemetry->ticks() > 0) {
        const std::int64_t telemetryPid = -2;
        writeNameMeta(w, "process_name", telemetryPid, std::nullopt,
                      "telemetry");
        for (std::size_t t = 0; t < telemetry->ticks(); ++t)
            for (std::size_t p = 0; p < telemetry->probes.size(); ++p)
                w.beginObject()
                    .key("args")
                    .beginObject()
                    .member("value", telemetry->values[p][t])
                    .endObject()
                    .member("cat", "telemetry")
                    .member("name", telemetry->probes[p])
                    .member("ph", "C")
                    .member("pid", telemetryPid)
                    .member("ts", toMicros(telemetry->at[t]))
                    .endObject();
    }

    std::set<std::uint64_t> clients;
    for (const SpanTrace &s : spans)
        clients.insert(s.clientIndex);
    for (std::uint64_t client : clients)
        writeNameMeta(w, "process_name", i64(client), std::nullopt,
                      strprintf("client %llu",
                                static_cast<unsigned long long>(client)));

    for (const SpanTrace &s : spans) {
        for (std::uint32_t i = 0; i < s.stored; ++i) {
            const AttemptSpan &a = s.attempts[i];
            writeNameMeta(
                w, "thread_name", i64(s.clientIndex), i64(a.seqId),
                strprintf("%llu/%s#%u%s",
                          static_cast<unsigned long long>(s.logicalSeqId),
                          attemptCauseName(a.cause), a.attempt,
                          a.won ? " win" : ""));
            writeAttemptLane(w, s, a);
        }
    }

    w.endArray().endObject();
    return out;
}

} // namespace obs
} // namespace treadmill
