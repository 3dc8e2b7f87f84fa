/** @file Unit tests for attempt spans, critical-path extraction, the
 *  flat and cluster-aware decompositions, and the span exports. */

#include "obs/span.h"

#include <gtest/gtest.h>

#include "util/json.h"

namespace treadmill {
namespace obs {
namespace {

/** A complete classic (non-cluster) winning attempt. */
AttemptSpan
classicAttempt(SimTime base = 1'000)
{
    AttemptSpan a;
    a.seqId = 7;
    a.won = true;
    a.triggerAt = base;
    a.clientSend = base + 500;
    a.nicArrival = base + 2'500;
    a.workerStart = base + 3'200;
    a.workerEnd = base + 8'200;
    a.nicDeparture = base + 8'500;
    a.clientNicArrival = base + 10'500;
    a.clientReceive = base + 10'750;
    return a;
}

/** The same winner routed through the cluster tier. */
AttemptSpan
clusterAttempt(SimTime base = 1'000)
{
    AttemptSpan a = classicAttempt(base);
    a.backendId = 2;
    a.lbArrival = base + 3'600;
    a.lbDispatch = base + 3'900;
    a.backendNicArrival = base + 4'400;
    a.backendWorkerStart = base + 5'000;
    a.backendWorkerEnd = base + 7'000;
    a.backendNicDeparture = base + 7'200;
    a.routerReturn = base + 7'700;
    return a;
}

SpanTrace
singleAttemptSpan(AttemptSpan winner)
{
    SpanTrace s;
    s.logicalSeqId = winner.seqId;
    s.intendedSend = winner.triggerAt;
    s.clientReceive = winner.clientReceive;
    s.attemptCount = 1;
    s.stored = 1;
    s.winner = 0;
    s.attempts[0] = winner;
    return s;
}

/** Primary timed out at 5'000, retry won. */
SpanTrace
retrySpan()
{
    SpanTrace s;
    s.logicalSeqId = 11;
    s.intendedSend = 1'000;
    s.attemptCount = 2;
    s.stored = 2;
    s.winner = 1;

    AttemptSpan primary;
    primary.seqId = 11;
    primary.backendId = 3;
    primary.triggerAt = 1'000;
    primary.clientSend = 1'400;
    primary.timeoutAt = 5'000;
    primary.nicArrival = 2'000; // In flight, never answered.
    s.attempts[0] = primary;

    AttemptSpan retry = classicAttempt(5'600); // Backoff 5000->5600.
    retry.seqId = 11;
    retry.attempt = 1;
    retry.cause = AttemptCause::Retry;
    s.attempts[1] = retry;
    s.clientReceive = retry.clientReceive;
    return s;
}

/** Primary unanswered, hedge fired at 4'000 and won. */
SpanTrace
hedgeSpan()
{
    SpanTrace s;
    s.logicalSeqId = 13;
    s.intendedSend = 1'000;
    s.attemptCount = 2;
    s.stored = 2;
    s.winner = 1;

    AttemptSpan primary;
    primary.seqId = 13;
    primary.backendId = 2;
    primary.triggerAt = 1'000;
    primary.clientSend = 1'300;
    primary.nicArrival = 2'100;
    s.attempts[0] = primary;

    AttemptSpan hedge = classicAttempt(4'000);
    hedge.seqId = 13;
    hedge.attempt = 1;
    hedge.cause = AttemptCause::Hedge;
    hedge.hedged = true;
    hedge.backendId = 0;
    s.attempts[1] = hedge;
    s.clientReceive = hedge.clientReceive;
    return s;
}

TEST(SpanTest, AttemptMonotonicSkipsUnsetStamps)
{
    AttemptSpan partial;
    partial.triggerAt = 100;
    partial.clientSend = 200;
    EXPECT_TRUE(attemptMonotonic(partial));

    partial.nicArrival = 150; // Before clientSend.
    EXPECT_FALSE(attemptMonotonic(partial));
}

TEST(SpanTest, AttemptMonotonicChecksTimeoutAgainstSend)
{
    AttemptSpan a;
    a.triggerAt = 100;
    a.clientSend = 200;
    a.timeoutAt = 150; // Timeout cannot precede the send.
    EXPECT_FALSE(attemptMonotonic(a));
    a.timeoutAt = 250;
    EXPECT_TRUE(attemptMonotonic(a));
}

TEST(SpanTest, SpanCompleteRequiresExactlyOneWinner)
{
    SpanTrace s = singleAttemptSpan(classicAttempt());
    EXPECT_TRUE(spanComplete(s));

    s.attempts[0].won = false;
    EXPECT_FALSE(spanComplete(s));

    SpanTrace two = retrySpan();
    EXPECT_TRUE(spanComplete(two));
    two.attempts[0].won = true; // Second winner.
    EXPECT_FALSE(spanComplete(two));
}

TEST(SpanTest, SpanCompleteRequiresWinnerTimeline)
{
    SpanTrace s = singleAttemptSpan(classicAttempt());
    s.attempts[0].workerEnd = kNoTime;
    EXPECT_FALSE(spanComplete(s));
}

TEST(SpanTest, ClassicCriticalPathTilesExactly)
{
    const SpanTrace s = singleAttemptSpan(classicAttempt());
    CriticalPath path;
    ASSERT_TRUE(extractCriticalPath(s, path));
    ASSERT_EQ(path.count, 7u);
    EXPECT_EQ(path.segments[0].kind, SegmentKind::ClientQueue);
    EXPECT_EQ(path.segments[2].kind, SegmentKind::ServerQueue);
    EXPECT_EQ(path.segments[3].kind, SegmentKind::Service);
    EXPECT_EQ(path.segments[6].kind, SegmentKind::ClientDeliver);
    // Segments share endpoints and sum exactly to end-to-end.
    for (std::size_t i = 1; i < path.count; ++i)
        EXPECT_EQ(path.segments[i].begin, path.segments[i - 1].end);
    EXPECT_EQ(path.totalNs(), s.clientReceive - s.intendedSend);
}

TEST(SpanTest, ClusterCriticalPathSplitsTheRouterInterval)
{
    const SpanTrace s = singleAttemptSpan(clusterAttempt());
    CriticalPath path;
    ASSERT_TRUE(extractCriticalPath(s, path));
    ASSERT_EQ(path.count, 14u);
    EXPECT_EQ(path.segments[2].kind, SegmentKind::RouterQueue);
    EXPECT_EQ(path.segments[4].kind, SegmentKind::LbQueue);
    EXPECT_EQ(path.segments[6].kind, SegmentKind::BackendQueue);
    EXPECT_EQ(path.segments[7].kind, SegmentKind::BackendService);
    // Backend-owned hops carry the backend id; the rest do not.
    EXPECT_EQ(path.segments[6].backendId, 2);
    EXPECT_EQ(path.segments[0].backendId, -1);
    EXPECT_EQ(path.totalNs(), s.clientReceive - s.intendedSend);
}

TEST(SpanTest, RetryChainCoversTimeoutAndBackoff)
{
    const SpanTrace s = retrySpan();
    CriticalPath path;
    ASSERT_TRUE(extractCriticalPath(s, path));
    // Failed primary: queue + timeout wait + backoff, then the
    // winner's 7 classic hops.
    ASSERT_EQ(path.count, 10u);
    EXPECT_EQ(path.segments[0].kind, SegmentKind::ClientQueue);
    EXPECT_EQ(path.segments[1].kind, SegmentKind::TimeoutWait);
    EXPECT_EQ(path.segments[1].backendId, 3); // Waited on shard 3.
    EXPECT_EQ(path.segments[2].kind, SegmentKind::RetryBackoff);
    EXPECT_EQ(path.segments[3].kind, SegmentKind::ClientQueue);
    EXPECT_EQ(path.totalNs(), s.clientReceive - s.intendedSend);
}

TEST(SpanTest, FailoverDropReplacesTimeoutWait)
{
    SpanTrace s = retrySpan();
    s.attempts[0].lbDropped = true;
    CriticalPath path;
    ASSERT_TRUE(extractCriticalPath(s, path));
    EXPECT_EQ(path.segments[1].kind, SegmentKind::FailoverWait);
}

TEST(SpanTest, HedgeWinAttributesWaitToPrimaryBackend)
{
    const SpanTrace s = hedgeSpan();
    CriticalPath path;
    ASSERT_TRUE(extractCriticalPath(s, path));
    ASSERT_EQ(path.count, 9u);
    EXPECT_EQ(path.segments[0].kind, SegmentKind::ClientQueue);
    EXPECT_EQ(path.segments[1].kind, SegmentKind::HedgeWait);
    // The wait was on the unanswered primary's shard, not the
    // hedge's.
    EXPECT_EQ(path.segments[1].backendId, 2);
    EXPECT_EQ(path.totalNs(), s.clientReceive - s.intendedSend);
}

TEST(SpanTest, RetentionOverflowCollapsesToCatchAll)
{
    // Winner is a retry but the failed primary was evicted: the
    // pre-win gap must still tile, as one collapsed segment.
    SpanTrace s = retrySpan();
    s.attempts[0] = s.attempts[1];
    s.stored = 1;
    s.winner = 0;
    CriticalPath path;
    ASSERT_TRUE(extractCriticalPath(s, path));
    EXPECT_EQ(path.segments[0].kind, SegmentKind::RetryBackoff);
    EXPECT_EQ(path.totalNs(), s.clientReceive - s.intendedSend);
}

TEST(SpanTest, DecompositionTelescopesToIntegerNanoseconds)
{
    for (const SpanTrace &s :
         {singleAttemptSpan(classicAttempt()),
          singleAttemptSpan(clusterAttempt()), retrySpan(),
          hedgeSpan()}) {
        const ClusterDecomposition d = ClusterDecomposition::of(s);
        ASSERT_TRUE(d.valid);
        EXPECT_EQ(d.totalNs(), d.endToEndNs); // Exact, not approximate.
        EXPECT_EQ(d.endToEndNs, s.clientReceive - s.intendedSend);
    }
}

TEST(SpanTest, DecompositionRecordsHedgeOverlap)
{
    const SpanTrace s = hedgeSpan();
    const ClusterDecomposition d = ClusterDecomposition::of(s);
    ASSERT_TRUE(d.valid);
    // Overlap runs from the hedge's send to the first response.
    EXPECT_EQ(d.hedgeOverlapNs,
              s.clientReceive - s.attempts[1].clientSend);
}

TEST(SpanTest, IncompleteSpanYieldsInvalidDecomposition)
{
    SpanTrace s = singleAttemptSpan(classicAttempt());
    s.attempts[0].won = false;
    const ClusterDecomposition d = ClusterDecomposition::of(s);
    EXPECT_FALSE(d.valid);
    CriticalPath path;
    EXPECT_FALSE(extractCriticalPath(s, path));
    EXPECT_EQ(path.count, 0u);
}

TEST(SpanTest, FlatDecompositionTelescopesExactly)
{
    const Decomposition d =
        Decomposition::of(singleAttemptSpan(classicAttempt()));
    EXPECT_DOUBLE_EQ(d.preWinUs, 0.0);
    EXPECT_DOUBLE_EQ(d.clientQueueUs, 0.5);
    EXPECT_DOUBLE_EQ(d.netRequestUs, 2.0);
    EXPECT_DOUBLE_EQ(d.serverQueueUs, 0.7);
    EXPECT_DOUBLE_EQ(d.serviceUs, 5.0);
    EXPECT_DOUBLE_EQ(d.serverNicUs, 0.3);
    EXPECT_DOUBLE_EQ(d.netResponseUs, 2.0);
    EXPECT_DOUBLE_EQ(d.clientDeliverUs, 0.25);
    EXPECT_DOUBLE_EQ(d.endToEndUs, 10.75);
    EXPECT_NEAR(d.totalUs(), d.endToEndUs, 1e-9);
}

TEST(SpanTest, FlatDecompositionReadsTheWinningAttempt)
{
    // The retry won: everything before its trigger is pre-win wait,
    // and every hop comes from the winner, not the timed-out primary.
    const Decomposition d = Decomposition::of(retrySpan());
    EXPECT_DOUBLE_EQ(d.preWinUs, 4.6);
    EXPECT_DOUBLE_EQ(d.clientQueueUs, 0.5);
    EXPECT_DOUBLE_EQ(d.serviceUs, 5.0);
    EXPECT_DOUBLE_EQ(d.endToEndUs, 15.35);
    EXPECT_NEAR(d.totalUs(), d.endToEndUs, 1e-9);
}

TEST(SpanTest, FlatDecompositionClampsAStrayTrigger)
{
    // A trigger that is unset or outside [intendedSend, clientSend]
    // degrades to the no-pre-win split; the sum still telescopes.
    for (SimTime trigger : {kNoTime, SimTime{500}, SimTime{1'600}}) {
        SpanTrace s = singleAttemptSpan(classicAttempt());
        s.attempts[0].triggerAt = trigger;
        const Decomposition d = Decomposition::of(s);
        EXPECT_DOUBLE_EQ(d.preWinUs, 0.0) << trigger;
        EXPECT_DOUBLE_EQ(d.clientQueueUs, 0.5) << trigger;
        EXPECT_NEAR(d.totalUs(), d.endToEndUs, 1e-9) << trigger;
    }
}

TEST(SpanTest, FlatDecompositionRejectsASpanWithoutWinner)
{
    SpanTrace s = singleAttemptSpan(classicAttempt());
    s.winner = -1;
    EXPECT_DEATH(Decomposition::of(s), "no winning attempt");
    s.winner = 1; // Past the one stored attempt.
    EXPECT_DEATH(Decomposition::of(s), "no winning attempt");
}

TEST(SpanTest, ComponentNamesAndValuesAlign)
{
    const auto &names = decompositionComponentNames();
    const auto values = decompositionComponents(
        Decomposition::of(singleAttemptSpan(classicAttempt())));
    ASSERT_EQ(names.size(), 8u);
    ASSERT_EQ(values.size(), names.size());
    EXPECT_EQ(names.front(), "pre-win wait");
    EXPECT_EQ(names[1], "client queue");
    EXPECT_EQ(names.back(), "client deliver");
}

TEST(SpanTest, DecompositionCsvShape)
{
    SpanTrace other = singleAttemptSpan(classicAttempt());
    other.attempts[0].seqId = 8;
    other.clientIndex = 1;
    const std::string csv = decompositionCsv(
        {singleAttemptSpan(classicAttempt()), other, retrySpan()});
    // Header + one row per span, keyed by the winner's seq id.
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, 4u);
    EXPECT_EQ(csv.rfind("seq_id,client,op,hit,", 0), 0u);
    EXPECT_NE(csv.find("component_sum_us,end_to_end_us"),
              std::string::npos);
    EXPECT_NE(csv.find("\n7,0,get,0,0.000,0.500,"), std::string::npos);
    EXPECT_NE(csv.find("\n8,1,get,0,"), std::string::npos);
    EXPECT_NE(csv.find("\n11,0,get,0,4.600,"), std::string::npos);
    EXPECT_NE(csv.find("10.750,10.750\n"), std::string::npos);
    EXPECT_NE(csv.find("15.350,15.350\n"), std::string::npos);
}

TEST(SpanTest, SegmentNamesAlignWithKinds)
{
    const auto &names = segmentKindNames();
    ASSERT_EQ(names.size(), kSegmentKindCount);
    EXPECT_EQ(names.front(), "client queue");
    EXPECT_EQ(names[static_cast<std::size_t>(
                  SegmentKind::BackendQueue)],
              "backend queue");
    EXPECT_EQ(names.back(), "client deliver");
}

TEST(SpanTest, RecorderSamplesByCompletionOrder)
{
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.sampleEvery = 3;
    SpanRecorder recorder(cfg);
    const SpanTrace s = singleAttemptSpan(classicAttempt());
    std::size_t kept = 0;
    for (int i = 0; i < 10; ++i)
        kept += recorder.record(s) ? 1 : 0;
    EXPECT_EQ(recorder.seen(), 10u);
    EXPECT_EQ(kept, 4u); // Offers 0, 3, 6, 9.
    EXPECT_EQ(recorder.spans().size(), 4u);

    const auto taken = recorder.takeSpans();
    EXPECT_EQ(taken.size(), 4u);
    EXPECT_TRUE(recorder.spans().empty());
}

TEST(SpanTest, RecorderHonorsMaxTraces)
{
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.maxTraces = 2;
    SpanRecorder recorder(cfg);
    const SpanTrace s = singleAttemptSpan(classicAttempt());
    for (int i = 0; i < 5; ++i)
        recorder.record(s);
    EXPECT_EQ(recorder.seen(), 5u);
    EXPECT_EQ(recorder.takeSpans().size(), 2u);
    EXPECT_EQ(recorder.seen(), 5u); // Counting survives the take.
}

TEST(SpanTest, RecorderDisabledRetainsNothing)
{
    SpanRecorder recorder;
    EXPECT_FALSE(recorder.record(singleAttemptSpan(classicAttempt())));
    EXPECT_EQ(recorder.seen(), 0u);
}

TEST(SpanTest, SpanJsonCarriesSchemaAndOneWinner)
{
    const std::string text =
        spanJson({retrySpan(), hedgeSpan()});
    const json::Value doc = json::parse(text);
    EXPECT_EQ(doc.at("otherData").at("schema").asString(), "span/1");
    const json::Array &spans = doc.at("spans").asArray();
    ASSERT_EQ(spans.size(), 2u);
    for (const json::Value &span : spans) {
        const json::Array &attempts = span.at("attempts").asArray();
        std::size_t winners = 0;
        for (const json::Value &a : attempts)
            winners += a.at("won").asBool() ? 1 : 0;
        EXPECT_EQ(winners, 1u);
        const auto winner = span.at("winner").asInt();
        ASSERT_GE(winner, 0);
        ASSERT_LT(static_cast<std::size_t>(winner), attempts.size());
        EXPECT_TRUE(attempts[static_cast<std::size_t>(winner)]
                        .at("won")
                        .asBool());
    }
}

TEST(SpanTest, ChromeSpanJsonLanesPerAttempt)
{
    const std::string text = chromeSpanJson({hedgeSpan()});
    const json::Value doc = json::parse(text);
    EXPECT_EQ(doc.at("otherData").at("schema").asString(),
              "span-lanes/1");
    std::size_t lanes = 0;
    std::size_t hops = 0;
    for (const json::Value &ev :
         doc.at("traceEvents").asArray()) {
        const std::string ph = ev.at("ph").asString();
        if (ph == "M" &&
            ev.at("name").asString() == "thread_name")
            ++lanes;
        else if (ph == "X")
            ++hops;
    }
    EXPECT_EQ(lanes, 2u); // One lane per stored attempt.
    EXPECT_GT(hops, 0u);
}

TEST(SpanTest, SpanExportsAreInCanonicalForm)
{
    // The exporters stream text directly; it must equal what the JSON
    // document model would dump for the same content.
    const std::vector<SpanTrace> spans = {
        singleAttemptSpan(classicAttempt()),
        singleAttemptSpan(clusterAttempt()), retrySpan(), hedgeSpan()};
    const std::vector<TraceAnnotation> annotations = {
        {"server_stall", 2'000, 9'000}, {"nic \"drop\"\n", 500, 700}};
    for (const std::string &text :
         {spanJson(spans), spanJson({}), chromeSpanJson(spans),
          chromeSpanJson(spans, annotations),
          chromeSpanJson({}, annotations)})
        EXPECT_EQ(json::parse(text).dump(), text);
}

} // namespace
} // namespace obs
} // namespace treadmill
