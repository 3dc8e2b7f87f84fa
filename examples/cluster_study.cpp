/**
 * @file
 * Multi-backend attribution study: find which shard owns the tail.
 *
 * A four-shard cluster sits behind the router's load-balancer tier
 * (consistent-hash ring, replication 2). The study runs a 2^2
 * factorial sweep over two factors the paper's method must keep
 * apart:
 *
 *  - backend2_stall: periodic multi-millisecond freezes injected into
 *    shard 2 only (a per-backend fault target) -- the "one replica of
 *    the fleet went bad" scenario.
 *  - p2c: the balancer's scheduling policy, FCFS vs
 *    power-of-two-choices over each key's replica set.
 *
 * Each run's aggregated per-instance quantile is the response and
 * quantile regression fits all interaction terms at P50/P95/P99. The
 * demo asserts the recovery the tentpole promises: shard 2's stall is
 * the dominant, significant P99 term, the per-backend fault counters
 * place every stalled request on shard 2 (the other shards read
 * exactly zero), and the policy term stays small -- "backend 2 got
 * slow", not "the balancer queued".
 *
 * A second, single-run "provenance cell" then re-creates the worst
 * case (shard-2 stall, FCFS) with hedging, span tracing, and telemetry
 * enabled, and reads the tail-provenance report: the P99 band must be
 * owned by shard 2's wait segments while the median stays
 * service-dominated -- the per-quantile answer to *which* segment of
 * *whose* critical path put the request into the tail.
 *
 * Run: ./build/examples/cluster_study [output-dir]
 * Writes treadmill_cluster_study.json plus the provenance cell's
 * exports (spans, provenance report, telemetry CSV, and one Chrome
 * trace carrying span lanes, fault windows and telemetry counters)
 * into output-dir (default ".").
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analysis/attribution.h"
#include "analysis/export.h"
#include "analysis/provenance.h"
#include "analysis/report.h"
#include "core/experiment.h"
#include "fault/plan.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "regress/design.h"
#include "util/json.h"

using namespace treadmill;

namespace {

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    out << content;
    return out.good();
}

/** The fault schedule of one cell: shard 2 freezes, or nothing. */
fault::FaultPlan
makePlan(bool stallHigh)
{
    fault::FaultPlan plan;
    if (stallHigh) {
        // 3 ms freeze every 40 ms on shard 2 alone: requests hashed
        // there queue behind the pause while the other shards cruise.
        fault::FaultEvent ev;
        ev.kind = fault::FaultKind::ServerStall;
        ev.backend = 2;
        ev.start = milliseconds(20);
        ev.duration = milliseconds(3);
        ev.period = milliseconds(40);
        ev.repeatCount = 50;
        plan.events.push_back(ev);
    }
    return plan;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string dir = argc > 1 ? argv[1] : ".";
    constexpr unsigned kRepsPerCell = 6;
    const std::vector<double> kQuantiles{0.5, 0.95, 0.99};

    regress::FactorialDesign design(
        std::vector<std::string>{"backend2_stall", "p2c"});

    core::ExperimentParams base;
    base.kind = core::WorkloadKind::Mcrouter;
    base.targetUtilization = 0.5;
    base.collector.warmUpSamples = 300;
    base.collector.calibrationSamples = 300;
    base.collector.measurementSamples = 2500;
    base.cluster.backends = 4;
    base.cluster.replication = 2;
    // Pin the absolute rate so every cell drives identical load.
    base.requestsPerSecond = core::deriveRequestRate(base);
    // Safety cap well above the ~0.3 s a healthy run needs.
    base.deadline = seconds(2);

    std::vector<core::ExperimentParams> runs;
    std::vector<std::vector<double>> levels;
    for (unsigned cell = 0; cell < 4; ++cell) {
        const bool stallHigh = (cell & 1u) != 0;
        const bool p2cHigh = (cell & 2u) != 0;
        for (unsigned rep = 0; rep < kRepsPerCell; ++rep) {
            core::ExperimentParams p = base;
            p.faultPlan = makePlan(stallHigh);
            p.cluster.policy = p2cHigh ? lb::PolicyKind::PowerOfTwo
                                       : lb::PolicyKind::Fcfs;
            p.seed = 23 + 7919 * runs.size();
            runs.push_back(std::move(p));
            levels.push_back(
                {stallHigh ? 1.0 : 0.0, p2cHigh ? 1.0 : 0.0});
        }
    }

    std::printf("Running %zu experiments (2^2 cluster cells x %u "
                "reps, 4 shards, %.0f RPS each)...\n",
                runs.size(), kRepsPerCell, base.requestsPerSecond);
    const auto results = core::runExperiments(runs);

    // Per-backend fault accounting across the whole sweep: the stall
    // must land on shard 2 and nowhere else.
    std::map<double, std::vector<double>> responses;
    std::uint64_t stalledOn2 = 0;
    std::uint64_t stalledElsewhere = 0;
    std::uint64_t dispatched = 0;
    for (const auto &r : results) {
        for (double q : kQuantiles)
            responses[q].push_back(r.aggregatedQuantile(
                q, core::AggregationKind::PerInstance));
        for (const auto &[name, value] :
             r.metrics.at("counters").asObject()) {
            const auto n = static_cast<std::uint64_t>(value.asInt());
            if (name == "backend2.fault.stalled")
                stalledOn2 += n;
            else if (name.find(".fault.stalled") != std::string::npos)
                stalledElsewhere += n;
            else if (name == "lb.dispatched")
                dispatched += n;
        }
    }
    std::printf("  %llu requests dispatched; %llu stalled on shard 2, "
                "%llu stalled on any other shard\n",
                static_cast<unsigned long long>(dispatched),
                static_cast<unsigned long long>(stalledOn2),
                static_cast<unsigned long long>(stalledElsewhere));
    if (stalledOn2 == 0 || stalledElsewhere != 0 || dispatched == 0) {
        std::fprintf(stderr,
                     "per-backend fault targeting broke: shard2=%llu "
                     "others=%llu\n",
                     static_cast<unsigned long long>(stalledOn2),
                     static_cast<unsigned long long>(stalledElsewhere));
        return 1;
    }

    analysis::FactorialFitParams fit;
    fit.quantiles = kQuantiles;
    fit.bootstrapReplicates = 200;
    fit.seed = 99;
    const auto models =
        analysis::fitFactorialModels(design, levels, responses, fit);

    std::printf("\n%s\n",
                analysis::renderCoefficientTable(models).c_str());

    // Acceptance: shard 2's stall owns the P99 model, significantly.
    const analysis::QuantileModel *p99 = nullptr;
    for (const auto &m : models)
        if (m.tau == 0.99)
            p99 = &m;
    if (p99 == nullptr) {
        std::fprintf(stderr, "no P99 model fitted\n");
        return 1;
    }
    const std::size_t stallTerm = design.mainEffectTerm(0);
    const analysis::TermEstimate &stall = p99->terms[stallTerm];
    for (std::size_t t = 1; t < p99->terms.size(); ++t) {
        if (t == stallTerm)
            continue;
        if (std::fabs(p99->terms[t].estimate) >= stall.estimate) {
            std::fprintf(stderr,
                         "P99 term %s (%.1f us) outranks the injected "
                         "shard-2 stall (%.1f us)\n",
                         p99->terms[t].name.c_str(),
                         p99->terms[t].estimate, stall.estimate);
            return 1;
        }
    }
    if (stall.pValue > 0.05) {
        std::fprintf(stderr,
                     "shard-2 stall P99 effect not significant "
                     "(p = %.3f)\n",
                     stall.pValue);
        return 1;
    }
    std::printf("Injected '%s' is the dominant P99 contributor: "
                "+%.1f us (p = %.4f)\n",
                stall.name.c_str(), stall.estimate, stall.pValue);

    json::Array obs;
    for (std::size_t i = 0; i < results.size(); ++i) {
        json::Object row;
        row["backend2_stall"] = json::Value(levels[i][0]);
        row["p2c"] = json::Value(levels[i][1]);
        row["seed"] = json::Value(
            static_cast<std::int64_t>(runs[i].seed));
        json::Array served;
        for (std::uint64_t s : results[i].backendServed)
            served.push_back(
                json::Value(static_cast<std::int64_t>(s)));
        row["backend_served"] = json::Value(std::move(served));
        for (double q : kQuantiles) {
            char key[16];
            std::snprintf(key, sizeof key, "p%.0f_us", q * 100.0);
            row[key] = json::Value(responses[q][i]);
        }
        obs.push_back(json::Value(std::move(row)));
    }
    json::Object doc;
    doc["design"] = [&] {
        json::Array names;
        for (const auto &n : design.termNames())
            names.push_back(json::Value(n));
        return json::Value(std::move(names));
    }();
    doc["observations"] = json::Value(std::move(obs));
    doc["models"] = analysis::toJson(models);

    const std::string path = dir + "/treadmill_cluster_study.json";
    if (!writeFile(path,
                   json::Value(std::move(doc)).dumpPretty() + "\n"))
        return 1;
    std::printf("\nWrote %s\n", path.c_str());

    // ---- Tail-provenance cell: which segment owns the P99? ----
    // Re-create the worst cell (shard-2 stall, FCFS) as one dedicated
    // run with hedging, span tracing, and telemetry enabled. Hedges
    // fire only when an attempt is stuck behind the stall, so the P99
    // band is populated by requests whose critical path waited on
    // shard 2 -- as a backend queue or as the hedge wait attributed to
    // the unanswered primary.
    core::ExperimentParams prov = base;
    prov.faultPlan = makePlan(true);
    prov.cluster.policy = lb::PolicyKind::Fcfs;
    prov.resilience.enabled = true;
    prov.resilience.hedge = true;
    prov.resilience.hedgeDelayUs = 1000.0;
    prov.trace.enabled = true;
    prov.telemetry.enabled = true;
    prov.telemetry.periodUs = 500.0;
    prov.seed = 4242;
    std::printf("\nRunning the tail-provenance cell (shard-2 stall + "
                "hedging, spans + telemetry on)...\n");
    const auto provRun = core::runExperiment(prov);
    std::printf("  %zu spans retained, %zu telemetry samples\n",
                provRun.spans.size(),
                provRun.telemetry.ticks());

    const auto provenance =
        analysis::tailProvenance(provRun.spans, {0.5, 0.99});
    std::printf("\n%s\n",
                analysis::renderProvenanceTable(provenance).c_str());

    const auto isWait = [](obs::SegmentKind k) {
        return k == obs::SegmentKind::BackendQueue ||
               k == obs::SegmentKind::HedgeWait ||
               k == obs::SegmentKind::TimeoutWait ||
               k == obs::SegmentKind::FailoverWait ||
               k == obs::SegmentKind::RetryBackoff ||
               k == obs::SegmentKind::LbQueue;
    };
    const auto backend2Share =
        [](const analysis::QuantileProvenance &q) {
            for (const auto &b : q.backends)
                if (b.backendId == 2)
                    return b.share;
            return 0.0;
        };
    const auto &provP99 = provenance.at(0.99);
    const auto &provP50 = provenance.at(0.5);
    const auto &names = obs::segmentKindNames();
    if (!isWait(provP99.dominant().kind)) {
        std::fprintf(stderr,
                     "P99 band is not wait-dominated (top segment: "
                     "%s)\n",
                     names[static_cast<std::size_t>(
                               provP99.dominant().kind)]
                         .c_str());
        return 1;
    }
    if (provP99.backends.empty() || provP99.backends.front().backendId != 2) {
        std::fprintf(stderr,
                     "P99 band is not attributed to the stalled "
                     "shard 2\n");
        return 1;
    }
    if (isWait(provP50.dominant().kind)) {
        std::fprintf(stderr,
                     "median is wait-dominated (%s) -- the stall "
                     "leaked into the body\n",
                     names[static_cast<std::size_t>(
                               provP50.dominant().kind)]
                         .c_str());
        return 1;
    }
    if (backend2Share(provP50) >= backend2Share(provP99)) {
        std::fprintf(stderr,
                     "shard 2's share did not grow toward the tail "
                     "(P50 %.2f vs P99 %.2f)\n",
                     backend2Share(provP50), backend2Share(provP99));
        return 1;
    }
    std::printf("P99 provenance: %s on shard %d (%.0f%% of the band); "
                "P50 stays service-dominated (%s, shard-2 share "
                "%.0f%%)\n",
                names[static_cast<std::size_t>(provP99.dominant().kind)]
                    .c_str(),
                provP99.backends.front().backendId,
                provP99.dominant().share * 100.0,
                names[static_cast<std::size_t>(provP50.dominant().kind)]
                    .c_str(),
                backend2Share(provP50) * 100.0);

    std::printf("\n%s\n",
                analysis::renderDecompositionTable(
                    analysis::decomposeSpans(provRun.spans))
                    .c_str());

    if (!writeFile(dir + "/treadmill_cluster_spans.json",
                   obs::spanJson(provRun.spans)))
        return 1;
    if (!writeFile(
            dir + "/treadmill_cluster_provenance.json",
            analysis::provenanceToJson(provenance).dumpPretty() +
                "\n"))
        return 1;
    if (!writeFile(dir + "/treadmill_cluster_telemetry.csv",
                   obs::telemetryCsv(provRun.telemetry)))
        return 1;
    if (!writeFile(dir + "/treadmill_cluster_span_lanes.json",
                   obs::chromeSpanJson(provRun.spans,
                                       provRun.faultWindows,
                                       &provRun.telemetry)))
        return 1;
    std::printf("Wrote %s/treadmill_cluster_{spans,provenance,"
                "span_lanes}.json and telemetry.csv\n",
                dir.c_str());
    return 0;
}
