/**
 * @file
 * cluster_provenance: the sharded-cluster provenance study, serial.
 *
 * mcrouter in front of 4 Memcached shards (replication 2) at
 * utilization 0.5, over a 2^2 grid of shard-2 stall x FCFS/p2c. Every
 * run hedges and records spans and telemetry; each runExperiment is
 * followed by tailProvenance and decomposeSpans, and its spans, span
 * lanes, and telemetry are exported to files. A factorial fit over the
 * grid closes the study.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "analysis/attribution.h"
#include "analysis/export.h"
#include "analysis/provenance.h"
#include "analysis/report.h"
#include "fault/plan.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "regress/design.h"
#include "study.h"
#include "util/error.h"

namespace studybench {

namespace {

/** Shard 2 freezes 3 ms every 40 ms, or nothing. */
fault::FaultPlan
stallPlan(bool stallHigh)
{
    fault::FaultPlan plan;
    if (stallHigh) {
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

bool
isWait(obs::SegmentKind k)
{
    return k == obs::SegmentKind::BackendQueue ||
           k == obs::SegmentKind::HedgeWait ||
           k == obs::SegmentKind::TimeoutWait ||
           k == obs::SegmentKind::FailoverWait ||
           k == obs::SegmentKind::RetryBackoff ||
           k == obs::SegmentKind::LbQueue;
}

double
backendShare(const analysis::QuantileProvenance &q, std::int32_t backend)
{
    for (const analysis::BackendContribution &b : q.backends)
        if (b.backendId == backend)
            return b.share;
    return 0.0;
}

/** Write @p content under the span "obs.write"; returns bytes written. */
std::uint64_t
writeExport(const std::string &path, const std::string &content)
{
    Span span("obs.write");
    std::ofstream out(path, std::ios::binary);
    out << content;
    if (!out.good())
        throw Error("cannot write " + path);
    return content.size();
}

} // namespace

StudyReport
clusterProvenance(const StudyContext &ctx)
{
    StudyReport rep;
    Span study("bench.study");
    const std::vector<double> quantiles{0.5, 0.95, 0.99};
    const unsigned reps = ctx.count("reps_per_cell");
    const json::Array &seeds = ctx.inputs.at("run_seeds").asArray();
    if (seeds.size() != 4u * reps)
        throw ConfigError("run_seeds must hold 4 x reps_per_cell seeds");

    const std::string dir = ctx.workDir + "/cluster_exports";
    std::filesystem::create_directories(dir);

    core::ExperimentParams base;
    base.kind = core::WorkloadKind::Mcrouter;
    base.targetUtilization = 0.5;
    base.collector.warmUpSamples = 300;
    base.collector.calibrationSamples = 300;
    base.collector.measurementSamples = ctx.count("samples");
    base.cluster.backends = 4;
    base.cluster.replication = 2;
    base.resilience.enabled = true;
    base.resilience.hedge = true;
    base.resilience.hedgeDelayUs = 1000.0;
    base.trace.enabled = true;
    base.telemetry.enabled = true;
    base.telemetry.periodUs = 500.0;
    base.trace.sampleEvery = ctx.count("span_sample_every");
    base.deadline = seconds(2);
    {
        Span span("core.deriveRequestRate");
        base.requestsPerSecond = core::deriveRequestRate(base);
    }

    regress::FactorialDesign design(
        std::vector<std::string>{"backend2_stall", "p2c"});
    std::vector<std::vector<double>> levels;
    std::map<double, std::vector<double>> responses;
    std::uint64_t exportBytes = 0;
    bool stallOnlyOnShard2 = true;
    bool p99OnShard2Wait = true;
    bool p50ServiceBound = true;
    bool shard2ShareGrows = true;

    for (unsigned cell = 0; cell < 4; ++cell) {
        const bool stallHigh = (cell & 1u) != 0;
        const bool p2cHigh = (cell & 2u) != 0;
        for (unsigned r = 0; r < reps; ++r) {
            const std::size_t i = levels.size();
            core::ExperimentParams p = base;
            p.faultPlan = stallPlan(stallHigh);
            p.cluster.policy = p2cHigh ? lb::PolicyKind::PowerOfTwo
                                       : lb::PolicyKind::Fcfs;
            p.seed = static_cast<std::uint64_t>(seeds[i].asNumber());
            levels.push_back({stallHigh ? 1.0 : 0.0, p2cHigh ? 1.0 : 0.0});
            ++rep.runsAttempted;

            core::ExperimentResult result;
            {
                SimCall sim(rep);
                Span span("core.runExperiment", static_cast<int>(i));
                result = core::runExperiment(p);
            }
            rep.counts.addResult(result);
            if (runFailed(result))
                ++rep.runsFailed;
            digestResult(rep.digest, result);
            for (double q : quantiles)
                responses[q].push_back(result.aggregatedQuantile(
                    q, core::AggregationKind::PerInstance));

            std::uint64_t stalledOn2 = 0;
            std::uint64_t stalledElsewhere = 0;
            for (const auto &[name, value] :
                 result.metrics.at("counters").asObject()) {
                if (name == "backend2.fault.stalled")
                    stalledOn2 += static_cast<std::uint64_t>(value.asInt());
                else if (name.find(".fault.stalled") != std::string::npos)
                    stalledElsewhere +=
                        static_cast<std::uint64_t>(value.asInt());
            }
            stallOnlyOnShard2 = stallOnlyOnShard2 &&
                                stalledElsewhere == 0 &&
                                (stalledOn2 > 0) == stallHigh;

            analysis::ProvenanceReport provenance;
            {
                Span span("analysis.tailProvenance", static_cast<int>(i));
                provenance =
                    analysis::tailProvenance(result.spans, {0.5, 0.99});
            }
            analysis::DecompositionReport decomposition;
            {
                Span span("analysis.decomposeSpans", static_cast<int>(i));
                decomposition = analysis::decomposeSpans(result.spans);
            }
            rep.digest.add(analysis::provenanceToJson(provenance).dump());
            rep.digest.add(analysis::toJson(decomposition).dump());
            // The worst cell (stall under FCFS) puts shard 2 in the
            // tail; under p2c the balancer routes around it.
            if (stallHigh && !p2cHigh) {
                const analysis::QuantileProvenance &p99 =
                    provenance.at(0.99);
                const analysis::QuantileProvenance &p50 =
                    provenance.at(0.5);
                p99OnShard2Wait = p99OnShard2Wait &&
                                  isWait(p99.dominant().kind) &&
                                  !p99.backends.empty() &&
                                  p99.backends.front().backendId == 2;
                p50ServiceBound =
                    p50ServiceBound && !isWait(p50.dominant().kind);
                shard2ShareGrows = shard2ShareGrows &&
                                   backendShare(p50, 2) <
                                       backendShare(p99, 2);
            }

            const std::string stem = dir + "/run" + std::to_string(i);
            std::string text;
            {
                Span span("obs.spanJson", static_cast<int>(i));
                text = obs::spanJson(result.spans);
            }
            rep.digest.add(text);
            exportBytes += writeExport(stem + "_spans.json", text);
            {
                Span span("obs.chromeSpanJson", static_cast<int>(i));
                text = obs::chromeSpanJson(result.spans,
                                           result.faultWindows);
            }
            rep.digest.add(text);
            exportBytes += writeExport(stem + "_span_lanes.json", text);
            {
                Span span("obs.telemetryCsv", static_cast<int>(i));
                text = obs::telemetryCsv(result.telemetry);
            }
            rep.digest.add(text);
            exportBytes += writeExport(stem + "_telemetry.csv", text);
        }
    }
    rep.layer["obs.export_mb"] = static_cast<double>(exportBytes) / 1e6;

    // ---- Factorial fit: the stall owns the P99 model.
    analysis::FactorialFitParams fit;
    fit.quantiles = quantiles;
    fit.bootstrapReplicates = ctx.count("replicates");
    fit.seed = ctx.seed("fit_seed");
    std::vector<analysis::QuantileModel> models;
    {
        Span span("regress.fitFactorialModels");
        models = analysis::fitFactorialModels(design, levels, responses,
                                              fit);
    }
    rep.layer["regress.fits"] = static_cast<double>(
        quantiles.size() * (fit.bootstrapReplicates + 1));
    rep.digest.add(analysis::toJson(models).dump());

    // Dominant over every term that does not involve the stall. The
    // stall:p2c interaction is left out: p2c routes around the stalled
    // replica, so that term cancels the stall by about its own size.
    const analysis::QuantileModel &p99 = models.back();
    const std::size_t stallTerm = design.mainEffectTerm(0);
    const analysis::TermEstimate &stall = p99.terms[stallTerm];
    bool dominant = p99.tau == 0.99 && stall.pValue < 0.05;
    for (std::size_t t = 1; t < p99.terms.size(); ++t)
        if (p99.terms[t].name.find("backend2_stall") == std::string::npos &&
            std::fabs(p99.terms[t].estimate) >= stall.estimate)
            dominant = false;
    if (!dominant)
        std::fprintf(stderr, "%s\n",
                     analysis::renderCoefficientTable(models).c_str());
    if (ctx.tamperShape)
        dominant = !dominant;
    rep.check("stall_dominant_significant_p99", dominant);
    rep.check("stalls_only_on_shard2", stallOnlyOnShard2);
    rep.check("p99_band_on_shard2_wait", p99OnShard2Wait);
    rep.check("p50_band_service_bound", p50ServiceBound);
    rep.check("shard2_share_grows_to_tail", shard2ShareGrows);
    return rep;
}

} // namespace studybench
