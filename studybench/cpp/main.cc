/**
 * @file
 * One study per process: studybench[_traced] --workload NAME
 *   --inputs JSON --work DIR [--t0 NS] [--spans-out FILE]
 *   [--tamper shape] [--cross-check]
 *
 * --inputs carries every seed and size the study uses (run.py derives
 * them from the workload seed); --t0 is the CLOCK_MONOTONIC time in ns
 * at which the parent spawned this process, so setup_s covers process
 * start-up too. Prints one JSON line on stdout; exit code 0 whenever
 * the line was printed (a failed check is reported in the line).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "study.h"
#include "util/alloc_counter.h"
#include "util/error.h"

using namespace studybench;

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Seconds of [start, end] not covered by any interval in @p kids. */
double
selfSeconds(const SpanRecord &span, std::vector<std::pair<double, double>> kids)
{
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = span.start;
    for (auto [a, b] : kids) {
        a = std::max(a, reach);
        b = std::min(b, span.end);
        if (b > a) {
            covered += b - a;
            reach = b;
        }
    }
    return std::max(0.0, (span.end - span.start) - covered);
}

/** Self time per layer ("<layer>.<call>" -> layer). */
json::Object
selfTimeByLayer(const std::vector<SpanRecord> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const SpanRecord &s : spans)
        if (s.parent >= 0 && s.end > 0.0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                  s.end);
    std::map<std::string, double> byLayer;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].end <= 0.0)
            continue;
        const std::string layer =
            spans[i].name.substr(0, spans[i].name.find('.'));
        byLayer[layer] += selfSeconds(spans[i], kids[i]);
    }
    json::Object out;
    for (const auto &[layer, s] : byLayer)
        out[layer] = json::Value(s);
    return out;
}

void
writeSpans(const std::string &path, const std::vector<SpanRecord> &spans)
{
    json::Array rows;
    for (const SpanRecord &s : spans) {
        json::Object row;
        row["name"] = json::Value(s.name);
        row["start_s"] = json::Value(s.start);
        row["end_s"] = json::Value(s.end);
        row["parent"] = json::Value(s.parent);
        row["run"] = json::Value(s.run);
        rows.push_back(json::Value(std::move(row)));
    }
    std::ofstream(path) << json::Value(std::move(rows)).dump() << "\n";
}

json::Object
layerMetrics(const StudyReport &rep)
{
    const LayerCounts &c = rep.counts;
    const auto req = static_cast<double>(c.requests);
    json::Object m;
    const auto put = [&m](const char *name, double v) {
        m[name] = json::Value(v);
    };
    put("sim.events_per_req", ratio(static_cast<double>(c.events), req));
    put("sim.host_ns_per_event",
        ratio(rep.simCpuS * 1e9, static_cast<double>(c.events)));
    put("sim.cancelled_per_req",
        ratio(static_cast<double>(c.cancelled), req));
    put("core.allocs_per_req",
        ratio(static_cast<double>(rep.allocsInSim), req));
    std::vector<double> runs = spanDurations("core.runExperiment");
    std::sort(runs.begin(), runs.end());
    put("core.run_ms_p50", runs.empty() ? 0.0 : runs[runs.size() / 2] * 1e3);
    put("core.run_ms_max", runs.empty() ? 0.0 : runs.back() * 1e3);
    put("net.packets_per_req", ratio(static_cast<double>(c.packets), req));
    put("hw.freq_transitions_per_req",
        ratio(static_cast<double>(c.freqTransitions), req));
    put("server.served_per_req", ratio(static_cast<double>(c.served), req));
    put("server.hit_ratio", ratio(static_cast<double>(c.hits),
                                  static_cast<double>(c.hits + c.misses)));
    put("lb.dispatched_per_req",
        ratio(static_cast<double>(c.lbDispatched), req));
    put("lb.queued_per_req", ratio(static_cast<double>(c.lbQueued), req));
    put("client.hedges_per_req", ratio(static_cast<double>(c.hedges), req));
    put("client.hedge_win_ratio", ratio(static_cast<double>(c.hedgeWins),
                                        static_cast<double>(c.hedges)));
    put("fault.stalled_per_req", ratio(static_cast<double>(c.stalled), req));
    put("obs.spans_per_req", ratio(static_cast<double>(c.spans), req));
    put("obs.export_s",
        spanSeconds("obs.spanJson") + spanSeconds("obs.chromeSpanJson") +
            spanSeconds("obs.telemetryCsv") + spanSeconds("obs.write"));
    put("analysis.provenance_s", spanSeconds("analysis.tailProvenance") +
                                     spanSeconds("analysis.decomposeSpans"));
    const double refit = spanSeconds("store.refitFromStore");
    put("regress.fit_s", spanSeconds("regress.fitAttribution") +
                             spanSeconds("regress.fitFactorialModels") +
                             refit);
    put("store.verify_s", spanSeconds("store.verify"));
    put("store.refit_s", refit);
    put("drive.search_s", spanSeconds("drive.search"));
    put("drive.factorial_s", spanSeconds("drive.StudyDriver"));
    for (const auto &[name, v] : rep.layer)
        put(name.c_str(), v);
    return m;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: studybench --workload NAME --inputs JSON --work DIR"
                 " [--t0 NS] [--spans-out FILE] [--tamper shape]"
                 " [--cross-check]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const double started = wallNow();
    if constexpr (kTraced)
        util::forceLinkAllocHook();

    std::string workload;
    std::string inputs;
    std::string spansOut;
    double t0 = -1.0;
    StudyContext ctx;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--workload" && hasValue)
            workload = argv[++i];
        else if (arg == "--inputs" && hasValue)
            inputs = argv[++i];
        else if (arg == "--work" && hasValue)
            ctx.workDir = argv[++i];
        else if (arg == "--t0" && hasValue)
            t0 = std::strtod(argv[++i], nullptr) * 1e-9;
        else if (arg == "--spans-out" && hasValue)
            spansOut = argv[++i];
        else if (arg == "--tamper" && hasValue)
            ctx.tamperShape = std::string(argv[++i]) == "shape";
        else if (arg == "--cross-check")
            ctx.crossCheck = true;
        else
            return usage();
    }
    if (workload.empty() || inputs.empty() || ctx.workDir.empty())
        return usage();

    StudyReport rep;
    json::Object out;
    out["workload"] = json::Value(workload);
    try {
        ctx.inputs = json::parse(inputs);
        if (workload == "attribution_sweep")
            rep = attributionSweep(ctx);
        else if (workload == "cluster_provenance")
            rep = clusterProvenance(ctx);
        else if (workload == "capacity_archive")
            rep = capacityArchive(ctx);
        else
            throw ConfigError("unknown workload '" + workload + "'");
        out["error"] = json::Value(nullptr);
    } catch (const std::exception &e) {
        out["error"] = json::Value(std::string(e.what()));
        rep.check("study_completed", false);
    }
    if (rep.studyEnd <= 0.0) {
        rep.studyEnd = wallNow();
        rep.cpuAtEnd = cpuNow();
    }
    const double cpuEnd = rep.cpuAtEnd;

    bool allPass = true;
    json::Object checks;
    for (const auto &[name, ok] : rep.checks) {
        checks[name] = json::Value(ok);
        allPass = allPass && ok;
    }
    // A failed study-level check fails every run of the study.
    if (!allPass)
        rep.runsFailed = std::max<std::uint64_t>(rep.runsAttempted, 1);
    out["checks"] = json::Value(std::move(checks));
    out["runs_attempted"] =
        json::Value(static_cast<std::int64_t>(std::max<std::uint64_t>(
            rep.runsAttempted, 1)));
    out["runs_failed"] =
        json::Value(static_cast<std::int64_t>(rep.runsFailed));
    out["digest"] = json::Value(rep.digest.hex());

    const double simStart = rep.simStart > 0.0 ? rep.simStart : started;
    json::Object e2e;
    e2e["study_s"] = json::Value(rep.studyEnd - simStart);
    e2e["sim_req_per_s"] = json::Value(
        ratio(static_cast<double>(rep.counts.requests), rep.simWallS));
    e2e["cpu_s"] = json::Value(cpuEnd - rep.cpuAtStart);
    e2e["peak_rss_mb"] = json::Value(peakRssMb());
    e2e["setup_s"] = json::Value(simStart - (t0 > 0.0 ? t0 : started));
    out["e2e"] = json::Value(std::move(e2e));
    out["layer"] = json::Value(layerMetrics(rep));

    const std::vector<SpanRecord> spans = recordedSpans();
    out["self_s"] = json::Value(selfTimeByLayer(spans));
    out["spans"] = json::Value(static_cast<std::int64_t>(spans.size()));
    if (!spansOut.empty() && !spans.empty())
        writeSpans(spansOut, spans);

    std::printf("%s\n", json::Value(std::move(out)).dump().c_str());
    return 0;
}
