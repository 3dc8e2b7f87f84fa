/**
 * @file
 * capacity_archive: closed-loop SLO capacity search plus an archived
 * factorial at the operating point it finds.
 *
 * CapacityController::search finds the highest Memcached utilization
 * in [0.05, 0.95] whose P99 meets the SLO, archiving every run through
 * a StudyWriter. StudyDriver::run then simulates a 2^2 numa x turbo
 * factorial at that utilization -- simulate, persist, and incremental
 * refits overlapped -- into a second archive. Both archives are
 * verified and the factorial is refitted from disk.
 *
 * Neither call returns ExperimentResults, so the per-layer counts are
 * read back from the metrics snapshot each archived run stores (the
 * result's own metrics registry), after the study clock has stopped.
 */

#include <filesystem>

#include "analysis/export.h"
#include "analysis/refit.h"
#include "core/run_record.h"
#include "drive/capacity_controller.h"
#include "drive/study_driver.h"
#include "store/format.h"
#include "store/reader.h"
#include "store/writer.h"
#include "study.h"
#include "util/error.h"

namespace studybench {

namespace {

/** Fold an archive's run files into the counts and the digest. */
std::uint64_t
readBack(const std::string &dir, StudyReport &rep)
{
    const store::StudyReader reader(dir);
    std::uint64_t bytes = 0;
    for (std::uint64_t seq = 0; seq < reader.runCount(); ++seq) {
        const store::RunReader run = reader.openRun(seq);
        std::size_t size = 0;
        const char *data =
            run.bytesData(store::ColumnId::MetricsJson, size);
        const std::string metrics(data, size);
        rep.counts.addMetrics(json::parse(metrics));
        rep.digest.add(metrics);
        bytes += std::filesystem::file_size(reader.runPath(seq));
        for (double q : run.doubles(store::ColumnId::QuantileValues))
            rep.digest.add(q);
    }
    return bytes;
}

} // namespace

StudyReport
capacityArchive(const StudyContext &ctx)
{
    StudyReport rep;
    Span study("bench.study");
    const unsigned workers = ctx.count("workers");
    const unsigned reps = ctx.count("reps_per_cell");
    const json::Array &seeds = ctx.inputs.at("factorial_seeds").asArray();
    if (seeds.size() != 4u * reps)
        throw ConfigError(
            "factorial_seeds must hold 4 x reps_per_cell seeds");
    const double sloUs = ctx.number("slo_us");

    core::ExperimentParams base;
    base.collector.warmUpSamples = 300;
    base.collector.calibrationSamples = 300;
    base.collector.measurementSamples = ctx.count("samples");

    drive::CapacityControllerParams controls;
    controls.search.base = base;
    controls.search.tau = 0.99;
    controls.search.sloUs = sloUs;
    controls.search.utilizationLow = 0.05;
    controls.search.utilizationHigh = 0.95;
    controls.search.maxIterations = 8;
    controls.search.runsPerPoint = 3;
    controls.search.seed = ctx.seed("search_seed");
    controls.search.parallelism = exec::Parallelism{workers};
    controls.maxRunsPerProbe = 6;
    controls.confidence = 0.95;
    controls.utilizationTolerance = 0.02;

    const std::string root = ctx.workDir + "/capacity_archive";
    store::StudyMeta capMeta;
    capMeta.name = "capacity";
    capMeta.factors = {"utilization"};
    capMeta.quantiles = {0.5, 0.99};
    capMeta.configDigest = core::configDigest(base);
    store::StudyWriter capArchive(root + "/capacity", capMeta,
                                  store::StudyWriter::Options{true});

    // ---- Adaptive search, archived as it runs.
    drive::CapacitySearchResult cap;
    {
        SimCall sim(rep);
        Span span("drive.search");
        drive::CapacityController controller(controls);
        cap = controller.search(&capArchive);
    }
    {
        Span span("store.finish");
        capArchive.finish();
    }
    rep.runsAttempted += cap.totalRuns;
    rep.layer["drive.search_runs"] = cap.totalRuns;
    rep.digest.add(cap.maxUtilization);
    rep.digest.add(cap.maxRequestsPerSecond);
    rep.digest.add(cap.latencyAtMaxUs);
    for (const drive::ProbeOutcome &probe : cap.probes)
        for (double q : probe.perRunQuantileUs)
            rep.digest.add(q);
    rep.check("search_converged", cap.converged && !cap.infeasible);
    rep.check("operating_point_meets_slo",
              cap.latencyAtMaxUs > 0.0 && cap.latencyAtMaxUs <= sloUs);

    // ---- 2^2 numa x turbo factorial at the operating point.
    core::ExperimentParams point = base;
    point.targetUtilization =
        cap.maxUtilization > 0.0 ? cap.maxUtilization : 0.5;
    {
        Span span("core.deriveRequestRate");
        point.requestsPerSecond = core::deriveRequestRate(point);
    }
    std::vector<drive::StudyRun> plan;
    for (unsigned cell = 0; cell < 4; ++cell) {
        for (unsigned r = 0; r < reps; ++r) {
            drive::StudyRun run;
            run.params = point;
            run.params.config = hw::HardwareConfig::fromIndex(cell);
            run.params.seed =
                static_cast<std::uint64_t>(seeds[plan.size()].asNumber());
            const auto l = run.params.config.levels();
            run.levels = {l[0], l[1]};
            plan.push_back(std::move(run));
        }
    }
    drive::StudyDriverParams driverParams;
    driverParams.factors = {"numa", "turbo"};
    driverParams.fit.quantiles = {0.5, 0.95, 0.99};
    driverParams.fit.bootstrapReplicates = ctx.count("replicates");
    driverParams.fit.seed = ctx.seed("fit_seed");
    driverParams.refitEvery = 4;
    driverParams.parallelism = exec::Parallelism{workers};

    store::StudyMeta facMeta;
    facMeta.name = "factorial";
    facMeta.factors = driverParams.factors;
    facMeta.quantiles = driverParams.fit.quantiles;
    facMeta.configDigest = core::configDigest(point);
    store::StudyWriter facArchive(root + "/factorial", facMeta,
                                  store::StudyWriter::Options{true});
    drive::StudyOutcome outcome;
    {
        SimCall sim(rep);
        Span span("drive.StudyDriver");
        drive::StudyDriver driver(driverParams);
        outcome = driver.run(plan, &facArchive);
    }
    {
        Span span("store.finish");
        facArchive.finish();
    }
    rep.runsAttempted += plan.size();
    rep.layer["drive.refits_overlapped"] = outcome.refitsOverlapped;
    rep.layer["exec.cpu_util"] =
        rep.simCpuS / (static_cast<double>(workers) * rep.simWallS);
    const std::string liveModels = analysis::toJson(outcome.models).dump();
    rep.digest.add(liveModels);

    // ---- Both archives verify clean; the refit matches bit for bit.
    bool clean = true;
    for (const char *name : {"capacity", "factorial"}) {
        Span span("store.verify");
        const store::StudyReader reader(root + "/" + name);
        clean = clean && reader.verify().empty() &&
                reader.runCount() ==
                    (name[0] == 'c' ? cap.totalRuns : plan.size());
    }
    rep.check("archives_verify_clean", clean);
    std::vector<analysis::QuantileModel> refit;
    {
        Span span("store.refitFromStore");
        const store::StudyReader reader(root + "/factorial");
        refit = analysis::refitFromStore(reader, driverParams.fit);
    }
    bool identical = analysis::toJson(refit).dump() == liveModels &&
                     refit.size() == outcome.models.size();
    for (std::size_t m = 0; identical && m < refit.size(); ++m)
        identical = refit[m].fit.coefficients ==
                    outcome.models[m].fit.coefficients;
    if (ctx.tamperShape)
        identical = !identical;
    rep.check("refit_matches_live_fit", identical);
    rep.layer["regress.fits"] = static_cast<double>(
        driverParams.fit.quantiles.size() *
        (driverParams.fit.bootstrapReplicates + 1));
    rep.studyEnd = wallNow();
    rep.cpuAtEnd = cpuNow();

    const std::uint64_t bytes =
        readBack(root + "/capacity", rep) + readBack(root + "/factorial", rep);
    rep.layer["store.bytes_per_run"] =
        static_cast<double>(bytes) /
        static_cast<double>(cap.totalRuns + plan.size());
    return rep;
}

} // namespace studybench
