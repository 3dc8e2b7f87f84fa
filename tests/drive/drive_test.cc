/**
 * @file
 * Tests for the drive layer: the CI-aware SLO comparison, adaptive
 * capacity search (it must beat a non-adaptive bisection's run
 * budget), parameter validation, and the pipelined study driver's
 * determinism across parallelism settings.
 */

#include "drive/capacity_controller.h"
#include "drive/study_driver.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/export.h"
#include "store/reader.h"
#include "util/error.h"

namespace treadmill {
namespace drive {
namespace {

namespace fs = std::filesystem;

CapacityControllerParams
quickSearch(double sloUs)
{
    CapacityControllerParams params;
    params.search.base.collector.warmUpSamples = 100;
    params.search.base.collector.calibrationSamples = 100;
    params.search.base.collector.measurementSamples = 1200;
    params.search.base.config.dvfs = hw::DvfsGovernor::Performance;
    params.search.tau = 0.99;
    params.search.sloUs = sloUs;
    params.search.maxIterations = 4;
    params.search.runsPerPoint = 2;
    params.search.seed = 8;
    params.maxRunsPerProbe = 4;
    return params;
}

TEST(CompareToSloTest, TooFewRunsIsAlwaysUncertain)
{
    EXPECT_EQ(compareToSlo({}, 100.0).verdict, SloVerdict::Uncertain);
    EXPECT_EQ(compareToSlo({50.0}, 100.0).verdict,
              SloVerdict::Uncertain);
}

TEST(CompareToSloTest, TightSamplesResolveCleanly)
{
    // Low-variance samples far from the bound give a decisive CI.
    const std::vector<double> fast = {99.0, 100.0, 101.0};
    const SloComparison clears = compareToSlo(fast, 1000.0);
    EXPECT_EQ(clears.verdict, SloVerdict::Clears);
    EXPECT_EQ(clears.runs, 3u);
    EXPECT_NEAR(clears.mean, 100.0, 1e-9);
    EXPECT_LT(clears.ciHighUs, 1000.0);

    const SloComparison violates = compareToSlo(fast, 10.0);
    EXPECT_EQ(violates.verdict, SloVerdict::Violates);
    EXPECT_GT(violates.ciLowUs, 10.0);
}

TEST(CompareToSloTest, StraddlingIntervalStaysUncertain)
{
    // Spread across the bound: the CI must contain it.
    const std::vector<double> noisy = {60.0, 140.0};
    const SloComparison c = compareToSlo(noisy, 100.0);
    EXPECT_EQ(c.verdict, SloVerdict::Uncertain);
    EXPECT_LE(c.ciLowUs, 100.0);
    EXPECT_GE(c.ciHighUs, 100.0);
}

TEST(CompareToSloTest, WiderConfidenceWidensTheInterval)
{
    const std::vector<double> samples = {90.0, 100.0, 110.0, 105.0};
    const SloComparison narrow = compareToSlo(samples, 100.0, 0.80);
    const SloComparison wide = compareToSlo(samples, 100.0, 0.99);
    EXPECT_LT(narrow.ciHighUs - narrow.ciLowUs,
              wide.ciHighUs - wide.ciLowUs);
}

TEST(CapacityControllerTest, ValidatesEveryField)
{
    // The search fields are validated by name...
    CapacityControllerParams bad = quickSearch(100.0);
    bad.search.sloUs = 0.0;
    EXPECT_THROW(CapacityController{bad}, ConfigError);
    bad = quickSearch(100.0);
    bad.search.tau = 1.5;
    EXPECT_THROW(CapacityController{bad}, ConfigError);
    bad = quickSearch(100.0);
    bad.search.utilizationLow = 0.9;
    bad.search.utilizationHigh = 0.5;
    EXPECT_THROW(CapacityController{bad}, ConfigError);
    bad = quickSearch(100.0);
    bad.search.runsPerPoint = 0;
    EXPECT_THROW(CapacityController{bad}, ConfigError);
    // ...and the controller's own knobs get the same treatment.
    bad = quickSearch(100.0);
    bad.maxRunsPerProbe = 1; // below runsPerPoint = 2
    EXPECT_THROW(CapacityController{bad}, ConfigError);
    bad = quickSearch(100.0);
    bad.confidence = 1.0;
    EXPECT_THROW(CapacityController{bad}, ConfigError);
    bad = quickSearch(100.0);
    bad.confidence = 0.3;
    EXPECT_THROW(CapacityController{bad}, ConfigError);
    bad = quickSearch(100.0);
    bad.utilizationTolerance = 0.0;
    EXPECT_THROW(CapacityController{bad}, ConfigError);
}

TEST(CapacityControllerTest, EasySloResolvesInFewerRunsThanFixed)
{
    // A loose SLO lets both bracket probes clear on their first wave,
    // so the adaptive search must come in strictly under a
    // non-adaptive bisection's (2 + maxIterations) * runsPerPoint
    // budget.
    CapacityController controller(quickSearch(1.0e6));
    const CapacitySearchResult result = controller.search();
    EXPECT_FALSE(result.infeasible);
    EXPECT_TRUE(result.converged);
    EXPECT_DOUBLE_EQ(result.maxUtilization, 0.90);
    EXPECT_EQ(result.fixedPlannerRuns, (2u + 4u) * 2u);
    EXPECT_LT(result.totalRuns, result.fixedPlannerRuns);
    ASSERT_EQ(result.probes.size(), 2u);
    for (const ProbeOutcome &probe : result.probes) {
        EXPECT_TRUE(probe.meetsSlo);
        EXPECT_TRUE(probe.earlyExit);
        EXPECT_EQ(probe.comparison.verdict, SloVerdict::Clears);
    }
}

TEST(CapacityControllerTest, ModerateSloLandsInsideTheBracket)
{
    // An SLO between the low-load and high-load P99 puts the answer
    // strictly inside the bracket.
    const CapacitySearchResult result =
        CapacityController(quickSearch(200.0)).search();
    ASSERT_FALSE(result.infeasible);
    EXPECT_GT(result.maxUtilization, 0.05);
    EXPECT_LT(result.maxUtilization, 0.90);
    EXPECT_LE(result.latencyAtMaxUs, 200.0);
    EXPECT_GT(result.maxRequestsPerSecond, 0.0);
}

TEST(CapacityControllerTest, ProbeLatencyIncreasesWithUtilization)
{
    const CapacitySearchResult result =
        CapacityController(quickSearch(200.0)).search();
    // The two bracket probes: low util must be faster than high util.
    ASSERT_GE(result.probes.size(), 2u);
    EXPECT_LT(result.probes[0].comparison.mean,
              result.probes[1].comparison.mean);
}

TEST(CapacityControllerTest, MeetsSloFallsBackToTheMeanAtTheBudget)
{
    // sloUs = 200, maxRunsPerProbe = 4.
    const CapacityController controller(quickSearch(200.0));
    EXPECT_TRUE(controller.meetsSlo({99.0, 100.0, 101.0}));
    EXPECT_FALSE(controller.meetsSlo({999.0, 1000.0, 1001.0}));
    // A straddling CI decides nothing before the budget is spent...
    EXPECT_FALSE(controller.meetsSlo({60.0, 300.0}));
    // ...and the mean decides it once the budget is spent.
    EXPECT_TRUE(controller.meetsSlo({60.0, 300.0, 60.0, 300.0}));
    EXPECT_FALSE(controller.meetsSlo({100.0, 340.0, 100.0, 340.0}));
}

TEST(CapacityControllerTest, MeetsSloReproducesEveryLiveDecision)
{
    // Re-deciding each probe from its stored per-run quantiles (what
    // a re-analysis from an archive sees) must give the live answer.
    CapacityController controller(quickSearch(200.0));
    const CapacitySearchResult result = controller.search();
    ASSERT_GE(result.probes.size(), 3u);
    for (const ProbeOutcome &probe : result.probes)
        EXPECT_EQ(controller.meetsSlo(probe.perRunQuantileUs),
                  probe.meetsSlo)
            << "probe at util " << probe.utilization;
}

TEST(CapacityControllerTest, SearchIsIdenticalSerialVsParallel)
{
    // Each probe's runs fan out across threads, but every run derives
    // its state from its own seed and lands in its own slot.
    CapacityControllerParams params;
    params.search.base.targetUtilization = 0.5;
    params.search.base.collector.warmUpSamples = 50;
    params.search.base.collector.calibrationSamples = 50;
    params.search.base.collector.measurementSamples = 400;
    params.search.sloUs = 400.0;
    params.search.maxIterations = 2;
    params.search.runsPerPoint = 3;

    params.search.parallelism = exec::Parallelism::serial();
    const CapacitySearchResult serial =
        CapacityController(params).search();
    params.search.parallelism = exec::Parallelism{8};
    const CapacitySearchResult parallel =
        CapacityController(params).search();

    EXPECT_EQ(parallel.totalRuns, serial.totalRuns);
    EXPECT_EQ(parallel.maxUtilization, serial.maxUtilization);
    EXPECT_EQ(parallel.latencyAtMaxUs, serial.latencyAtMaxUs);
    ASSERT_EQ(parallel.probes.size(), serial.probes.size());
    for (std::size_t i = 0; i < serial.probes.size(); ++i) {
        const ProbeOutcome &a = serial.probes[i];
        const ProbeOutcome &b = parallel.probes[i];
        EXPECT_EQ(b.utilization, a.utilization) << "probe " << i;
        EXPECT_EQ(b.comparison.verdict, a.comparison.verdict)
            << "probe " << i;
        EXPECT_EQ(b.meetsSlo, a.meetsSlo) << "probe " << i;
        EXPECT_EQ(b.perRunQuantileUs, a.perRunQuantileUs)
            << "probe " << i;
    }
}

TEST(CapacityControllerTest, ImpossibleSloIsInfeasible)
{
    CapacityController controller(quickSearch(1.0));
    const CapacitySearchResult result = controller.search();
    EXPECT_TRUE(result.infeasible);
    EXPECT_DOUBLE_EQ(result.maxUtilization, 0.0);
    ASSERT_EQ(result.probes.size(), 1u);
    EXPECT_FALSE(result.probes[0].meetsSlo);
}

TEST(CapacityControllerTest, ArchivesEverySimulatedRun)
{
    const std::string dir =
        (fs::temp_directory_path() / "tmdrive_test_archive").string();
    fs::remove_all(dir);

    store::StudyMeta meta;
    meta.name = "capacity";
    meta.factors = {"utilization"};
    meta.quantiles = {0.5, 0.99};
    store::StudyWriter archive(dir, meta);

    CapacityController controller(quickSearch(1.0e6));
    const CapacitySearchResult result = controller.search(&archive);
    archive.finish();

    store::StudyReader study(dir);
    EXPECT_EQ(study.runCount(), result.totalRuns);
    EXPECT_EQ(study.verify().size(), 0u);
    // Each archived run carries its probe's utilization as the level.
    const store::RunRecord first = study.openRun(0).record();
    ASSERT_EQ(first.factorLevels.size(), 1u);
    EXPECT_DOUBLE_EQ(first.factorLevels[0], 0.05);
    fs::remove_all(dir);
}

StudyDriverParams
quickDriver()
{
    StudyDriverParams params;
    params.factors = {"load"};
    params.fit.quantiles = {0.5, 0.9};
    params.fit.bootstrapReplicates = 20;
    params.fit.seed = 5;
    params.reservoirCapacity = 2000;
    return params;
}

std::vector<StudyRun>
quickPlan(std::size_t reps)
{
    std::vector<StudyRun> plan;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        for (int level = 0; level <= 1; ++level) {
            StudyRun run;
            run.params.collector.warmUpSamples = 100;
            run.params.collector.calibrationSamples = 100;
            run.params.collector.measurementSamples = 1200;
            run.params.targetUtilization = level == 0 ? 0.3 : 0.7;
            run.params.seed = 41 + 13 * plan.size();
            run.levels = {static_cast<double>(level)};
            plan.push_back(std::move(run));
        }
    }
    return plan;
}

TEST(StudyDriverTest, ValidatesParamsAndPlan)
{
    StudyDriverParams bad = quickDriver();
    bad.factors.clear();
    EXPECT_THROW(StudyDriver{bad}, ConfigError);
    bad = quickDriver();
    bad.fit.quantiles.clear();
    EXPECT_THROW(StudyDriver{bad}, ConfigError);
    bad = quickDriver();
    bad.fit.quantiles = {1.5};
    EXPECT_THROW(StudyDriver{bad}, ConfigError);
    bad = quickDriver();
    bad.reservoirCapacity = 0;
    EXPECT_THROW(StudyDriver{bad}, ConfigError);

    StudyDriver driver(quickDriver());
    std::vector<StudyRun> plan = quickPlan(1);
    plan[0].levels = {0.0, 1.0}; // two levels for one factor
    EXPECT_THROW(driver.run(plan), ConfigError);
}

TEST(StudyDriverTest, OutcomeIsIdenticalAcrossParallelism)
{
    // The pipeline's core claim: models, responses, and archive bytes
    // depend only on the plan, never on worker count or completion
    // order.
    const std::vector<StudyRun> plan = quickPlan(2);
    const std::string dirA =
        (fs::temp_directory_path() / "tmdrive_test_serial").string();
    const std::string dirB =
        (fs::temp_directory_path() / "tmdrive_test_parallel").string();
    fs::remove_all(dirA);
    fs::remove_all(dirB);

    store::StudyMeta meta;
    meta.name = "driver";
    meta.factors = {"load"};
    meta.quantiles = {0.5, 0.9};

    StudyDriverParams serial = quickDriver();
    serial.parallelism.threads = 1;
    StudyDriverParams parallel = quickDriver();
    parallel.parallelism.threads = 3;

    store::StudyWriter archiveA(dirA, meta);
    const StudyOutcome outA =
        StudyDriver(serial).run(plan, &archiveA);
    archiveA.finish();
    store::StudyWriter archiveB(dirB, meta);
    const StudyOutcome outB =
        StudyDriver(parallel).run(plan, &archiveB);
    archiveB.finish();

    EXPECT_EQ(outA.levels, outB.levels);
    EXPECT_EQ(outA.responses, outB.responses);
    EXPECT_EQ(analysis::toJson(outA.models).dump(),
              analysis::toJson(outB.models).dump());

    store::StudyReader studyA(dirA);
    store::StudyReader studyB(dirB);
    ASSERT_EQ(studyA.runCount(), plan.size());
    ASSERT_EQ(studyB.runCount(), plan.size());
    for (std::uint64_t seq = 0; seq < plan.size(); ++seq) {
        std::ifstream a(studyA.runPath(seq), std::ios::binary);
        std::ifstream b(studyB.runPath(seq), std::ios::binary);
        const std::string bytesA(
            (std::istreambuf_iterator<char>(a)),
            std::istreambuf_iterator<char>());
        const std::string bytesB(
            (std::istreambuf_iterator<char>(b)),
            std::istreambuf_iterator<char>());
        EXPECT_EQ(bytesA, bytesB) << "run " << seq;
    }
    fs::remove_all(dirA);
    fs::remove_all(dirB);
}

TEST(StudyDriverTest, RefitsOverlapSimulation)
{
    // With refitEvery = 1 the consumer refits after (nearly) every
    // completion. Whatever the completion order, by the second-to-last
    // completion both factor levels are present, so at least one
    // incremental refit must succeed while runs are still in flight.
    StudyDriverParams params = quickDriver();
    params.refitEvery = 1;
    params.parallelism.threads = 2;
    const std::vector<StudyRun> plan = quickPlan(3);
    const StudyOutcome out = StudyDriver(params).run(plan);
    EXPECT_GE(out.refitsOverlapped, 1u);
    EXPECT_EQ(out.runs, plan.size());
    EXPECT_EQ(out.levels.size(), plan.size());
}

} // namespace
} // namespace drive
} // namespace treadmill
