/** @file Tests for JSON export of results. */

#include "analysis/export.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/random_variates.h"

namespace treadmill {
namespace analysis {
namespace {

core::ExperimentResult
runSmall()
{
    core::ExperimentParams params;
    params.targetUtilization = 0.3;
    params.collector.warmUpSamples = 50;
    params.collector.calibrationSamples = 50;
    params.collector.measurementSamples = 600;
    params.seed = 4;
    return core::runExperiment(params);
}

TEST(ExportTest, ExperimentResultSerializes)
{
    const auto result = runSmall();
    const json::Value doc = toJson(result);

    EXPECT_DOUBLE_EQ(doc.at("achieved_rps").asNumber(),
                     result.achievedRps);
    EXPECT_DOUBLE_EQ(doc.at("server_utilization").asNumber(),
                     result.serverUtilization);
    EXPECT_EQ(doc.at("instances").asArray().size(), 8u);
    EXPECT_GT(
        doc.at("aggregated_quantiles_us").at("p990").asNumber(), 0.0);
    EXPECT_GT(doc.at("ground_truth").at("count").asInt(), 0);

    // The document is valid JSON text end to end.
    EXPECT_EQ(json::parse(doc.dump()), doc);
}

TEST(ExportTest, ComponentSummariesMatchExactValues)
{
    // Exact means and sample quantiles (R type 7) of this run's
    // per-request component logs, captured before the logs became
    // histograms. Counts and means stay exact; each exported quantile
    // must land within one bucket of the exact one.
    struct Exact {
        const char *name;
        double mean;
        double quantiles[5]; // p500, p900, p950, p990, p999
    };
    const Exact exact[] = {
        {"server",
         0x1.457a86039646fp+4,
         {0x1.f10e560418937p+3, 0x1.0010624dd2f1bp+5, 0x1.6bdd2f1a9fbe7p+5,
          0x1.7e8d4fdf3b646p+6, 0x1.80804ea4a8bap+7}},
        {"network",
         0x1.4afb6268e0583p+2,
         {0x1.478d4fdf3b646p+2, 0x1.54189374bc6a8p+2, 0x1.583126e978d5p+2,
          0x1.6126e978d4fdfp+2, 0x1.6d4fdf3b645a2p+2}},
        {"client",
         0x1.01d131f221935p+5,
         {0x1.019999999999ap+5, 0x1.019999999999ap+5, 0x1.019999999999ap+5,
          0x1.085604189374cp+5, 0x1.0b20c49ba5e35p+5}},
    };
    const char *keys[] = {"p500", "p900", "p950", "p990", "p999"};

    const auto result = runSmall();
    const json::Value doc = toJson(result);
    for (const Exact &e : exact) {
        SCOPED_TRACE(e.name);
        const json::Value &c = doc.at("components").at(e.name);
        EXPECT_EQ(c.at("count").asInt(), 5601);
        EXPECT_EQ(c.at("mean_us").asNumber(), e.mean);
        for (int k = 0; k < 5; ++k) {
            const double got = c.at("quantiles_us").at(keys[k]).asNumber();
            EXPECT_LE(std::abs(obs::Histogram::bucketFor(got) -
                               obs::Histogram::bucketFor(e.quantiles[k])),
                      1)
                << keys[k] << " " << got << " vs " << e.quantiles[k];
            EXPECT_LE(std::abs(std::log2(got / e.quantiles[k])), 0.25)
                << keys[k] << " " << got << " vs " << e.quantiles[k];
        }
    }
    EXPECT_EQ(doc.at("components").at("server").at("mean_us").asNumber(),
              result.serverComponentUs.mean());
}

TEST(ExportTest, InstanceFieldsPresent)
{
    const json::Value doc = toJson(runSmall());
    const json::Value &inst = doc.at("instances").asArray()[0];
    EXPECT_TRUE(inst.contains("measured"));
    EXPECT_TRUE(inst.at("reached_target").asBool());
    EXPECT_TRUE(inst.contains("client_cpu_utilization"));
    EXPECT_FALSE(inst.at("remote_rack").asBool());
    EXPECT_GT(inst.at("quantiles_us").at("p500").asNumber(), 0.0);
}

TEST(ExportTest, AttributionSerializes)
{
    // Synthetic attribution (no simulation) keeps the test quick.
    AttributionParams params;
    params.quantiles = {0.5, 0.99};
    params.bootstrapReplicates = 20;
    params.perturbSd = 0.0;
    std::vector<Observation> obs;
    Rng rng(3);
    Normal noise(0.0, 1.0);
    for (int rep = 0; rep < 4; ++rep) {
        for (unsigned idx = 0; idx < 16; ++idx) {
            Observation o;
            o.config = hw::HardwareConfig::fromIndex(idx);
            const auto l = o.config.levels();
            const double base = 100.0 + 25.0 * l[0] +
                                noise.sample(rng);
            o.quantileUs[0.5] = base;
            o.quantileUs[0.99] = base * 3.0;
            obs.push_back(std::move(o));
        }
    }
    const auto attribution = fitAttribution(params, std::move(obs));
    const json::Value doc = toJson(attribution);

    EXPECT_EQ(doc.at("observations").asInt(), 64);
    const auto &models = doc.at("models").asArray();
    ASSERT_EQ(models.size(), 2u);
    EXPECT_DOUBLE_EQ(models[0].at("tau").asNumber(), 0.5);
    const auto &terms = models[0].at("terms").asArray();
    ASSERT_EQ(terms.size(), 16u);
    EXPECT_EQ(terms[1].at("name").asString(), "numa");
    EXPECT_NEAR(terms[1].at("estimate_us").asNumber(), 25.0, 2.0);
    EXPECT_EQ(json::parse(doc.dump()), doc);
}

TEST(ExportTest, ImprovementSerializes)
{
    ImprovementResult result;
    result.tau = 0.99;
    result.recommended = hw::HardwareConfig::fromIndex(2);
    result.before.mean = 200.0;
    result.before.stddev = 20.0;
    result.before.perRunQuantileUs = {180.0, 220.0};
    result.after.mean = 120.0;
    result.after.stddev = 5.0;
    result.after.perRunQuantileUs = {115.0, 125.0};

    const json::Value doc = toJson(result);
    EXPECT_EQ(doc.at("recommended_config").asString(),
              result.recommended.label());
    EXPECT_NEAR(doc.at("latency_reduction").asNumber(), 0.4, 1e-9);
    EXPECT_NEAR(doc.at("variability_reduction").asNumber(), 0.75,
                1e-9);
    EXPECT_EQ(doc.at("before").at("runs").asInt(), 2);
    EXPECT_EQ(json::parse(doc.dump()), doc);
}

} // namespace
} // namespace analysis
} // namespace treadmill
