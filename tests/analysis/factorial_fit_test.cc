/**
 * @file
 * Bit-identity tests for fitFactorialModels at attribution-sweep scale
 * (128 rows, four factors, three taus, 60 bootstrap replicates).
 *
 * The golden hash pins every byte of the exported models, so a kernel
 * rewrite in regress/ that reorders floating-point operations, or a
 * change to the order resamples are drawn in, fails here rather than
 * only in an end-to-end digest.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/attribution.h"
#include "analysis/export.h"
#include "regress/design.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/random_variates.h"
#include "util/rng.h"

namespace treadmill {
namespace analysis {
namespace {

struct SweepData {
    regress::FactorialDesign design{
        std::vector<std::string>{"numa", "turbo", "dvfs", "nic"}};
    std::vector<std::vector<double>> levels;
    std::map<double, std::vector<double>> responses;
};

/**
 * Eight reps of each of the 16 cells, in a fixed shuffled order, with
 * responses that carry real effects, an interaction, and a right tail
 * that grows with the quantile (as sweep latencies do).
 */
const SweepData &
sweepData()
{
    static const SweepData data = [] {
        SweepData d;
        Rng rng(0x5eed5eedull);
        Normal body(0.0, 6.0);
        Exponential tail(1.0 / 20.0);
        for (unsigned i = 0; i < 128; ++i) {
            const unsigned cell = (i * 7 + i / 16) % 16;
            const std::vector<double> l{
                static_cast<double>(cell & 1),
                static_cast<double>((cell >> 1) & 1),
                static_cast<double>((cell >> 2) & 1),
                static_cast<double>((cell >> 3) & 1)};
            const double mean = 120.0 + 18.0 * l[0] - 9.0 * l[1] +
                                11.0 * l[3] - 14.0 * l[2] * l[3];
            const double noise = body.sample(rng);
            const double spike = tail.sample(rng);
            d.levels.push_back(l);
            d.responses[0.5].push_back(mean + noise);
            d.responses[0.95].push_back(mean * 1.6 + noise + spike);
            d.responses[0.99].push_back(mean * 2.1 + noise +
                                        spike * (1.0 + l[0]));
        }
        return d;
    }();
    return data;
}

FactorialFitParams
sweepFit()
{
    FactorialFitParams params;
    params.quantiles = {0.5, 0.95, 0.99};
    params.bootstrapReplicates = 60;
    params.seed = 7;
    return params;
}

std::vector<QuantileModel>
fitWith(exec::Parallelism parallelism)
{
    const SweepData &data = sweepData();
    FactorialFitParams params = sweepFit();
    params.parallelism = parallelism;
    return fitFactorialModels(data.design, data.levels, data.responses,
                              params);
}

/** The serial fit, computed once for every test that compares. */
const std::vector<QuantileModel> &
serialModels()
{
    static const std::vector<QuantileModel> models =
        fitWith(exec::Parallelism::serial());
    return models;
}

TEST(FactorialFitTest, GoldenModelsAreBitStable)
{
    const auto &models = serialModels();
    ASSERT_EQ(models.size(), 3u);
    const std::string dumped = toJson(models).dump();
    EXPECT_EQ(fnv1a64(dumped), 0x30682c6540941f3cull) << dumped;

    // The solver state the export does not carry.
    EXPECT_EQ(models[0].fit.iterations, 200u);
    EXPECT_EQ(models[1].fit.iterations, 45u);
    EXPECT_EQ(models[2].fit.iterations, 107u);
    EXPECT_EQ(models[0].fit.loss, 0x1.0d8718578fd84p+8);
    EXPECT_EQ(models[1].fit.loss, 0x1.f9281c8b2bec9p+7);
    EXPECT_EQ(models[2].fit.loss, 0x1.269e7ef80f192p+6);
    EXPECT_FALSE(models[0].fit.converged);
    EXPECT_TRUE(models[1].fit.converged);
    EXPECT_TRUE(models[2].fit.converged);
}

TEST(FactorialFitTest, ParallelFitIsBitIdenticalToSerial)
{
    const auto &serial = serialModels();
    for (unsigned threads : {2u, 4u, 0u}) {
        SCOPED_TRACE(threads);
        const auto parallel = fitWith(exec::Parallelism{threads});
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t m = 0; m < serial.size(); ++m) {
            const QuantileModel &a = serial[m];
            const QuantileModel &b = parallel[m];
            EXPECT_EQ(a.tau, b.tau);
            EXPECT_EQ(a.pseudoR2, b.pseudoR2);
            EXPECT_EQ(a.fit.coefficients, b.fit.coefficients);
            EXPECT_EQ(a.fit.loss, b.fit.loss);
            EXPECT_EQ(a.fit.iterations, b.fit.iterations);
            EXPECT_EQ(a.fit.converged, b.fit.converged);
            ASSERT_EQ(a.terms.size(), b.terms.size());
            for (std::size_t t = 0; t < a.terms.size(); ++t) {
                EXPECT_EQ(a.terms[t].name, b.terms[t].name);
                EXPECT_EQ(a.terms[t].estimate, b.terms[t].estimate);
                EXPECT_EQ(a.terms[t].standardError,
                          b.terms[t].standardError);
                EXPECT_EQ(a.terms[t].pValue, b.terms[t].pValue);
            }
        }
        EXPECT_EQ(toJson(parallel).dump(), toJson(serial).dump());
    }
}

TEST(FactorialFitTest, FanOutMatchesSerialBootstrapPerTau)
{
    // The fan-out must be the serial bootstrap, regrouped: same
    // perturbed design, same substream per tau, same replicate order.
    const SweepData &data = sweepData();
    const FactorialFitParams params = sweepFit();
    const auto &models = serialModels();

    Rng rng = Rng(0xbead5eedful).substream(params.seed);
    const regress::Matrix x = regress::FactorialDesign::perturb(
        data.design.designMatrix(data.levels), params.perturbSd, rng);
    for (std::size_t t = 0; t < params.quantiles.size(); ++t) {
        const double tau = params.quantiles[t];
        Rng bootRng =
            rng.substream(static_cast<std::uint64_t>(tau * 1e6));
        const auto inference = regress::bootstrapQuantReg(
            x, data.responses.at(tau), tau, params.bootstrapReplicates,
            bootRng);
        EXPECT_EQ(inference.fit.coefficients,
                  models[t].fit.coefficients);
        for (std::size_t i = 0; i < inference.coefficients.size(); ++i)
            EXPECT_EQ(inference.coefficients[i].standardError,
                      models[t].terms[i].standardError);
    }
}

TEST(FactorialFitTest, FitErrorsPropagateFromWorkers)
{
    const SweepData &data = sweepData();
    FactorialFitParams params = sweepFit();
    params.parallelism = exec::Parallelism{4};
    params.quantiles = {0.5, 1.5};
    std::map<double, std::vector<double>> responses = data.responses;
    responses[1.5] = responses.at(0.5);
    EXPECT_THROW(fitFactorialModels(data.design, data.levels, responses,
                                    params),
                 NumericalError);
}

} // namespace
} // namespace analysis
} // namespace treadmill
