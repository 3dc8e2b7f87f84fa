/** @file Unit tests for bootstrap quantile-regression inference. */

#include "regress/inference.h"

#include <gtest/gtest.h>

#include "regress/design.h"
#include "util/error.h"
#include "util/random_variates.h"

namespace treadmill {
namespace regress {
namespace {

/** 2^2 factorial data: y = 50 + 10 a + noise, b irrelevant. */
struct FactorialData {
    Matrix x;
    Vec y;
    explicit FactorialData(std::uint64_t seed, int reps = 100)
        : x(1, 1) // replaced below
    {
        FactorialDesign design({"a", "b"});
        Rng rng(seed);
        Normal noise(0.0, 3.0);
        std::vector<std::vector<double>> obs;
        for (int rep = 0; rep < reps; ++rep) {
            for (int a = 0; a <= 1; ++a) {
                for (int b = 0; b <= 1; ++b) {
                    obs.push_back({static_cast<double>(a),
                                   static_cast<double>(b)});
                    y.push_back(50.0 + 10.0 * a + noise.sample(rng));
                }
            }
        }
        x = design.designMatrix(obs);
    }
};

TEST(InferenceTest, SignificantEffectDetected)
{
    FactorialData data(1);
    Rng rng(2);
    const auto inf = bootstrapQuantReg(data.x, data.y, 0.5, 100, rng);
    ASSERT_EQ(inf.coefficients.size(), 4u);
    // Term 1 is "a": estimate ~10, clearly significant.
    EXPECT_NEAR(inf.coefficients[1].estimate, 10.0, 1.5);
    EXPECT_LT(inf.coefficients[1].pValue, 0.01);
    // Term 2 is "b": irrelevant, insignificant.
    EXPECT_GT(inf.coefficients[2].pValue, 0.05);
    EXPECT_NEAR(inf.coefficients[2].estimate, 0.0, 2.0);
}

TEST(InferenceTest, StandardErrorsArePositiveAndModest)
{
    FactorialData data(3);
    Rng rng(4);
    const auto inf = bootstrapQuantReg(data.x, data.y, 0.5, 100, rng);
    for (const auto &c : inf.coefficients) {
        EXPECT_GT(c.standardError, 0.0);
        EXPECT_LT(c.standardError, 5.0);
    }
}

TEST(InferenceTest, ConfidenceIntervalBracketsTruth)
{
    FactorialData data(5);
    Rng rng(6);
    const auto inf =
        bootstrapQuantReg(data.x, data.y, 0.5, 200, rng, 0.95);
    EXPECT_LT(inf.coefficients[1].ciLow, 10.0);
    EXPECT_GT(inf.coefficients[1].ciHigh, 10.0);
    EXPECT_LT(inf.coefficients[1].ciLow, inf.coefficients[1].ciHigh);
}

TEST(InferenceTest, MoreDataShrinksStandardErrors)
{
    FactorialData small(7, 30);
    FactorialData large(7, 300);
    Rng rng(8);
    const auto infSmall =
        bootstrapQuantReg(small.x, small.y, 0.5, 120, rng);
    const auto infLarge =
        bootstrapQuantReg(large.x, large.y, 0.5, 120, rng);
    EXPECT_LT(infLarge.coefficients[1].standardError,
              infSmall.coefficients[1].standardError);
}

TEST(InferenceTest, TailQuantileHasLargerUncertainty)
{
    // Paper Finding 2: quantile variance is inversely proportional to
    // density; P99 errors exceed P50 errors.
    FactorialData data(9, 200);
    Rng rng(10);
    const auto inf50 =
        bootstrapQuantReg(data.x, data.y, 0.5, 120, rng);
    const auto inf99 =
        bootstrapQuantReg(data.x, data.y, 0.99, 120, rng);
    EXPECT_GT(inf99.coefficients[0].standardError,
              inf50.coefficients[0].standardError);
}

TEST(InferenceTest, ReportsRefitsThatEnteredTheStandardErrors)
{
    // Two reps of an unperturbed 2^2 design: a resample of 8 rows
    // often misses a cell, leaving a singular design that is skipped.
    FactorialData data(13, 2);
    const std::size_t requested = 60;
    Rng rng(14);
    const auto inf =
        bootstrapQuantReg(data.x, data.y, 0.5, requested, rng);

    // The same steps composed by hand, from an identically seeded rng.
    Rng replay(14);
    const auto resamples =
        drawResamples(data.x.rows(), requested, replay);
    std::vector<Vec> refits;
    std::size_t skipped = 0;
    for (const auto &indices : resamples) {
        refits.push_back(fitResample(data.x, data.y, indices, 0.5));
        skipped += refits.back().empty();
    }
    ASSERT_GT(skipped, 0u);
    EXPECT_EQ(inf.bootstrapReplicates, requested - skipped);
    EXPECT_LT(inf.bootstrapReplicates, requested);

    const auto composed = summarizeBootstrap(
        fitQuantile(data.x, data.y, 0.5), refits);
    EXPECT_EQ(composed.bootstrapReplicates, inf.bootstrapReplicates);
    EXPECT_EQ(composed.fit.coefficients, inf.fit.coefficients);
    ASSERT_EQ(composed.coefficients.size(), inf.coefficients.size());
    for (std::size_t j = 0; j < inf.coefficients.size(); ++j) {
        EXPECT_EQ(composed.coefficients[j].standardError,
                  inf.coefficients[j].standardError);
        EXPECT_EQ(composed.coefficients[j].pValue,
                  inf.coefficients[j].pValue);
        EXPECT_EQ(composed.coefficients[j].ciLow,
                  inf.coefficients[j].ciLow);
        EXPECT_EQ(composed.coefficients[j].ciHigh,
                  inf.coefficients[j].ciHigh);
    }
}

TEST(InferenceTest, ResamplesAreDrawnReplicateByReplicate)
{
    Rng rng(15);
    const auto resamples = drawResamples(10, 3, rng);
    Rng replay(15);
    ASSERT_EQ(resamples.size(), 3u);
    for (const auto &indices : resamples) {
        ASSERT_EQ(indices.size(), 10u);
        for (std::size_t idx : indices)
            EXPECT_EQ(idx, replay.nextBelow(10));
    }
}

TEST(InferenceTest, RejectsTooFewReplicates)
{
    FactorialData data(11);
    Rng rng(12);
    EXPECT_THROW(bootstrapQuantReg(data.x, data.y, 0.5, 1, rng),
                 ConfigError);
}

} // namespace
} // namespace regress
} // namespace treadmill
