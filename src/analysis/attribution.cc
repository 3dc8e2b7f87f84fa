#include "analysis/attribution.h"

#include <algorithm>
#include <utility>

#include "regress/pseudo_r2.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/strings.h"

namespace treadmill {
namespace analysis {

const QuantileModel &
AttributionResult::model(double tau) const
{
    for (const QuantileModel &m : models) {
        if (m.tau == tau)
            return m;
    }
    throw NumericalError(strprintf("no model fitted for tau=%g", tau));
}

double
AttributionResult::predict(double tau,
                           const hw::HardwareConfig &config) const
{
    const QuantileModel &m = model(tau);
    const auto levels = config.levels();
    const regress::Vec row = design.designRow(
        std::vector<double>(levels.begin(), levels.end()));
    return m.fit.predict(row);
}

double
AttributionResult::averageFactorImpact(double tau,
                                       std::size_t factorIdx) const
{
    TM_ASSERT(factorIdx < 4, "factor index out of range");
    // Average predict(high) - predict(low) over all 8 settings of the
    // other factors.
    double total = 0.0;
    unsigned count = 0;
    for (unsigned others = 0; others < 16; ++others) {
        if (others & (1u << factorIdx))
            continue; // enumerate with this factor low
        const hw::HardwareConfig low = hw::HardwareConfig::fromIndex(
            others);
        const hw::HardwareConfig high = hw::HardwareConfig::fromIndex(
            others | (1u << factorIdx));
        total += predict(tau, high) - predict(tau, low);
        ++count;
    }
    return total / static_cast<double>(count);
}

double
AttributionResult::averageFactorImpactGiven(double tau,
                                            std::size_t factorIdx,
                                            std::size_t givenIdx,
                                            bool givenHigh) const
{
    TM_ASSERT(factorIdx < 4 && givenIdx < 4, "factor index out of range");
    TM_ASSERT(factorIdx != givenIdx,
              "conditioning factor must differ from the switched one");
    double total = 0.0;
    unsigned count = 0;
    for (unsigned others = 0; others < 16; ++others) {
        if (others & (1u << factorIdx))
            continue;
        const bool givenIsHigh = (others & (1u << givenIdx)) != 0;
        if (givenIsHigh != givenHigh)
            continue;
        const hw::HardwareConfig low =
            hw::HardwareConfig::fromIndex(others);
        const hw::HardwareConfig high = hw::HardwareConfig::fromIndex(
            others | (1u << factorIdx));
        total += predict(tau, high) - predict(tau, low);
        ++count;
    }
    return total / static_cast<double>(count);
}

std::vector<Observation>
collectObservations(const AttributionParams &params)
{
    if (params.repsPerConfig == 0)
        throw ConfigError("attribution needs at least one rep per cell");

    // Build the experiment list: repsPerConfig copies of each of the
    // 16 cells, then shuffle so consecutive runs exercise random
    // permutations of the configurations (preserving independence,
    // paper S V-A).
    std::vector<unsigned> cells;
    cells.reserve(16u * params.repsPerConfig);
    for (unsigned rep = 0; rep < params.repsPerConfig; ++rep)
        for (unsigned cfg = 0; cfg < 16; ++cfg)
            cells.push_back(cfg);

    Rng rng = Rng(0xa77b1b071017ull).substream(params.seed);
    for (std::size_t i = cells.size() - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(rng.nextBelow(i + 1));
        std::swap(cells[i], cells[j]);
    }

    // The paper drives every configuration at the same request rate
    // (100k/800k RPS): derive the rate once from the base config and
    // hold it constant, so utilization differences between configs are
    // part of the measured effect.
    core::ExperimentParams reference = params.base;
    reference.seed = params.seed;
    const double fixedRps = core::deriveRequestRate(reference);

    // Every run's params (and seed) depend only on its index, so the
    // whole sweep can fan out across threads; results come back in
    // index-addressed slots and the Observation set is identical for
    // any Parallelism setting.
    std::vector<core::ExperimentParams> runs;
    runs.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        core::ExperimentParams run = params.base;
        run.requestsPerSecond = fixedRps;
        run.config = hw::HardwareConfig::fromIndex(cells[i]);
        run.seed = params.seed * 2654435761ull + i * 97 + 1;
        runs.push_back(std::move(run));
    }
    const std::vector<core::ExperimentResult> outcomes =
        core::runExperiments(runs, params.parallelism,
                             params.progress);

    std::vector<Observation> observations;
    observations.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        Observation obs;
        obs.config = runs[i].config;
        obs.runSeed = runs[i].seed;
        obs.serverUtilization = outcomes[i].serverUtilization;
        for (double tau : params.quantiles) {
            obs.quantileUs[tau] =
                outcomes[i].aggregatedQuantile(tau, params.aggregation);
        }
        observations.push_back(std::move(obs));
    }
    return observations;
}

std::vector<QuantileModel>
fitFactorialModels(const regress::FactorialDesign &design,
                   const std::vector<std::vector<double>> &levels,
                   const std::map<double, std::vector<double>> &responses,
                   const FactorialFitParams &params)
{
    if (levels.empty())
        throw NumericalError("factorial fit needs observations");

    // Assemble the design matrix once; responses differ per tau.
    const regress::Matrix clean = design.designMatrix(levels);

    Rng rng = Rng(0xbead5eedful).substream(params.seed);
    const regress::Matrix x =
        regress::FactorialDesign::perturb(clean, params.perturbSd, rng);

    // Draw every tau's resamples first, serially and in tau order,
    // from the same substreams the serial bootstrap uses.
    const std::size_t nTau = params.quantiles.size();
    std::vector<const regress::Vec *> ys(nTau);
    std::vector<std::vector<std::vector<std::size_t>>> resamples(nTau);
    for (std::size_t t = 0; t < nTau; ++t) {
        const double tau = params.quantiles[t];
        const auto responseIt = responses.find(tau);
        if (responseIt == responses.end() ||
            responseIt->second.size() != levels.size())
            throw NumericalError(
                strprintf("responses missing or mis-sized for tau=%g",
                          tau));
        ys[t] = &responseIt->second;
        Rng bootRng = rng.substream(
            static_cast<std::uint64_t>(tau * 1e6));
        resamples[t] = regress::drawResamples(
            x.rows(), params.bootstrapReplicates, bootRng);
    }

    // Then every fit -- per tau, the full-data fit and one refit per
    // replicate -- into its own slot, on any number of threads.
    const std::size_t perTau = params.bootstrapReplicates + 1;
    std::vector<regress::QuantRegResult> fits(nTau);
    std::vector<std::vector<regress::Vec>> replicates(
        nTau, std::vector<regress::Vec>(params.bootstrapReplicates));
    exec::parallelFor(params.parallelism, nTau * perTau,
                      [&](std::size_t slot) {
        const std::size_t t = slot / perTau;
        const std::size_t b = slot % perTau;
        const double tau = params.quantiles[t];
        if (b == 0)
            fits[t] = regress::fitQuantile(x, *ys[t], tau);
        else
            replicates[t][b - 1] = regress::fitResample(
                x, *ys[t], resamples[t][b - 1], tau);
    });

    const auto names = design.termNames();
    std::vector<QuantileModel> models;
    for (std::size_t t = 0; t < nTau; ++t) {
        const double tau = params.quantiles[t];
        const regress::QuantRegInference inference =
            regress::summarizeBootstrap(std::move(fits[t]),
                                        replicates[t]);

        QuantileModel model;
        model.tau = tau;
        model.fit = inference.fit;
        model.pseudoR2 = regress::pseudoR2(
            x, *ys[t], inference.fit.coefficients, tau);
        for (std::size_t i = 0; i < names.size(); ++i) {
            TermEstimate term;
            term.name = names[i];
            term.estimate = inference.coefficients[i].estimate;
            term.standardError =
                inference.coefficients[i].standardError;
            term.pValue = inference.coefficients[i].pValue;
            model.terms.push_back(std::move(term));
        }
        models.push_back(std::move(model));
    }
    return models;
}

AttributionResult
fitAttribution(const AttributionParams &params,
               std::vector<Observation> observations)
{
    if (observations.empty())
        throw NumericalError("attribution needs observations");

    AttributionResult result;
    result.observations = std::move(observations);

    std::vector<std::vector<double>> levels;
    levels.reserve(result.observations.size());
    for (const Observation &obs : result.observations) {
        const auto l = obs.config.levels();
        levels.emplace_back(l.begin(), l.end());
    }
    std::map<double, std::vector<double>> responses;
    for (double tau : params.quantiles) {
        std::vector<double> y;
        y.reserve(result.observations.size());
        for (const Observation &obs : result.observations) {
            const auto it = obs.quantileUs.find(tau);
            if (it == obs.quantileUs.end())
                throw NumericalError(
                    strprintf("observation missing tau=%g", tau));
            y.push_back(it->second);
        }
        responses.emplace(tau, std::move(y));
    }

    FactorialFitParams fit;
    fit.quantiles = params.quantiles;
    fit.bootstrapReplicates = params.bootstrapReplicates;
    fit.perturbSd = params.perturbSd;
    fit.seed = params.seed;
    fit.parallelism = params.parallelism;
    result.models =
        fitFactorialModels(result.design, levels, responses, fit);
    return result;
}

AttributionResult
runAttribution(const AttributionParams &params)
{
    return fitAttribution(params, collectObservations(params));
}

} // namespace analysis
} // namespace treadmill
