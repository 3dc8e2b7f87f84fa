/**
 * @file
 * Regenerates Figure 3: latency decomposition (server / network /
 * client) across server utilizations, single-client vs multi-client.
 *
 * Expectation: with a single client, the client-side component grows
 * steeply with utilization and becomes a significant share of the
 * measured end-to-end latency; with eight clients it stays a small,
 * approximately constant offset.
 */

#include "bench_common.h"

#include "core/tester_spec.h"

using namespace treadmill;

namespace {

void
runSetup(const char *name, unsigned clients)
{
    std::printf("%s\n", name);
    std::printf("  util     server(us)  network(us)  client(us)  "
                "client-cpu\n");
    for (double util : {0.70, 0.75, 0.80, 0.85, 0.90, 0.95}) {
        core::ExperimentParams params =
            bench::defaultExperiment(util);
        params.config.dvfs = hw::DvfsGovernor::Performance;
        params.tester.clientMachines = clients;
        // Client machines with realistic per-request CPU costs: one
        // machine cannot absorb the full request rate.
        params.clientSendCostUs = 2.0;
        params.clientReceiveCostUs = 2.0;
        params.collector.measurementSamples =
            bench::paperScale() ? 20000 : 3000;
        params.deadline = seconds(10);
        const auto result = core::runExperiment(params);

        double maxCpu = 0.0;
        for (const auto &inst : result.instances)
            maxCpu = std::max(maxCpu, inst.cpuUtilization);
        std::printf("  %.2f   %10.1f  %11.1f  %10.1f      %.2f\n",
                    util, result.serverComponentUs.mean(),
                    result.networkComponentUs.mean(),
                    result.clientComponentUs.mean(), maxCpu);
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    bench::banner("Figure 3 -- latency decomposition, single- vs"
                  " multi-client setup",
                  "Section II-C, Figure 3");

    runSetup("Single-Client Setup (CloudSuite-style)", 1);
    runSetup("Multi-Client Setup (Treadmill procedure, 8 clients)", 8);

    std::printf("Expectation (paper Fig 3): in the single-client setup"
                " the client\ncomponent inflates with utilization (the"
                " client CPU saturates); in the\nmulti-client setup"
                " client and network stay an approximately constant,"
                "\nsmall offset and the server dominates.\n");
    return 0;
}
