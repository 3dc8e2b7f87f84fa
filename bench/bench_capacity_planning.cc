/**
 * @file
 * Extension bench: SLO capacity planning per hardware configuration.
 *
 * Connects the attribution result to the paper's provisioning
 * motivation: the configuration tuned for tail latency (Fig 12's
 * recommendation) also sustains a higher request rate under the same
 * P99 SLO -- capacity bought purely by configuration. Each
 * configuration is searched by the adaptive CapacityController; the
 * runs it spent are printed beside the operating point.
 */

#include "bench_common.h"

#include "drive/capacity_controller.h"

using namespace treadmill;

int
main()
{
    bench::banner("Extension -- capacity under a P99 SLO, by"
                  " configuration",
                  "Section I (provisioning motivation) + Fig 12");

    const double sloUs = 250.0;
    std::printf("SLO: P99 <= %.0f us\n\n", sloUs);
    std::printf("  configuration                     max util   max"
                " RPS    P99 at max   runs\n");

    // The Fig 12 endpoints: the worst-tail cell, the default cell,
    // and the tuned cell.
    struct Case {
        const char *label;
        unsigned index;
    };
    const Case cases[] = {
        {"all-low (default)", 0b0000},
        {"tuned: turbo-high, rest low", 0b0010},
        {"anti-tuned: numa-high,dvfs-high", 0b0101},
    };

    for (const Case &c : cases) {
        drive::CapacityControllerParams controls;
        drive::CapacitySearchParams &params = controls.search;
        params.base = bench::defaultExperiment(0.5);
        params.base.collector.measurementSamples =
            bench::paperScale() ? 10000 : 2500;
        params.base.config = hw::HardwareConfig::fromIndex(c.index);
        params.tau = 0.99;
        params.sloUs = sloUs;
        params.maxIterations = bench::paperScale() ? 8 : 5;
        params.runsPerPoint = bench::paperScale() ? 4 : 2;
        params.seed = 21;
        controls.maxRunsPerProbe = bench::paperScale() ? 8 : 4;

        const drive::CapacitySearchResult result =
            drive::CapacityController(controls).search();
        if (result.infeasible) {
            std::printf("  %-32s  infeasible at any probed load\n",
                        c.label);
            continue;
        }
        std::printf("  %-32s  %8.2f   %7.0f   %9.1f us   %u\n",
                    c.label, result.maxUtilization,
                    result.maxRequestsPerSecond,
                    result.latencyAtMaxUs, result.totalRuns);
    }

    std::printf("\nExpectation: the turbo-enabled cell sustains a"
                " higher utilization and\nrequest rate under the same"
                " SLO than the default, and far more than the\n"
                "anti-tuned cell -- configuration is capacity.\n");
    return 0;
}
