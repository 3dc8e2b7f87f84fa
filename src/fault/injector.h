/**
 * @file
 * The fault injector: turns a declarative FaultPlan into scheduled
 * apply/revert events against the run's hook points.
 *
 * The injector owns no fault behaviour itself -- links drop and delay
 * packets, the server shim stalls and crashes, the NIC scales its
 * interrupt cost. The injector's job is purely temporal: expand each
 * FaultEvent's repeat schedule into concrete windows, schedule the
 * apply and revert instants on the simulation's EventQueue, and record
 * every window as a TraceAnnotation so exported traces show exactly
 * when each fault was active.
 *
 * Determinism: all apply/revert events are scheduled up front during
 * arm(), before the run starts, so their EventQueue insertion order --
 * and therefore the same-instant tie-break order -- is a pure function
 * of the plan. Loss randomness is a per-link Rng derived from the run
 * seed and the link's name, never from shared global state, so faulted
 * runs remain bit-exact under any exec::Parallelism.
 */

#ifndef TREADMILL_FAULT_INJECTOR_H_
#define TREADMILL_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "fault/plan.h"
#include "hw/nic.h"
#include "net/link.h"
#include "obs/span.h"
#include "server/fault_shim.h"
#include "sim/simulation.h"
#include "util/types.h"

namespace treadmill {
namespace fault {

/** Schedules a FaultPlan's windows against attached hook points. */
class FaultInjector
{
  public:
    /**
     * @param sim Owning simulation (all windows schedule here).
     * @param plan The validated fault schedule (copied).
     * @param runSeed Run identity; seeds per-link loss streams.
     */
    FaultInjector(sim::Simulation &sim, FaultPlan plan,
                  std::uint64_t runSeed);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** @name Hook-point attachment (before arm())
     * @{
     */
    /** Attach the cluster's links for LinkLoss/LinkDegrade targeting. */
    void attachLinks(const std::vector<net::Link *> &links);

    /** Attach the server shim for ServerStall/ServerCrash events. */
    void attachShim(server::ServiceFaultShim &shim);

    /** Attach the server NIC for NicInterruptStorm events. */
    void attachNic(hw::Nic &nic);

    /** Attach backend @p backend's shim: the hook for server faults
     *  whose event names that backend id. */
    void attachBackendShim(std::uint32_t backend,
                           server::ServiceFaultShim &shim);

    /** Attach backend @p backend's machine NIC for per-backend
     *  nic_storm events. */
    void attachBackendNic(std::uint32_t backend, hw::Nic &nic);

    /**
     * Attach rack @p rack's link set: the TorOutage blast radius.
     * The links must also appear in an attachLinks() call (that is
     * where their loss streams are armed).
     */
    void attachRackLinks(std::uint32_t rack,
                         const std::vector<net::Link *> &links);
    /** @} */

    /**
     * Expand the plan into concrete windows and schedule every apply
     * and revert instant. Call once, after attachment and before the
     * simulation runs. Windows naming a hook point that was never
     * attached throw ConfigError (a silently ignored fault would
     * invalidate the experiment's factor levels).
     */
    void arm();

    /** Concrete windows, one annotation per applied window. */
    const std::vector<obs::TraceAnnotation> &annotations() const
    {
        return windows;
    }

    /** Windows whose apply instant has fired so far. */
    std::uint64_t windowsApplied() const { return appliedCount; }

  private:
    /** Links whose name contains @p target (all links when empty). */
    std::vector<net::Link *> matchLinks(const std::string &target) const;

    /** Schedule one concrete window of @p ev at [start, start+dur). */
    void scheduleWindow(const FaultEvent &ev, SimTime start);

    sim::Simulation &sim;
    FaultPlan plan;
    std::uint64_t seed;

    std::vector<net::Link *> linkHooks;
    server::ServiceFaultShim *shim = nullptr;
    hw::Nic *nic = nullptr;
    std::map<std::uint32_t, server::ServiceFaultShim *> backendShims;
    std::map<std::uint32_t, hw::Nic *> backendNics;
    std::map<std::uint32_t, std::vector<net::Link *>> rackLinkHooks;

    std::vector<obs::TraceAnnotation> windows;
    std::uint64_t appliedCount = 0;
    obs::Counter &appliedCounter;
};

} // namespace fault
} // namespace treadmill

#endif // TREADMILL_FAULT_INJECTOR_H_
