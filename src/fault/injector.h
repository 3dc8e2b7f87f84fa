/**
 * @file
 * The fault injector: turns a declarative FaultPlan into scheduled
 * apply/revert events against the run's hook points (a FaultHooks
 * table, handed over once at construction).
 *
 * The injector owns no fault behaviour itself -- links drop and delay
 * packets, the server shim stalls and crashes, the NIC scales its
 * interrupt cost. The injector's job is purely temporal: expand each
 * FaultEvent's repeat schedule into concrete windows, schedule the
 * apply and revert instants on the simulation's EventQueue, and record
 * every window as a TraceAnnotation so exported traces show exactly
 * when each fault was active.
 *
 * Determinism: the constructor schedules every apply/revert event up
 * front, before the run starts, so their EventQueue insertion order --
 * and therefore the same-instant tie-break order -- is a pure function
 * of the plan. Loss randomness is a per-link Rng derived from the run
 * seed and the link's name, never from shared global state, so faulted
 * runs remain bit-exact under any exec::Parallelism.
 */

#ifndef TREADMILL_FAULT_INJECTOR_H_
#define TREADMILL_FAULT_INJECTOR_H_

#include <cstdint>
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

/** Every hook point a plan's events can act on, handed over once. */
struct FaultHooks {
    /** One server node's hooks. */
    struct Node {
        server::ServiceFaultShim *shim = nullptr; ///< Stall / crash.
        hw::Nic *nic = nullptr;                   ///< nic_storm.
    };

    /** Link-fault targets, matched by name; each gets its loss stream
     *  at construction. */
    std::vector<net::Link *> links;
    /** Indexed by the event's backend id + 1: entry 0 is the front
     *  server (backend -1), entry b + 1 cluster shard b. */
    std::vector<Node> nodes;
    /** Indexed by rack id: the links a tor_outage degrades together
     *  (each must also appear in `links`). */
    std::vector<std::vector<net::Link *>> racks;
};

/** Schedules a FaultPlan's windows against its hook points. */
class FaultInjector
{
  public:
    /**
     * Expand the plan into concrete windows and schedule every apply
     * and revert instant; construct once, before the simulation runs.
     *
     * @param sim Owning simulation (all windows schedule here).
     * @param plan The validated fault schedule (copied).
     * @param runSeed Run identity; seeds per-link loss streams.
     * @param hooks The run's hook points.
     * @throws ConfigError when a window names a hook point the table
     *         lacks (a silently ignored fault would invalidate the
     *         experiment's factor levels).
     */
    FaultInjector(sim::Simulation &sim, FaultPlan plan,
                  std::uint64_t runSeed, FaultHooks hooks);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

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

    /** The hooks of the node @p backend names (-1: the front server);
     *  both null when the table has no such node. */
    FaultHooks::Node nodeHooks(int backend) const;

    /** Schedule one concrete window of @p ev at [start, start+dur). */
    void scheduleWindow(const FaultEvent &ev, SimTime start);

    sim::Simulation &sim;
    FaultPlan plan;
    FaultHooks hooks;

    std::vector<obs::TraceAnnotation> windows;
    std::uint64_t appliedCount = 0;
    obs::Counter &appliedCounter;
};

} // namespace fault
} // namespace treadmill

#endif // TREADMILL_FAULT_INJECTOR_H_
