/**
 * @file
 * Server-side fault hook points: a Service decorator that can freeze,
 * crash, and warm-restart the server it wraps.
 *
 * The shim sits between the server NIC and the real service, which is
 * exactly where process-level faults act in a real deployment: a GC or
 * compaction pause freezes the event loop (requests pile up in the
 * socket buffer and drain afterwards), and a crash resets connections
 * (in-flight requests are simply never answered). Requests already
 * handed to the inner service keep their worker-queue positions --
 * faults never reorder work that was accepted before they struck, so
 * faulted runs stay deterministic.
 *
 * The shim is only inserted into the request path when the run's
 * FaultPlan contains server events; a plan-free run calls the real
 * service directly and is bit-identical to a build without it.
 */

#ifndef TREADMILL_SERVER_FAULT_SHIM_H_
#define TREADMILL_SERVER_FAULT_SHIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "server/request.h"
#include "sim/simulation.h"
#include "util/types.h"

namespace treadmill {
namespace server {

/**
 * Decorates a Service with stall / crash / warm-up fault behaviour,
 * armed by the fault injector through the begin*()/end*() hooks.
 */
class ServiceFaultShim : public Service
{
  public:
    /**
     * @param sim Owning simulation (schedules deferred deliveries).
     * @param inner The real service.
     * @param scope Metric prefix of the wrapped service ("server", or
     *        "backend<i>" for a cluster shard); the shim claims
     *        "<scope>.fault" so two shims can never share counters.
     */
    ServiceFaultShim(sim::Simulation &sim, Service &inner,
                     const std::string &scope = "server");

    ServiceFaultShim(const ServiceFaultShim &) = delete;
    ServiceFaultShim &operator=(const ServiceFaultShim &) = delete;

    /**
     * Deliver @p request through the active fault state: pass through
     * when healthy, defer to the stall end while stalled, drop while
     * crashed, and delay by the decaying warm-up penalty while warming
     * up.
     */
    void receive(RequestPtr request, RespondFn respond) override;

    /** Down exactly while crashed. */
    bool up() const override { return !crashed(); }

    /** @name Injector hooks
     * @{
     */
    /** Freeze request intake until @p until. */
    void beginStall(SimTime until);

    /**
     * Crash now; restart at @p restartAt. After restart, arriving
     * requests pay an extra delay starting at @p warmupPenalty and
     * decaying linearly to zero over @p warmup.
     */
    void beginCrash(SimTime restartAt, SimDuration warmup,
                    SimDuration warmupPenalty);
    /** @} */

    /** @name Diagnostics
     * @{
     */
    std::uint64_t stalledRequests() const { return stalledCount; }
    std::uint64_t droppedRequests() const { return droppedCount; }
    std::uint64_t warmupRequests() const { return warmupCount; }
    bool stalled() const;
    bool crashed() const;
    /** @} */

  private:
    sim::Simulation &sim;
    Service &inner;

    SimTime stallUntil = 0;   ///< Intake frozen while now < stallUntil.
    SimTime crashedUntil = 0; ///< Down while now < crashedUntil.
    SimTime warmupUntil = 0;
    SimDuration warmupWindow = 0;
    SimDuration warmupMaxPenalty = 0;

    std::uint64_t stalledCount = 0;
    std::uint64_t droppedCount = 0;
    std::uint64_t warmupCount = 0;

    obs::Counter &stalledCounter;
    obs::Counter &droppedCounter;
    obs::Counter &warmupCounter;
};

} // namespace server
} // namespace treadmill

#endif // TREADMILL_SERVER_FAULT_SHIM_H_
