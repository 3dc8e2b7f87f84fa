#include "server/fault_shim.h"

#include <utility>

namespace treadmill {
namespace server {

namespace {

const sim::EventKind kStallReleaseEvent("fault.stall_release");
const sim::EventKind kWarmupDelayEvent("fault.warmup_delay");

} // namespace

ServiceFaultShim::ServiceFaultShim(sim::Simulation &sim_, Service &inner_,
                                   const std::string &scope)
    : sim(sim_), inner(inner_),
      stalledCounter(
          sim_.metrics().counter(scope + ".fault.stalled")),
      droppedCounter(
          sim_.metrics().counter(scope + ".fault.dropped")),
      warmupCounter(
          sim_.metrics().counter(scope + ".fault.warmed_up"))
{
    sim_.metrics().claimScope(scope + ".fault");
}

bool
ServiceFaultShim::stalled() const
{
    return sim.now() < stallUntil;
}

bool
ServiceFaultShim::crashed() const
{
    return sim.now() < crashedUntil;
}

void
ServiceFaultShim::receive(RequestPtr request, RespondFn respond)
{
    const SimTime now = sim.now();

    if (now < crashedUntil) {
        // The process is down: the connection resets and the request
        // is never answered. The client's timeout/retry policy is the
        // only recovery path -- exactly as in production.
        ++droppedCount;
        droppedCounter.add();
        return;
    }

    if (now < stallUntil) {
        // Frozen event loop: the request waits in the (unbounded)
        // socket buffer and is delivered when the pause ends. Arrival
        // order is preserved because same-instant events fire in
        // scheduling order.
        ++stalledCount;
        stalledCounter.add();
        sim.countEvent(kStallReleaseEvent);
        sim.scheduleAt(stallUntil, [this, request = std::move(request),
                                    respond = std::move(respond)]() mutable {
            receive(std::move(request), std::move(respond));
        });
        return;
    }

    if (now < warmupUntil && warmupWindow > 0) {
        // Cold caches after restart: an extra delay that decays
        // linearly to zero across the warm-up window.
        const double remaining =
            static_cast<double>(warmupUntil - now) /
            static_cast<double>(warmupWindow);
        const auto penalty = static_cast<SimDuration>(
            static_cast<double>(warmupMaxPenalty) * remaining);
        ++warmupCount;
        warmupCounter.add();
        sim.countEvent(kWarmupDelayEvent);
        sim.schedule(penalty, [this, request = std::move(request),
                               respond = std::move(respond)]() mutable {
            inner.receive(std::move(request), std::move(respond));
        });
        return;
    }

    inner.receive(std::move(request), std::move(respond));
}

void
ServiceFaultShim::beginStall(SimTime until)
{
    stallUntil = std::max(stallUntil, until);
}

void
ServiceFaultShim::beginCrash(SimTime restartAt, SimDuration warmup,
                             SimDuration warmupPenalty)
{
    crashedUntil = std::max(crashedUntil, restartAt);
    warmupUntil = restartAt + warmup;
    warmupWindow = warmup;
    warmupMaxPenalty = warmupPenalty;
}

} // namespace server
} // namespace treadmill
