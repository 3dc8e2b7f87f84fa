/**
 * @file
 * The discrete-event simulation driver.
 *
 * All Treadmill experiments run inside a Simulation: load-tester control
 * loops, network links, NIC interrupt handling, and server worker threads
 * are all expressed as events against a shared virtual clock.
 */

#ifndef TREADMILL_SIM_SIMULATION_H_
#define TREADMILL_SIM_SIMULATION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "util/types.h"

namespace treadmill {
namespace sim {

/**
 * A named kind of simulated event, counted per Simulation under
 * "sim.events.<name>".
 *
 * Declare one per call site as a namespace-scope constant, e.g.
 * `const sim::EventKind kSendEvent("client.send");`, and pass it to
 * Simulation::countEvent(). Each kind takes a dense process-wide
 * index at construction, so counting is an array index rather than a
 * hash lookup; the per-Simulation counter is still registered on
 * first use, so a run's metrics snapshot only names kinds that fired.
 */
class EventKind
{
  public:
    /** @param name Stable string (a literal) naming the kind. */
    explicit EventKind(const char *name);

    EventKind(const EventKind &) = delete;
    EventKind &operator=(const EventKind &) = delete;

    const char *name() const { return kindName; }
    std::uint32_t index() const { return kindIndex; }

  private:
    const char *kindName;
    std::uint32_t kindIndex;
};

/**
 * Owns the virtual clock and the pending-event set and dispatches events
 * in timestamp order.
 *
 * Each Simulation also owns a MetricsRegistry: every component built on
 * this simulation registers its metrics here, so telemetry is
 * seed-isolated exactly like the rest of the mutable run state and the
 * parallel-runner determinism invariant (DESIGN.md §5) holds with
 * metrics enabled. While alive, the Simulation is this thread's
 * logging clock: log lines carry the simulated timestamp.
 */
class Simulation
{
  public:
    Simulation();
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current virtual time. */
    SimTime now() const { return currentTime; }

    /** Schedule @p fn to run @p delay after the current time. The
     *  callable is built in place in its event slot. */
    template <typename F>
    EventId
    schedule(SimDuration delay, F &&fn)
    {
        scheduledCounter->add();
        return events.push(currentTime + delay, std::forward<F>(fn));
    }

    /** Schedule @p fn at the absolute virtual time @p when (>= now). */
    template <typename F>
    EventId
    scheduleAt(SimTime when, F &&fn)
    {
        if (when < currentTime) [[unlikely]]
            failPastSchedule();
        scheduledCounter->add();
        return events.push(when, std::forward<F>(fn));
    }

    /** Cancel a previously scheduled event. */
    bool cancel(EventId id);

    /**
     * Execute the earliest pending event.
     *
     * @return false when no events remain or stop() was requested.
     */
    bool step();

    /** Run until the event set is exhausted or stop() is called. */
    void run();

    /**
     * Run until virtual time reaches @p deadline.
     *
     * Events at exactly @p deadline do not fire; the clock is left at
     * @p deadline (or at the stop/exhaustion point, whichever is first).
     */
    void runUntil(SimTime deadline);

    /** Request that run()/runUntil() return after the current event. */
    void stop() { stopping = true; }

    /** True if stop() was called since the last run. */
    bool stopped() const { return stopping; }

    /** Number of events dispatched so far. */
    std::uint64_t eventsExecuted() const { return executed; }

    /** Number of events currently pending. */
    std::size_t pendingEvents() const { return events.size(); }

    /** This simulation's metrics registry. */
    obs::MetricsRegistry &metrics() { return registry; }
    const obs::MetricsRegistry &metrics() const { return registry; }

    /** Count one scheduled event of @p kind ("client.send",
     *  "net.delivery") under "sim.events.<kind>". */
    void
    countEvent(const EventKind &kind)
    {
        obs::Counter *counter = kind.index() < kindCounters.size()
                                    ? kindCounters[kind.index()]
                                    : nullptr;
        if (counter == nullptr)
            counter = &registerEventCounter(kind);
        counter->add();
    }

  private:
    /** Slow path of countEvent(): first sighting of an event kind. */
    obs::Counter &registerEventCounter(const EventKind &kind);

    /** scheduleAt() was handed a time before now(): panics. */
    [[noreturn]] void failPastSchedule() const;

    EventQueue events;
    SimTime currentTime = 0;
    std::uint64_t executed = 0;
    bool stopping = false;

    obs::MetricsRegistry registry;
    obs::Counter *scheduledCounter = nullptr;
    obs::Counter *executedCounter = nullptr;
    obs::Counter *cancelledCounter = nullptr;
    /** Per-kind event counters by EventKind::index(); null until the
     *  kind first fires in this simulation. */
    std::vector<obs::Counter *> kindCounters;
    /** The logging clock this Simulation replaced, restored on exit. */
    const std::uint64_t *previousLogClock = nullptr;
};

} // namespace sim
} // namespace treadmill

#endif // TREADMILL_SIM_SIMULATION_H_
