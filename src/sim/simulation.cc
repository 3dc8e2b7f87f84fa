#include "sim/simulation.h"

#include <atomic>
#include <string>

#include "util/logging.h"

namespace treadmill {
namespace sim {

namespace {

/** Next EventKind index; kinds are constructed during static
 *  initialization or as function-local statics, possibly on several
 *  threads at once. */
std::atomic<std::uint32_t> &
nextKindIndex()
{
    static std::atomic<std::uint32_t> next{0};
    return next;
}

} // namespace

EventKind::EventKind(const char *name)
    : kindName(name),
      kindIndex(nextKindIndex().fetch_add(1, std::memory_order_relaxed))
{
}

Simulation::Simulation()
    : scheduledCounter(&registry.counter("sim.events_scheduled")),
      executedCounter(&registry.counter("sim.events_executed")),
      cancelledCounter(&registry.counter("sim.events_cancelled")),
      previousLogClock(detail::setSimClock(&currentTime))
{
}

Simulation::~Simulation()
{
    detail::setSimClock(previousLogClock);
}

void
Simulation::failPastSchedule() const
{
    panic("cannot schedule an event in the past");
}

bool
Simulation::cancel(EventId id)
{
    const bool cancelled = events.cancel(id);
    if (cancelled)
        cancelledCounter->add();
    return cancelled;
}

obs::Counter &
Simulation::registerEventCounter(const EventKind &kind)
{
    // tmlint:cold: runs once per event kind per simulation; steady
    // state takes the kindCounters hit in countEvent()
    if (kind.index() >= kindCounters.size())
        kindCounters.resize(kind.index() + 1, nullptr);
    obs::Counter &counter =
        registry.counter(std::string("sim.events.") + kind.name());
    kindCounters[kind.index()] = &counter;
    return counter;
}

bool
Simulation::step()
{
    if (stopping || events.empty())
        return false;
    events.fireNext([this](SimTime when) {
        TM_ASSERT(when >= currentTime,
                  "event queue went backwards in time");
        currentTime = when;
        ++executed;
        executedCounter->add();
    });
    return true;
}

void
Simulation::run()
{
    stopping = false;
    while (step()) {
    }
}

void
Simulation::runUntil(SimTime deadline)
{
    stopping = false;
    while (!stopping && !events.empty() && events.nextTime() < deadline) {
        step();
    }
    if (!stopping && currentTime < deadline)
        currentTime = deadline;
}

} // namespace sim
} // namespace treadmill
