#include "hw/core.h"

#include <utility>

#include "util/logging.h"

namespace treadmill {
namespace hw {

Core::Core(sim::Simulation &sim_, unsigned coreId, DurationFn durationOf_)
    : sim(sim_), id(coreId), durationOf(std::move(durationOf_))
{
    TM_ASSERT(durationOf != nullptr, "core needs a duration model");
}

void
Core::submit(WorkItem &&item)
{
    // An idle core has an empty queue (completion starts the next
    // waiting item before running its callback), so the item starts
    // without a round trip through the ring.
    if (!executing)
        start(item);
    else
        queue.push_back(std::move(item));
}

void
Core::start(WorkItem &item)
{
    executing = true;
    const SimDuration duration = durationOf(id, item);
    totalBusy += duration;

    currentStart = sim.now();
    currentDone = std::move(item.done);
    sim.schedule(duration, [this] {
        ++completedCount;
        executing = false;
        // Move the completion state to locals first: starting the next
        // item overwrites the slots.
        const SimTime started = currentStart;
        WorkItem::DoneFn done = std::move(currentDone);
        // Start the next queued item before invoking the callback: the
        // callback may submit new work to this core, and it must queue
        // behind work that was already waiting.
        if (!queue.empty()) {
            start(queue.front());
            queue.pop_front();
        }
        if (done)
            done(started, sim.now());
    });
}

double
Core::utilization() const
{
    const SimTime elapsed = sim.now();
    if (elapsed == 0)
        return 0.0;
    return static_cast<double>(
               std::min<SimDuration>(totalBusy, elapsed)) /
           static_cast<double>(elapsed);
}

} // namespace hw
} // namespace treadmill
