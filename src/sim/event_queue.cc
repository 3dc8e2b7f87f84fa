// tmlint:hot-path -- push/pop/cancel run once per simulated event;
// nothing here may allocate, throw, or touch std::function.
#include "sim/event_queue.h"

#include <algorithm>

#include "util/logging.h"

namespace treadmill {
namespace sim {

void
EventQueue::addChunk()
{
    // tmlint:cold: runs once per kChunkSlots slots of high-water mark;
    // a warm queue recycles slots through the free list
    // tmlint:allow-next-line(hot-path-no-alloc): cold slot-chunk growth
    chunks.push_back(std::make_unique<Slot[]>(kChunkSlots));
}

void
EventQueue::killSlot(Slot &s)
{
    // Bumping the generation invalidates the outstanding id and the
    // heap entry in one store. Skip 0 on wrap so ids stay nonzero.
    if (++s.gen == 0)
        s.gen = 1;
}

void
EventQueue::freeSlot(std::uint32_t idx)
{
    Slot &s = slotAt(idx);
    s.fn = nullptr;
    s.next = freeHead;
    freeHead = idx;
}

void
EventQueue::enqueue(HeapEntry entry)
{
    heap.push_back(entry); // Placeholder; siftUp writes the real path.
    siftUp(heap.size() - 1, entry);
}

void
EventQueue::siftUp(std::size_t hole, HeapEntry entry)
{
    while (hole > 0) {
        const std::size_t parent = (hole - 1) >> 2;
        if (!earlier(entry, heap[parent]))
            break;
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = entry;
}

void
EventQueue::siftDown(std::size_t hole, HeapEntry entry)
{
    const std::size_t n = heap.size();
    const unsigned __int128 entryKey = orderKey(entry);
    for (;;) {
        const std::size_t first = 4 * hole + 1;
        if (first >= n)
            break;
        // Select the earliest child with conditional moves: the
        // winner of each comparison is data-dependent, so branching
        // here mispredicts roughly half the time.
        std::size_t best = first;
        unsigned __int128 bestKey = orderKey(heap[first]);
        const std::size_t last = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            const unsigned __int128 k = orderKey(heap[c]);
            const bool lt = k < bestKey;
            best = lt ? c : best;
            bestKey = lt ? k : bestKey;
        }
        if (bestKey >= entryKey)
            break;
        heap[hole] = heap[best];
        hole = best;
    }
    heap[hole] = entry;
}

void
EventQueue::removeTop()
{
    const HeapEntry tail = heap.back();
    heap.pop_back();
    if (!heap.empty())
        siftDown(0, tail);
}

void
EventQueue::dropDeadTop()
{
    while (!heap.empty() && !slotLive(heap.front()))
        removeTop();
}

SimTime
EventQueue::nextTime()
{
    dropDeadTop();
    TM_ASSERT(!heap.empty(), "nextTime() on an empty event queue");
    return heap.front().when;
}

std::uint32_t
EventQueue::detachTop(SimTime &when)
{
    dropDeadTop();
    TM_ASSERT(!heap.empty(), "firing from an empty event queue");
    const HeapEntry top = heap.front();
    when = top.when;
    Slot &s = slotAt(top.slot);
    killSlot(s);
    s.next = kFiring;
    --liveCount;
    removeTop();
    return top.slot;
}

EventFn
EventQueue::pop(SimTime &when)
{
    const std::uint32_t idx = detachTop(when);
    EventFn fn = std::move(slotAt(idx).fn);
    freeSlot(idx);
    return fn;
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t idx = static_cast<std::uint32_t>(id);
    const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (idx >= slotCount)
        return false;
    Slot &s = slotAt(idx);
    if (s.next != kInUse || s.gen != gen)
        return false;
    // Destroy the callback now: a cancelled timeout must not keep its
    // captured request alive until the stale heap entry drains.
    killSlot(s);
    freeSlot(idx);
    --liveCount;
    // The heap entry stays behind and is dropped lazily when it
    // reaches the top -- same cost model as the old hash-set scheme,
    // without the two hash operations per push/pop.
    return true;
}

void
EventQueue::clear()
{
    for (std::uint32_t i = 0; i < slotCount; ++i) {
        Slot &s = slotAt(i);
        if (s.next == kInUse) {
            killSlot(s);
            freeSlot(i);
        }
    }
    // Generations survive clear(), so ids issued before the clear can
    // never accidentally cancel events pushed afterwards.
    heap.clear();
    liveCount = 0;
}

} // namespace sim
} // namespace treadmill
