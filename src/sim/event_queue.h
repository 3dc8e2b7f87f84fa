/**
 * @file
 * The pending-event set for the discrete-event simulation engine.
 */
// tmlint:hot-path -- every line here is on the steady-state event path
// (PR 4's zero-allocation property is enforced statically from here).

#ifndef TREADMILL_SIM_EVENT_QUEUE_H_
#define TREADMILL_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/inline_function.h"
#include "util/types.h"

namespace treadmill {
namespace sim {

/**
 * Callback executed when an event fires.
 *
 * A small-buffer-optimized move-only callable: captures up to 48
 * bytes (a `this` pointer plus a pooled request handle or a couple of
 * ids -- every closure on the steady-state request path) are stored
 * inline, so scheduling an event performs no heap allocation. Larger
 * captures transparently fall back to the heap.
 */
using InlineEvent = util::InlineFunction<void(), 48>;
using EventFn = InlineEvent;

/** Identifies a scheduled event so it can be cancelled. */
using EventId = std::uint64_t;

/**
 * A 4-ary implicit min-heap of timestamped events with
 * generation-stamped slots.
 *
 * Ties are broken by insertion sequence number, so two events
 * scheduled for the same instant always fire in the order they were
 * scheduled. This (when, seq) total order is what makes simulations
 * reproducible, and it is identical to the order the previous
 * binary-heap implementation produced.
 *
 * Layout: the heap itself holds only 24-byte {when, seq, slot, gen}
 * entries (4-ary so sift-down touches one cache line of children per
 * level); callbacks live in a side table of recycled 64-byte slots.
 * An EventId encodes (generation << 32 | slot); cancel() is a bounds
 * check plus a generation compare -- no hash lookups -- and bumps the
 * slot generation so the heap entry is recognized as dead when it
 * reaches the top. The callback is destroyed eagerly on cancel, so
 * captured state (e.g. a pooled request held by a timeout closure)
 * is released immediately rather than when the stale entry drains.
 *
 * Slots live in fixed-size chunks that never move once allocated:
 * push() builds the callable directly in its slot, and fireNext()
 * invokes it there, so a callback is never relocated between being
 * scheduled and being destroyed. The firing callback may push, cancel
 * and clear freely -- growth adds a chunk and leaves its own storage
 * in place. Its own id is dead from the moment it fires (cancel()
 * returns false), and its slot is recycled only after it returns.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Insert an event firing at @p when, constructing the callback
     *  @p fn in its slot; returns its (nonzero) id. */
    template <typename F>
    EventId
    push(SimTime when, F &&fn)
    {
        const std::uint32_t idx = acquireSlot();
        Slot &s = slotAt(idx);
        s.fn = std::forward<F>(fn);
        enqueue(HeapEntry{when, nextSeq++, idx, s.gen});
        ++liveCount;
        return (static_cast<EventId>(s.gen) << 32) | idx;
    }

    /** True when no live events remain. */
    bool empty() const { return liveCount == 0; }

    /** Number of live (non-cancelled) events. */
    std::size_t size() const { return liveCount; }

    /** Timestamp of the earliest live event. Queue must be non-empty. */
    SimTime nextTime();

    /**
     * Fire the earliest live event in place.
     *
     * @p beforeFire receives the event's timestamp once the event has
     * left the queue (its id is already dead) and before its callback
     * runs; the slot is recycled after the callback returns, even if
     * it throws. Queue must be non-empty.
     */
    template <typename BeforeFire>
    void
    fireNext(BeforeFire &&beforeFire)
    {
        SimTime when = 0;
        const FiringSlot firing{*this, detachTop(when)};
        beforeFire(when);
        slotAt(firing.idx).fn();
    }

    /**
     * Remove and return the earliest live event's callback (a thin
     * wrapper over the firing path for callers that invoke it later).
     *
     * @param when Receives the event's timestamp.
     */
    EventFn pop(SimTime &when);

    /**
     * Cancel a pending event.
     *
     * The callback (and anything it captured) is destroyed before
     * this returns. @return true if the event was pending and is now
     * cancelled; false if it already fired (or is firing) or was
     * already cancelled.
     */
    bool cancel(EventId id);

    /** Drop every pending event (callbacks destroyed immediately). */
    void clear();

  private:
    /** Heap entries are 24 bytes; the callback lives in its slot. */
    struct HeapEntry {
        SimTime when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    struct Slot {
        EventFn fn;
        /** Matches the heap entry / id while live; bumped when the
         *  event fires or is cancelled. Starts at 1 and skips 0 on
         *  wrap so ids are never 0. */
        std::uint32_t gen = 1;
        /** kInUse while live, kFiring while its callback runs, else
         *  the next index in the free list. */
        std::uint32_t next = kInUse;
    };

    /** Recycles a fired slot when the firing scope ends. */
    struct FiringSlot {
        EventQueue &queue;
        std::uint32_t idx;
        ~FiringSlot() { queue.freeSlot(idx); }
    };

    static constexpr std::uint32_t kNil = 0xffffffffu;
    static constexpr std::uint32_t kInUse = 0xfffffffeu;
    static constexpr std::uint32_t kFiring = 0xfffffffdu;
    static constexpr std::uint32_t kChunkBits = 8;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;

    /** (when, seq) lexicographic order as one 128-bit compare: the
     *  composed key makes best-child selection branchless (cmov), and
     *  sift comparisons on a warm heap are branch-mispredict bound. */
    static unsigned __int128
    orderKey(const HeapEntry &e)
    {
        return (static_cast<unsigned __int128>(e.when) << 64) | e.seq;
    }

    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        return orderKey(a) < orderKey(b);
    }

    Slot &
    slotAt(std::uint32_t idx)
    {
        return chunks[idx >> kChunkBits][idx & (kChunkSlots - 1)];
    }

    const Slot &
    slotAt(std::uint32_t idx) const
    {
        return chunks[idx >> kChunkBits][idx & (kChunkSlots - 1)];
    }

    bool
    slotLive(const HeapEntry &e) const
    {
        const Slot &s = slotAt(e.slot);
        return s.next == kInUse && s.gen == e.gen;
    }

    /** Take a free slot (marked in use, callback empty). */
    std::uint32_t
    acquireSlot()
    {
        if (freeHead != kNil) {
            const std::uint32_t idx = freeHead;
            Slot &s = slotAt(idx);
            freeHead = s.next;
            s.next = kInUse;
            return idx;
        }
        if ((slotCount & (kChunkSlots - 1)) == 0)
            addChunk();
        return slotCount++;
    }

    /** Append one chunk of fresh slots. */
    void addChunk();
    /** Invalidate a slot's id and heap entry (generation bump). */
    static void killSlot(Slot &s);
    /** Destroy a dead slot's callback and push it on the free list. */
    void freeSlot(std::uint32_t idx);
    /** Pop the earliest live event off the heap, kill its id, and
     *  mark its slot firing; returns the slot index. */
    std::uint32_t detachTop(SimTime &when);
    void enqueue(HeapEntry entry);
    void siftUp(std::size_t hole, HeapEntry entry);
    void siftDown(std::size_t hole, HeapEntry entry);
    void removeTop();
    /** Drop cancelled entries off the top of the heap. */
    void dropDeadTop();

    std::vector<HeapEntry> heap;
    /** Slot storage, kChunkSlots per chunk; chunks never move. */
    std::vector<std::unique_ptr<Slot[]>> chunks;
    std::uint32_t slotCount = 0;
    std::uint32_t freeHead = kNil;
    std::uint64_t nextSeq = 0;
    std::size_t liveCount = 0;
};

} // namespace sim
} // namespace treadmill

#endif // TREADMILL_SIM_EVENT_QUEUE_H_
