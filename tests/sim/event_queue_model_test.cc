/**
 * @file
 * Model-based stress test for the 4-ary generation-stamped event queue.
 *
 * A naive reference implementation (std::multimap keyed by time, which
 * preserves insertion order among equal keys) is driven with the same
 * randomized mix of push / cancel / fire operations as the real queue
 * (firing runs each callback in place, as Simulation::step() does).
 * The queue must fire exactly the same payloads in exactly the same
 * order, including after slot recycling has wrapped generations many
 * times over.
 */

#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "util/rng.h"

namespace treadmill {
namespace sim {
namespace {

TEST(EventQueueModelTest, MatchesReferenceOverMixedOps)
{
    EventQueue q;
    Rng rng(0xfeedfaceull);

    // Reference: (time, arrival order) -> payload id. std::multimap
    // inserts equal keys at upper_bound, so iteration order among
    // equal times is insertion order -- the same tie-break contract
    // the queue documents via its sequence numbers.
    std::multimap<SimTime, std::uint64_t> model;
    using ModelIt = std::multimap<SimTime, std::uint64_t>::iterator;

    struct Live {
        EventId id;
        ModelIt it;
    };
    std::vector<Live> live;           // cancelable handles
    std::vector<EventId> dead; // popped or canceled ids

    std::uint64_t nextPayload = 0;
    std::uint64_t fired = 0;
    std::uint64_t expectedPayload = 0;
    bool havePop = false;

    constexpr std::uint64_t kOps = 1000000;
    SimTime now = 0;

    for (std::uint64_t op = 0; op < kOps; ++op) {
        const double r = rng.nextDouble();
        if (r < 0.5 || q.empty()) {
            // Push at a time >= now (times may collide frequently to
            // exercise the sequence tie-break).
            const SimTime when = now + rng.next() % 64;
            const std::uint64_t payload = nextPayload++;
            const auto id = q.push(when, [payload, &fired,
                                          &expectedPayload, &havePop] {
                fired = payload;
                EXPECT_EQ(payload, expectedPayload);
                havePop = true;
            });
            live.push_back({id, model.emplace(when, payload)});
        } else if (r < 0.75 && !live.empty()) {
            // Cancel a random live event.
            const std::size_t pick =
                static_cast<std::size_t>(rng.next() % live.size());
            ASSERT_TRUE(q.cancel(live[pick].id));
            model.erase(live[pick].it);
            dead.push_back(live[pick].id);
            live[pick] = live.back();
            live.pop_back();
        } else {
            // Fire: the earliest (time, seq) live entry must run.
            ASSERT_FALSE(model.empty());
            const auto first = model.begin();
            expectedPayload = first->second;
            havePop = false;
            SimTime when = 0;
            q.fireNext([&](SimTime w) {
                // The event has left the queue before it runs.
                EXPECT_FALSE(havePop);
                EXPECT_EQ(q.size(), model.size() - 1);
                when = w;
            });
            ASSERT_EQ(when, first->first);
            ASSERT_GE(when, now);
            now = when;
            ASSERT_TRUE(havePop);
            ASSERT_EQ(fired, expectedPayload);
            // Drop the fired event from both live set and model.
            for (std::size_t i = 0; i < live.size(); ++i) {
                if (live[i].it == first) {
                    dead.push_back(live[i].id);
                    live[i] = live.back();
                    live.pop_back();
                    break;
                }
            }
            model.erase(first);
        }
        ASSERT_EQ(q.size(), model.size());

        // Stale handles must stay dead even as slots are recycled.
        if (op % 4096 == 0 && !dead.empty()) {
            const std::size_t pick =
                static_cast<std::size_t>(rng.next() % dead.size());
            EXPECT_FALSE(q.cancel(dead[pick]));
        }
    }

    // Drain: remaining events still fire in exact model order.
    while (!model.empty()) {
        const auto first = model.begin();
        expectedPayload = first->second;
        havePop = false;
        SimTime when = 0;
        q.fireNext([&when](SimTime w) { when = w; });
        ASSERT_EQ(when, first->first);
        ASSERT_TRUE(havePop);
        model.erase(first);
    }
    EXPECT_TRUE(q.empty());

    // After a full drain every recorded dead handle is refusable.
    for (std::size_t i = 0; i < dead.size(); i += 97)
        EXPECT_FALSE(q.cancel(dead[i]));
}

TEST(EventQueueModelTest, CancelReleasesCapturedStateEagerly)
{
    EventQueue q;
    auto token = std::make_shared<int>(42);
    const auto id = q.push(10, [token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);

    ASSERT_TRUE(q.cancel(id));
    // The callback (and its captured shared_ptr) must be destroyed at
    // cancel time, not when the dead heap entry is eventually popped.
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueModelTest, ClearReleasesCapturedStateEagerly)
{
    EventQueue q;
    auto token = std::make_shared<int>(7);
    q.push(5, [token] { (void)*token; });
    q.push(9, [token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 3);

    q.clear();
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueModelTest, PopReleasesCapturedStateAfterInvocation)
{
    EventQueue q;
    auto token = std::make_shared<int>(1);
    q.push(1, [token] { (void)*token; });
    {
        SimTime when = 0;
        auto fn = q.pop(when);
        fn();
        EXPECT_EQ(token.use_count(), 2); // held only by the local fn
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueModelTest, GenerationReuseInvalidatesOldHandles)
{
    EventQueue q;
    // Drive one slot through many acquire/release cycles and check
    // that every retired handle stays invalid.
    std::vector<EventId> old;
    for (int cycle = 0; cycle < 1000; ++cycle) {
        const auto id = q.push(static_cast<SimTime>(cycle), [] {});
        for (const auto stale : old)
            ASSERT_FALSE(q.cancel(stale));
        SimTime when = 0;
        q.pop(when)();
        old.push_back(id);
        if (old.size() > 8)
            old.erase(old.begin());
    }
}

} // namespace
} // namespace sim
} // namespace treadmill
