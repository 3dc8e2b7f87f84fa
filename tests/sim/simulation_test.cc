/** @file Unit tests for the simulation driver. */

#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "util/types.h"

namespace treadmill {
namespace sim {
namespace {

TEST(SimulationTest, ClockStartsAtZero)
{
    Simulation sim;
    EXPECT_EQ(sim.now(), 0u);
}

TEST(SimulationTest, ClockAdvancesToEventTimes)
{
    Simulation sim;
    std::vector<SimTime> seen;
    sim.schedule(microseconds(10), [&] { seen.push_back(sim.now()); });
    sim.schedule(microseconds(5), [&] { seen.push_back(sim.now()); });
    sim.run();
    EXPECT_EQ(seen,
              (std::vector<SimTime>{microseconds(5), microseconds(10)}));
    EXPECT_EQ(sim.now(), microseconds(10));
}

TEST(SimulationTest, EventsCanScheduleEvents)
{
    Simulation sim;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            sim.schedule(100, chain);
    };
    sim.schedule(100, chain);
    sim.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(sim.now(), 500u);
    EXPECT_EQ(sim.eventsExecuted(), 5u);
}

TEST(SimulationTest, RunUntilStopsAtDeadline)
{
    Simulation sim;
    int fired = 0;
    for (int i = 1; i <= 10; ++i)
        sim.schedule(static_cast<SimDuration>(i) * 100, [&] { ++fired; });
    sim.runUntil(550);
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(sim.now(), 550u);
    // Remaining events still pending.
    EXPECT_EQ(sim.pendingEvents(), 5u);
}

TEST(SimulationTest, RunUntilExcludesDeadlineInstant)
{
    Simulation sim;
    bool fired = false;
    sim.schedule(100, [&] { fired = true; });
    sim.runUntil(100);
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.now(), 100u);
}

TEST(SimulationTest, RunUntilAdvancesClockWhenIdle)
{
    Simulation sim;
    sim.runUntil(milliseconds(5));
    EXPECT_EQ(sim.now(), milliseconds(5));
}

TEST(SimulationTest, StopHaltsRun)
{
    Simulation sim;
    int fired = 0;
    for (int i = 1; i <= 10; ++i) {
        sim.schedule(static_cast<SimDuration>(i), [&] {
            ++fired;
            if (fired == 3)
                sim.stop();
        });
    }
    sim.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(sim.pendingEvents(), 7u);
}

TEST(SimulationTest, CancelledEventDoesNotFire)
{
    Simulation sim;
    bool ran = false;
    const EventId id = sim.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(sim.cancel(id));
    sim.run();
    EXPECT_FALSE(ran);
}

TEST(SimulationTest, ScheduleAtAbsoluteTime)
{
    Simulation sim;
    SimTime seen = 0;
    sim.scheduleAt(microseconds(42), [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, microseconds(42));
}

TEST(SimulationDeathTest, SchedulingInThePastPanics)
{
    Simulation sim;
    sim.schedule(100, [] {});
    sim.run();
    EXPECT_DEATH(sim.scheduleAt(50, [] {}), "past");
}

TEST(SimulationTest, SameInstantEventsRunInScheduleOrder)
{
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        sim.schedule(100, [&order, i] { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// The firing callback runs in place in its event slot: scheduling
// enough events to add slot chunks must not move the running
// closure's captures out from under it.
TEST(SimulationTest, FiringCallbackKeepsItsCapturesAcrossSlotGrowth)
{
    Simulation sim;
    int fired = 0;
    bool checked = false;
    const std::uint64_t a = 0x0123456789abcdefull;
    const std::uint64_t b = 0xfedcba9876543210ull;
    const std::uint64_t c = 0x5555aaaa5555aaaaull;
    sim.schedule(10, [&sim, &fired, &checked, a, b, c] {
        for (int i = 0; i < 600; ++i)
            sim.schedule(1 + static_cast<SimDuration>(i), [&fired] {
                ++fired;
            });
        EXPECT_EQ(a, 0x0123456789abcdefull);
        EXPECT_EQ(b, 0xfedcba9876543210ull);
        EXPECT_EQ(c, 0x5555aaaa5555aaaaull);
        checked = true;
    });
    sim.run();
    EXPECT_TRUE(checked);
    EXPECT_EQ(fired, 600);
}

TEST(SimulationTest, FiringEventCannotCancelItself)
{
    Simulation sim;
    EventId self = 0;
    bool cancelled = true;
    self = sim.schedule(5, [&] { cancelled = sim.cancel(self); });
    sim.run();
    EXPECT_FALSE(cancelled);
    EXPECT_EQ(sim.metrics().counter("sim.events_cancelled").value(), 0u);
    // The id stays dead after the event has fired.
    EXPECT_FALSE(sim.cancel(self));
}

TEST(SimulationTest, FiredCallbackReleasesItsCaptureExactlyOnce)
{
    Simulation sim;
    int deletes = 0;
    long useCountWhileFiring = 0;
    {
        std::shared_ptr<int> token(new int(7), [&deletes](int *p) {
            ++deletes;
            delete p;
        });
        sim.schedule(5, [token, &useCountWhileFiring] {
            useCountWhileFiring = token.use_count();
        });
    }
    EXPECT_EQ(deletes, 0);
    sim.run();
    // Only the slot's copy existed while firing, and it was destroyed
    // once the callback returned.
    EXPECT_EQ(useCountWhileFiring, 1);
    EXPECT_EQ(deletes, 1);
}

} // namespace
} // namespace sim
} // namespace treadmill
