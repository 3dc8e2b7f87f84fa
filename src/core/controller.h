/**
 * @file
 * Load-generation control loops (paper S II-A).
 *
 * The open-loop controller issues requests at precisely timed,
 * exponentially distributed inter-arrival instants, independent of
 * outstanding responses -- Treadmill's design, consistent with Google
 * production inter-arrival measurements. The closed-loop controller
 * holds N connection slots and issues a new request only when a slot's
 * previous response returns -- the worker-thread pattern of YCSB,
 * Faban, and Mutilate, which caps outstanding requests at N and
 * systematically underestimates tail latency.
 */

#ifndef TREADMILL_CORE_CONTROLLER_H_
#define TREADMILL_CORE_CONTROLLER_H_

#include <array>
#include <cstdint>
#include <memory>

#include "sim/simulation.h"
#include "util/inline_function.h"
#include "util/random_variates.h"
#include "util/rng.h"
#include "util/types.h"

namespace treadmill {
namespace core {

/** The two inter-arrival generation disciplines. */
enum class ControlLoop { OpenLoop, ClosedLoop };

/**
 * Strategy deciding when the load tester issues requests.
 *
 * The owning client supplies an `issue` callback that constructs and
 * transmits one request stamped with the given intended-send time.
 */
class LoadController
{
  public:
    using IssueFn = util::InlineFunction<void(SimTime intendedSend), 16>;

    virtual ~LoadController() = default;

    /** Begin generating load (schedules the first sends). */
    virtual void start(IssueFn issue) = 0;

    /** A response to one of this controller's requests arrived. */
    virtual void onResponse() = 0;

    /** Stop issuing further requests. */
    virtual void stop() = 0;

    /** Which discipline this controller implements. */
    virtual ControlLoop kind() const = 0;
};

/**
 * Precisely timed open-loop controller with exponential inter-arrival
 * times at the configured rate.
 */
class OpenLoopController : public LoadController
{
  public:
    /**
     * @param sim Owning simulation.
     * @param requestsPerSecond Target issue rate.
     * @param rng Private randomness for inter-arrival draws.
     */
    OpenLoopController(sim::Simulation &sim, double requestsPerSecond,
                       const Rng &rng);

    void start(IssueFn issue) override;
    void onResponse() override {}
    void stop() override { running = false; }
    ControlLoop kind() const override { return ControlLoop::OpenLoop; }

  private:
    /** Schedule the next precisely timed send. */
    void scheduleNext();

    sim::Simulation &sim;
    Exponential interArrival;
    Rng rng;
    IssueFn issue;
    SimTime nextSend = 0;
    bool running = false;

    /** Batched exponential gaps: the rng is private, so drawing a
     *  chunk ahead yields the same per-send sequence as one virtual
     *  sampler call per request, minus the call overhead. */
    static constexpr std::size_t kGapBatch = 64;
    std::array<double, kGapBatch> gaps;
    std::size_t gapPos = kGapBatch; ///< kGapBatch = batch exhausted.
};

/**
 * Closed-loop controller: at most one outstanding request per
 * connection slot.
 *
 * Two operating modes, both used by the surveyed tools:
 *  - Saturating (targetRps == 0): every slot reissues immediately on
 *    response (optionally after a think time) -- the classic worker-
 *    thread loop.
 *  - Rate-limited (targetRps > 0): sends are scheduled at exponential
 *    instants like an open loop, but a send finding every slot busy
 *    waits for a response first. This is Mutilate's target-QPS mode;
 *    the cap on outstanding requests is exactly what clips the
 *    queueing tail (paper Figs 1 and 6).
 */
class ClosedLoopController : public LoadController
{
  public:
    /**
     * @param sim Owning simulation.
     * @param connections Number of concurrent connection slots.
     * @param thinkTime Delay between a response and the next request
     *        on that slot (saturating mode only).
     * @param targetRps Rate-limited mode when positive.
     * @param rng Inter-arrival randomness (rate-limited mode).
     * @param uniformSpacing Rate-limited sends at exactly 1/rate
     *        intervals (Mutilate's pacing) instead of exponential
     *        ones -- the "improper inter-arrival" pitfall.
     */
    ClosedLoopController(sim::Simulation &sim, unsigned connections,
                         SimDuration thinkTime = 0,
                         double targetRps = 0.0, const Rng &rng = Rng(1),
                         bool uniformSpacing = true);

    void start(IssueFn issue) override;
    void onResponse() override;
    void stop() override { running = false; }
    ControlLoop kind() const override { return ControlLoop::ClosedLoop; }

    unsigned connections() const { return slots; }

    /** Sends deferred because every slot was busy (diagnostics). */
    std::uint64_t deferredSends() const { return deferred; }

  private:
    /** Issue one request now (or after think time). */
    void reissue();

    /** Rate-limited mode: schedule the next timed send. */
    void scheduleNext();

    /** Rate-limited mode: attempt a timed send (defer if capped). */
    void timedSend();

    sim::Simulation &sim;
    unsigned slots;
    SimDuration thinkTime;
    double targetRps;
    Rng rng;
    bool uniformSpacing;
    IssueFn issue;
    bool running = false;
    unsigned outstanding = 0;
    std::uint64_t pendingSends = 0;
    std::uint64_t deferred = 0;
    SimTime nextSend = 0;
};

/**
 * Estimate the connection count a closed-loop tester needs to sustain
 * @p requestsPerSecond against a service whose mean response time is
 * @p meanResponseSeconds (Little's law, rounded up).
 */
unsigned closedLoopConnectionsFor(double requestsPerSecond,
                                  double meanResponseSeconds);

} // namespace core
} // namespace treadmill

#endif // TREADMILL_CORE_CONTROLLER_H_
