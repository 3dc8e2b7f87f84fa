#include "net/link.h"

#include <algorithm>
#include <utility>

#include "util/error.h"
#include "util/logging.h"

namespace treadmill {
namespace net {

namespace {

const sim::EventKind kDeliveryEvent("net.delivery");

} // namespace

Link::Link(sim::Simulation &sim_, std::string name, double gbps,
           SimDuration propagation_)
    : sim(sim_), linkName(std::move(name)),
      bytesPerNs(gbps / 8.0), propagation(propagation_),
      packetsCounter(
          sim.metrics().counter("net." + linkName + ".packets")),
      bytesCounter(sim.metrics().counter("net." + linkName + ".bytes")),
      droppedCounter(
          sim.metrics().counter("net." + linkName + ".dropped")),
      queueWaitHist(
          sim.metrics().histogram("net." + linkName + ".queue_wait_us")),
      inFlightGauge(
          sim.metrics().gauge("net." + linkName + ".in_flight")),
      utilizationGauge(
          sim.metrics().gauge("net." + linkName + ".utilization"))
{
    if (!(gbps > 0.0))
        throw ConfigError("link bandwidth must be positive");
}

// tmlint:hot-path-begin -- send() runs once per packet; the pooled
// pending-delivery slot keeps event capture at 16 bytes (PR 4).
SimDuration
Link::transmitTime(std::uint32_t bytes) const
{
    // Degraded bandwidth stretches serialization proportionally.
    const double effectiveBytesPerNs =
        faults ? bytesPerNs * faults->bandwidthFactor : bytesPerNs;
    return static_cast<SimDuration>(std::max(
        1.0, static_cast<double>(bytes) / effectiveBytesPerNs));
}

bool
Link::send(const Packet &packet, DeliveryFn onDelivered)
{
    if (faults && faults->lossProbability > 0.0 &&
        faults->lossRng.nextDouble() < faults->lossProbability) {
        // The packet vanishes on the wire: it never occupies the
        // transmitter and its delivery callback is simply destroyed.
        ++faults->dropped;
        droppedCounter.add();
        return false;
    }

    ++totalPackets;
    totalBytes += packet.bytes;
    packetsCounter.add();
    bytesCounter.add(packet.bytes);

    const SimTime now = sim.now();
    const SimDuration serialize = transmitTime(packet.bytes);
    const SimTime start = std::max(now, transmitterFreeAt);
    transmitterFreeAt = start + serialize;
    busyTime += serialize;

    // Time this packet waits behind earlier packets at the transmitter:
    // the link-queueing component of the paper's "network latency".
    queueWaitHist.record(toMicros(start - now));
    ++inFlightCount;
    inFlightGauge.set(static_cast<double>(inFlightCount));
    utilizationGauge.set(utilization());

    const SimDuration effectivePropagation =
        faults ? propagation + faults->extraPropagation : propagation;
    const SimTime deliverAt = transmitterFreeAt + effectivePropagation;
    sim.countEvent(kDeliveryEvent);
    // Park the packet and its callback in the pool; the event then
    // captures 16 bytes and scheduling allocates nothing.
    const std::uint32_t slot =
        pendingPool.acquire(packet, std::move(onDelivered));
    sim.scheduleAt(deliverAt, [this, slot] {
        PendingDelivery &pd = pendingPool.get(slot);
        const Packet delivered = pd.packet;
        DeliveryFn cb = std::move(pd.deliver);
        pendingPool.release(slot);
        --inFlightCount;
        inFlightGauge.set(static_cast<double>(inFlightCount));
        cb(delivered);
    });
    return true;
}
// tmlint:hot-path-end

void
Link::armFaults(const Rng &lossRng)
{
    if (!faults) {
        faults = std::make_unique<FaultState>();
        faults->lossRng = lossRng;
    }
}

void
Link::setLossProbability(double p)
{
    TM_ASSERT(faults != nullptr, "fault hooks not armed");
    faults->lossProbability = p;
}

void
Link::setBandwidthFactor(double factor)
{
    TM_ASSERT(faults != nullptr, "fault hooks not armed");
    faults->bandwidthFactor = factor;
}

void
Link::setExtraPropagation(SimDuration extra)
{
    TM_ASSERT(faults != nullptr, "fault hooks not armed");
    faults->extraPropagation = extra;
}

std::uint64_t
Link::packetsDropped() const
{
    return faults ? faults->dropped : 0;
}

double
Link::utilization() const
{
    const SimTime elapsed = sim.now();
    if (elapsed == 0)
        return 0.0;
    return static_cast<double>(std::min<SimDuration>(busyTime, elapsed)) /
           static_cast<double>(elapsed);
}

} // namespace net
} // namespace treadmill
