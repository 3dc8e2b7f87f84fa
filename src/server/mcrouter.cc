#include "server/mcrouter.h"

#include <utility>

#include "util/logging.h"

namespace treadmill {
namespace server {

McrouterServer::McrouterServer(hw::Machine &machine_,
                               const McrouterParams &params_,
                               std::uint64_t seed,
                               const std::string &scope)
    : machine(machine_), params(params_),
      rng(Rng(0x6d63726f75746572ull).substream(seed)),
      jitter(-0.5 * params_.workJitterSigma * params_.workJitterSigma,
             params_.workJitterSigma),
      backendDelay(LogNormal::fromMoments(params_.backendMeanUs,
                                          params_.backendSigmaUs)),
      metrics(machine_.simulation().metrics(), scope)
{
}

void
McrouterServer::receive(RequestPtr request, RespondFn respond)
{
    TM_ASSERT(request->nicArrival != kNoTime,
              "request must be stamped with nicArrival");

    const unsigned irqCore =
        machine.nic().irqCore(request->connectionId);
    const unsigned workerIdx =
        machine.workerOfConnection(request->connectionId);
    const unsigned workerCoreId = machine.workerCore(workerIdx);
    const bool crossSocket =
        machine.spec().socketOf(irqCore) !=
        machine.spec().socketOf(workerCoreId);

    hw::WorkItem irq;
    // Interrupt-storm fault hook: 1.0 (exact identity) when healthy.
    irq.cycles = machine.spec().irqCycles * machine.nic().irqLoadFactor();
    irq.allowTurbo = true;
    irq.done = [this, request = std::move(request),
                respond = std::move(respond), crossSocket](
                   SimTime, SimTime) mutable {
        deserializeOnWorker(std::move(request), std::move(respond),
                            crossSocket);
    };
    machine.submit(irqCore, std::move(irq));
}

void
McrouterServer::deserializeOnWorker(RequestPtr request, RespondFn respond,
                                    bool crossSocket)
{
    const unsigned workerIdx =
        machine.workerOfConnection(request->connectionId);
    const unsigned coreId = machine.workerCore(workerIdx);

    double cycles = params.deserializeCycles +
                    params.cyclesPerValueByte *
                        static_cast<double>(request->valueBytes);
    cycles *= jitter.sample(rng);
    if (params.slowFraction > 0.0 &&
        rng.nextDouble() < params.slowFraction) {
        cycles *= params.slowMultiplier;
    }

    hw::WorkItem work;
    work.cycles = cycles;
    work.fixedStall = static_cast<SimDuration>(
        params.memStallScale *
        static_cast<double>(machine.memoryStall(request->connectionId)));
    if (crossSocket)
        work.fixedStall += machine.spec().crossSocketTransfer;
    work.allowTurbo = true;
    work.done = [this, request = std::move(request),
                 respond = std::move(respond)](SimTime start,
                                               SimTime) mutable {
        request->workerStart = start;
        if (backendPool != nullptr) {
            // Real shard fabric: the pool owns the whole round trip
            // (links, shard service, response links) and hands back
            // the request with hit/responseBytes filled by the shard.
            // No router core is occupied meanwhile, same as the
            // modelled path below.
            backendPool->receive(
                std::move(request),
                [this, respond = std::move(respond)](
                    RequestPtr resp) mutable {
                    // The instant the shard's response re-entered the
                    // router tier (span traces split fabric time from
                    // router egress on this stamp).
                    resp->routerReturn = machine.simulation().now();
                    serializeOnWorker(std::move(resp), std::move(respond));
                });
            return;
        }
        // Asynchronous backend round trip: no core occupied.
        const double delayUs = backendDelay.sample(rng);
        machine.simulation().schedule(
            microseconds(delayUs),
            [this, request = std::move(request),
             respond = std::move(respond)]() mutable {
                serializeOnWorker(std::move(request),
                                  std::move(respond));
            });
    };
    machine.submit(coreId, std::move(work));
}

void
McrouterServer::serializeOnWorker(RequestPtr request, RespondFn respond)
{
    const unsigned workerIdx =
        machine.workerOfConnection(request->connectionId);
    const unsigned coreId = machine.workerCore(workerIdx);

    hw::WorkItem work;
    work.cycles = params.serializeCycles * jitter.sample(rng);
    work.allowTurbo = true;
    work.done = [this, request = std::move(request),
                 respond = std::move(respond)](SimTime,
                                               SimTime end) mutable {
        request->workerEnd = end;
        if (backendPool == nullptr) {
            // Modelled backend: synthesize the outcome the real shard
            // would have produced.
            request->hit = true;
            request->responseBytes =
                48 + request->valueBytes / 2; // relayed value
        }
        ++servedCount;
        request->nicDeparture = end;
        metrics.onServed(*request, request->nicArrival,
                         request->workerStart, end);
        respond(std::move(request));
    };
    machine.submit(coreId, std::move(work));
}

double
McrouterServer::expectedServiceSeconds(double meanValueBytes) const
{
    double cycles = params.deserializeCycles + params.serializeCycles +
                    params.cyclesPerValueByte * meanValueBytes;
    cycles *= 1.0 + params.slowFraction * (params.slowMultiplier - 1.0);
    return machine.expectedComputeSeconds(cycles) +
           params.memStallScale * machine.expectedMemoryStallSeconds();
}

} // namespace server
} // namespace treadmill
