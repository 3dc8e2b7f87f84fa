#include "server/sqlish.h"

#include <utility>

#include "util/logging.h"

namespace treadmill {
namespace server {

SqlishServer::SqlishServer(hw::Machine &machine_,
                           const SqlishParams &params_,
                           std::uint64_t seed,
                           const std::string &scope)
    : machine(machine_), params(params_),
      rng(Rng(0x51a15eedull).substream(seed)),
      jitter(-0.5 * params_.workJitterSigma * params_.workJitterSigma,
             params_.workJitterSigma),
      ioMiss(params_.ioMissProbability),
      metrics(machine_.simulation().metrics(), scope)
{
}

void
SqlishServer::receive(RequestPtr request, RespondFn respond)
{
    TM_ASSERT(request->nicArrival != kNoTime,
              "request must be stamped with nicArrival");

    const unsigned irqCore =
        machine.nic().irqCore(request->connectionId);
    const unsigned workerIdx =
        machine.workerOfConnection(request->connectionId);
    const unsigned workerCoreId = machine.workerCore(workerIdx);

    hw::WorkItem irq;
    // Interrupt-storm fault hook: 1.0 (exact identity) when healthy.
    irq.cycles = machine.spec().irqCycles * machine.nic().irqLoadFactor();
    irq.allowTurbo = true;
    irq.done = [this, request = std::move(request),
                respond = std::move(respond),
                workerCoreId](SimTime, SimTime) mutable {
        hw::WorkItem query;
        query.cycles = params.queryCycles * jitter.sample(rng);
        query.fixedStall =
            machine.memoryStall(request->connectionId);
        if (ioMiss.sample(rng)) {
            query.fixedStall += static_cast<SimDuration>(
                microseconds(params.ioStallUs));
        }
        query.allowTurbo = true;
        query.done = [this, request = std::move(request),
                      respond = std::move(respond)](
                         SimTime start, SimTime end) mutable {
            request->workerStart = start;
            request->workerEnd = end;
            request->hit = true;
            request->responseBytes = 256;
            ++servedCount;
            request->nicDeparture = end;
            metrics.onServed(*request, request->nicArrival, start, end);
            respond(std::move(request));
        };
        machine.submit(workerCoreId, std::move(query));
    };
    machine.submit(irqCore, std::move(irq));
}

double
SqlishServer::expectedServiceSeconds() const
{
    return machine.expectedComputeSeconds(params.queryCycles) +
           machine.expectedMemoryStallSeconds() +
           params.ioMissProbability * params.ioStallUs * 1e-6;
}

} // namespace server
} // namespace treadmill
