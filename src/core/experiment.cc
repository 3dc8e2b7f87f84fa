#include "core/experiment.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "fault/injector.h"
#include "lb/balancer.h"
#include "net/capture.h"
#include "net/topology.h"
#include "server/fault_shim.h"
#include "sim/simulation.h"
#include "stats/summary.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/strings.h"

namespace treadmill {
namespace core {

double
ExperimentResult::aggregatedQuantile(double q, AggregationKind kind) const
{
    if (instances.empty())
        throw NumericalError("experiment produced no instances");
    if (kind == AggregationKind::Holistic)
        return stats::quantile(mergedSamples(), q);

    // Extract the metric per instance, then aggregate the metrics.
    std::vector<double> perInstance;
    perInstance.reserve(instances.size());
    for (const InstanceReport &inst : instances) {
        const auto it = inst.quantiles.find(q);
        if (it != inst.quantiles.end()) {
            perInstance.push_back(it->second);
        } else if (!inst.rawSamples.empty()) {
            perInstance.push_back(stats::quantile(inst.rawSamples, q));
        }
    }
    if (perInstance.empty())
        throw NumericalError("no instance collected samples");
    return stats::mean(perInstance);
}

std::vector<double>
ExperimentResult::mergedSamples() const
{
    std::vector<double> merged;
    for (const InstanceReport &inst : instances)
        merged.insert(merged.end(), inst.rawSamples.begin(),
                      inst.rawSamples.end());
    return merged;
}

std::size_t
ExperimentResult::instancesAtTarget() const
{
    std::size_t n = 0;
    for (const InstanceReport &inst : instances)
        n += inst.reachedTarget ? 1 : 0;
    return n;
}

namespace {

/** Standard quantile grid extracted from every instance collector. */
const double kQuantileGrid[] = {0.5, 0.9, 0.95, 0.99, 0.999};

/** The wire packet carrying @p r's request (kind Request) or its
 *  response (kind Response). */
net::Packet
packetOf(const server::Request &r, net::PacketKind kind)
{
    return {r.seqId, r.connectionId,
            kind == net::PacketKind::Request ? r.requestBytes
                                             : r.responseBytes,
            kind};
}

/**
 * One server machine and the service it runs: the front server and
 * every cluster shard alike. Requests enter through `sink`, the fault
 * shim when one is wired, else the service itself.
 */
struct Node {
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<server::Service> service;
    std::unique_ptr<server::ServiceFaultShim> shim;
    server::Service *sink = nullptr;
    /** Expected worker seconds per request at nominal frequency. */
    double serviceSeconds = 0.0;

    template <class Server>
    void
    install(std::unique_ptr<Server> server, double meanValueBytes)
    {
        serviceSeconds = server->expectedServiceSeconds(meanValueBytes);
        service = std::move(server);
        sink = service.get();
    }

    /** Put a fault shim, claiming "<scope>.fault", in front. */
    void
    addShim(sim::Simulation &sim, const std::string &scope)
    {
        shim = std::make_unique<server::ServiceFaultShim>(sim, *service,
                                                          scope);
        sink = shim.get();
    }
};

/**
 * Build the node @p backend names: -1 is the front server (the run's
 * workload, scope "server"), b >= 0 is cluster shard b (Memcached,
 * scope "backend<b>", shimmed when the run has a fault plan).
 */
Node
buildNode(sim::Simulation &sim, const ExperimentParams &params,
          int backend)
{
    // Shards get distinct placement/jitter streams, derived only from
    // the run seed and the shard id.
    const std::uint64_t seed =
        backend < 0 ? params.seed
                    : params.seed * 8191 +
                          static_cast<std::uint64_t>(backend) + 1;
    const double valueBytes = params.workload.valueBytesMean;
    Node node;
    node.machine = std::make_unique<hw::Machine>(sim, params.machine,
                                                 params.config, seed);
    if (backend >= 0) {
        const std::string scope = strprintf("backend%d", backend);
        node.install(std::make_unique<server::MemcachedServer>(
                         *node.machine, params.memcachedParams, seed,
                         scope, /*backendRole=*/true),
                     valueBytes);
        if (!params.faultPlan.empty())
            node.addShim(sim, scope);
    } else if (params.kind == WorkloadKind::Memcached) {
        node.install(std::make_unique<server::MemcachedServer>(
                         *node.machine, params.memcachedParams, seed),
                     valueBytes);
    } else {
        node.install(std::make_unique<server::McrouterServer>(
                         *node.machine, params.mcrouterParams, seed),
                     valueBytes);
    }
    return node;
}

/** The total request rate for a front server whose expected service
 *  time is @p serviceSeconds. */
double
rateFor(const ExperimentParams &params, double serviceSeconds)
{
    if (params.requestsPerSecond > 0.0)
        return params.requestsPerSecond;
    TM_ASSERT(serviceSeconds > 0.0, "service time must be positive");
    const double capacity =
        static_cast<double>(params.machine.workerThreads) /
        serviceSeconds;
    return params.targetUtilization * capacity;
}

/** The router's relay to one shard, as a balancer backend: fabric
 *  uplink, the shard's sink, fabric downlink. Up while the shard is. */
class FabricHop : public server::Service
{
  public:
    FabricHop(sim::Simulation &sim_, const net::ShardFabric &fabric_,
              std::uint32_t shard_, server::Service &sink_)
        : sim(sim_), fabric(fabric_), shard(shard_), sink(sink_)
    {
    }

    FabricHop(const FabricHop &) = delete;
    FabricHop &operator=(const FabricHop &) = delete;

    void
    receive(server::RequestPtr request, server::RespondFn respond) override
    {
        const net::Packet pkt =
            packetOf(*request, net::PacketKind::Request);
        fabric.toBackend(shard).send(
            sim, pkt,
            [this, request = std::move(request),
             respond = std::move(respond)](const net::Packet &) mutable {
                request->backendNicArrival = sim.now();
                sink.receive(std::move(request),
                             [this, respond = std::move(respond)](
                                 server::RequestPtr response) mutable {
                                 relayBack(std::move(response),
                                           std::move(respond));
                             });
            });
    }

    bool up() const override { return sink.up(); }

  private:
    void
    relayBack(server::RequestPtr response, server::RespondFn respond)
    {
        const net::Packet pkt =
            packetOf(*response, net::PacketKind::Response);
        fabric.fromBackend(shard).send(
            sim, pkt,
            [respond = std::move(respond),
             response = std::move(response)](const net::Packet &) mutable {
                respond(std::move(response));
            });
    }

    sim::Simulation &sim;
    const net::ShardFabric &fabric;
    std::uint32_t shard;
    server::Service &sink;
};

/** One run's simulator state: the topology the build stage makes and
 *  the optional modules attached to it. */
struct Harness {
    /** Build: the front node and the client network. */
    explicit Harness(const ExperimentParams &p)
        : params(p), spanRecorder(p.trace), sampler(p.telemetry),
          front(buildNode(sim, p, -1))
    {
        std::vector<net::Cluster::ClientSpec> clientSpecs(
            params.tester.clientMachines);
        if (params.oneRemoteRackClient && !clientSpecs.empty())
            clientSpecs[0].remoteRack = true;
        cluster = std::make_unique<net::Cluster>(
            sim, params.machine.nicGbps, clientSpecs);
    }

    /** Build: one load-tester instance per client machine. */
    void
    addLoadTesters()
    {
        targetRps = rateFor(params, front.serviceSeconds);
        const double perClientRps =
            targetRps / static_cast<double>(params.tester.clientMachines);
        // Estimate the mean response time for closed-loop slot sizing:
        // expected service + network round trip + client costs.
        const double estMeanResponseSeconds = front.serviceSeconds + 20e-6;

        for (std::size_t i = 0; i < params.tester.clientMachines; ++i) {
            ClientParams cp;
            cp.index = i;
            cp.requestsPerSecond = perClientRps;
            cp.connections = params.connectionsPerClientMux;
            cp.loop = params.tester.loop;
            cp.closedLoopSlots =
                params.tester.connectionsPerClient > 0
                    ? params.tester.connectionsPerClient
                    : closedLoopConnectionsFor(perClientRps,
                                               estMeanResponseSeconds);
            cp.rateLimitedClosedLoop = params.tester.rateLimitedClosedLoop;
            cp.collector = params.collector;
            cp.sendCostUs = params.clientSendCostUs;
            cp.receiveCostUs = params.clientReceiveCostUs;
            cp.kernelDelayUs = params.clientKernelDelayUs;
            cp.resilience = params.resilience;
            cp.recordSpans = params.trace.enabled;
            cp.seed = params.seed * 1009 + i;
            instances.push_back(std::make_unique<LoadTesterInstance>(
                sim, cp, params.workload,
                [this, i](server::RequestPtr request) {
                    transmit(i, std::move(request));
                }));
        }
        for (auto &instance : instances) {
            instance->setCompletionHook(
                [this](const server::RequestPtr &req) { complete(req); });
        }
    }

    /** Client NIC -> network -> the front node's sink. */
    void
    transmit(std::size_t client, server::RequestPtr request)
    {
        const net::Packet pkt =
            packetOf(*request, net::PacketKind::Request);
        cluster->clientToServer(client).send(
            sim, pkt,
            [this, request = std::move(request)](
                const net::Packet &arrived) mutable {
                capture.onRequest(arrived, sim.now());
                request->nicArrival = sim.now();
                front.sink->receive(std::move(request),
                                    [this](server::RequestPtr response) {
                                        returnToClient(std::move(response));
                                    });
            });
    }

    /** The response leaves the front NIC: network -> client NIC. */
    void
    returnToClient(server::RequestPtr response)
    {
        const net::Packet pkt =
            packetOf(*response, net::PacketKind::Response);
        capture.onResponse(pkt, sim.now());
        const auto client = static_cast<std::size_t>(response->clientIndex);
        cluster->serverToClient(client).send(
            sim, pkt,
            [this,
             response = std::move(response)](const net::Packet &) mutable {
                response->clientNicArrival = sim.now();
                instances[static_cast<std::size_t>(response->clientIndex)]
                    ->onResponseDelivered(std::move(response));
            });
    }

    /** Decompose a completed request's latency, stop load at
     *  per-instance targets, and stop the run once all are done. */
    void
    complete(const server::RequestPtr &req)
    {
        ++responsesCompleted;
        serverComponentUs.record(req->serverLatencyUs());
        networkComponentUs.record(
            toMicros((req->nicArrival - req->clientSend) +
                     (req->clientNicArrival - req->nicDeparture)));
        clientComponentUs.record(
            toMicros((req->clientSend - req->intendedSend) +
                     (req->clientReceive - req->clientNicArrival)));
        (req->op == server::OpType::Get ? getLatencyUs : setLatencyUs)
            .record(req->clientLatencyUs());

        bool allDone = true;
        for (auto &inst : instances) {
            if (inst->done())
                inst->stopLoad();
            else
                allDone = false;
        }
        if (allDone)
            sim.stop();
    }

    /** Run: start the load; simulate until every instance is done or
     *  the deadline hits. */
    void
    run()
    {
        for (auto &instance : instances)
            instance->start();
        sim.scheduleAt(params.deadline, [this] {
            warn("experiment", "hit the simulated-time deadline");
            deadlineHit = true;
            sim.stop();
        });
        sim.run();
    }

    /** Harvest: what every run reports, ending with the metrics
     *  snapshot. */
    ExperimentResult harvest();

    /**
     * One telemetry snapshot, self-rescheduling on the sampler's
     * period until the tick cap is hit. Probes are read-only and
     * Rng-free, so these events never perturb the request trajectory.
     */
    void
    telemetryTick()
    {
        sampler.sample(sim.now());
        if (!sampler.full())
            sim.schedule(sampler.period(), [this] { telemetryTick(); });
    }

    ExperimentParams params;
    sim::Simulation sim;
    obs::SpanRecorder spanRecorder;
    obs::TelemetrySampler sampler;
    Node front;
    std::unique_ptr<net::Cluster> cluster;
    net::PacketCapture capture;
    std::vector<std::unique_ptr<LoadTesterInstance>> instances;
    double targetRps = 0.0;
    bool deadlineHit = false;

    /** Cluster tier; all empty when params.cluster.backends == 0. */
    std::unique_ptr<net::ShardFabric> fabric;
    std::unique_ptr<lb::LoadBalancer> balancer;
    std::vector<Node> shards;
    std::vector<std::unique_ptr<FabricHop>> hops;

    /** Null when params.faultPlan is empty. */
    std::unique_ptr<fault::FaultInjector> injector;

    std::uint64_t responsesCompleted = 0;
    obs::Histogram serverComponentUs;
    obs::Histogram networkComponentUs;
    obs::Histogram clientComponentUs;
    obs::Histogram getLatencyUs;
    obs::Histogram setLatencyUs;
};

ExperimentResult
Harness::harvest()
{
    ExperimentResult result;
    result.targetRps = targetRps;
    result.simulatedTime = sim.now();
    result.serverUtilization = front.machine->workerUtilization();
    result.frequencyTransitions =
        front.machine->totalFrequencyTransitions();
    result.achievedRps =
        sim.now() > 0 ? static_cast<double>(responsesCompleted) /
                            toSeconds(sim.now())
                      : 0.0;
    result.groundTruthUs = capture.latenciesUs();
    result.deadlineHit = deadlineHit;

    // Surface the tcpdump-analogue's diagnostics instead of silently
    // dropping them. Unmatched responses mean the capture's matching
    // broke -- always worth a warning. Requests still outstanding at
    // the end are expected teardown residue (in-flight when the last
    // collector finished), so they only warrant a warning when the run
    // was cut short by its deadline.
    result.captureUnmatchedResponses = capture.unmatchedResponses();
    result.captureOutstanding = capture.outstanding();
    if (result.captureUnmatchedResponses > 0) {
        warn("capture",
             strprintf("%llu responses had no matching request",
                       static_cast<unsigned long long>(
                           result.captureUnmatchedResponses)));
    }
    if (result.captureOutstanding > 0) {
        const std::string msg = strprintf(
            "%zu requests still outstanding at experiment end",
            result.captureOutstanding);
        if (deadlineHit)
            warn("capture", msg);
        else
            inform("capture", msg);
    }

    result.serverComponentUs = std::move(serverComponentUs);
    result.networkComponentUs = std::move(networkComponentUs);
    result.clientComponentUs = std::move(clientComponentUs);
    result.getLatencyUs = std::move(getLatencyUs);
    result.setLatencyUs = std::move(setLatencyUs);

    for (std::size_t i = 0; i < instances.size(); ++i) {
        const LoadTesterInstance &inst = *instances[i];
        InstanceReport report;
        report.rawSamples = inst.collector().rawSamples();
        report.measured = inst.collector().measured();
        report.reachedTarget = inst.done();
        report.cpuUtilization = inst.cpuUtilization();
        report.remoteRack = cluster->isRemoteRack(i);
        report.outstandingAtSend = inst.outstandingAtSend();
        report.trajectory = inst.collector().trajectory();
        if (report.measured > 0) {
            for (double q : kQuantileGrid)
                report.quantiles[q] = inst.collector().quantile(q);
        }
        result.instances.push_back(std::move(report));
    }

    // Final gauge values that are only known at harvest time, then a
    // snapshot of everything the run's components recorded.
    obs::MetricsRegistry &registry = sim.metrics();
    for (std::size_t i = 0; i < instances.size(); ++i) {
        registry.gauge(strprintf("client%zu.cpu_utilization", i))
            .set(instances[i]->cpuUtilization());
    }
    registry.gauge("server.worker_utilization")
        .set(front.machine->workerUtilization());
    result.metrics = registry.snapshot();
    return result;
}

/** An optional module's harvest: fills its slice of the result. */
using Harvest = std::function<void(ExperimentResult &)>;

/**
 * Cluster tier: the shard fabric, the balancer, and per backend a
 * shard Node and the FabricHop the balancer routes through. The router
 * then forwards there instead of its modelled backend delay.
 */
Harvest
attachClusterTier(Harness &h)
{
    const ClusterParams &cl = h.params.cluster;
    if (h.params.kind != WorkloadKind::Mcrouter)
        throw ConfigError(
            "a backend cluster requires the mcrouter workload");
    if (cl.racks == 0)
        throw ConfigError("cluster needs at least one rack");
    if (cl.racks > cl.backends)
        throw ConfigError("cluster has more racks than backends");

    std::vector<net::ShardFabric::BackendSpec> specs(cl.backends);
    for (std::uint32_t b = 0; b < cl.backends; ++b) {
        specs[b].rack = cl.rackOf(b);
        specs[b].linkGbps = cl.backendLinkGbps;
    }
    h.fabric = std::make_unique<net::ShardFabric>(h.sim, specs);

    lb::BalancerParams bp;
    bp.backends = cl.backends;
    bp.replication = cl.replication;
    bp.vnodesPerBackend = cl.vnodesPerBackend;
    bp.maxInflightPerBackend = cl.maxInflightPerBackend;
    bp.policy = cl.policy;
    bp.edfSlackUs = cl.edfSlackUs;
    bp.seed = h.params.seed;
    h.balancer = std::make_unique<lb::LoadBalancer>(h.sim, bp);

    h.shards.reserve(cl.backends);
    for (std::uint32_t b = 0; b < cl.backends; ++b) {
        h.shards.push_back(buildNode(h.sim, h.params, static_cast<int>(b)));
        h.hops.push_back(std::make_unique<FabricHop>(
            h.sim, *h.fabric, b, *h.shards.back().sink));
        h.balancer->addBackend(*h.hops.back());
    }
    // The workload check above makes the front service an mcrouter.
    static_cast<server::McrouterServer &>(*h.front.service)
        .setBackendPool(h.balancer.get());

    return [&h](ExperimentResult &result) {
        for (std::uint32_t b = 0; b < h.shards.size(); ++b) {
            // buildNode makes every shard a MemcachedServer.
            result.backendServed.push_back(
                static_cast<const server::MemcachedServer &>(
                    *h.shards[b].service)
                    .served());
            result.backendDispatched.push_back(
                h.balancer->dispatchedTo(b));
        }
        result.lbQueued = h.balancer->queued();
        result.lbUnroutable = h.balancer->unroutable();
        result.lbFailovers = h.balancer->failovers();
    };
}

/**
 * Faults: a shim in front of the front server (each shard got its own
 * at build), then the injector, handed every hook point at once.
 */
Harvest
attachFaults(Harness &h)
{
    h.front.addShim(h.sim, "server");
    fault::FaultHooks hooks;
    hooks.links = h.cluster->allLinks();
    hooks.nodes.push_back(
        {h.front.shim.get(), &h.front.machine->mutableNic()});
    for (const Node &shard : h.shards)
        hooks.nodes.push_back(
            {shard.shim.get(), &shard.machine->mutableNic()});
    if (h.fabric) {
        const std::vector<net::Link *> fabricLinks = h.fabric->allLinks();
        hooks.links.insert(hooks.links.end(), fabricLinks.begin(),
                           fabricLinks.end());
        for (std::uint32_t r = 0; r < h.params.cluster.racks; ++r)
            hooks.racks.push_back(h.fabric->rackLinks(r));
    }
    h.injector = std::make_unique<fault::FaultInjector>(
        h.sim, h.params.faultPlan, h.params.seed, std::move(hooks));

    return [&h](ExperimentResult &result) {
        result.faultWindows = h.injector->annotations();
    };
}

/** Spans: every instance hands its completed span trees to the
 *  recorder, sized up front so recording never reallocates. */
Harvest
attachSpans(Harness &h)
{
    for (auto &instance : h.instances) {
        instance->setSpanSink(
            [&h](const obs::SpanTrace &s) { h.spanRecorder.record(s); });
    }
    // Headroom for retried/cloned attempts.
    const SampleCollector::Params &c = h.params.collector;
    h.spanRecorder.reserveFor(
        static_cast<std::size_t>(h.params.tester.clientMachines) *
            (c.warmUpSamples + c.calibrationSamples +
             c.measurementSamples) * 5 / 4 +
        1024);

    return [&h](ExperimentResult &result) {
        result.spans = h.spanRecorder.takeSpans();
    };
}

/**
 * Telemetry: register every probe (registration order is the stable
 * export order), then kick the first tick at t=0. Probes are plain
 * reads of state the run maintains anyway.
 */
Harvest
attachTelemetry(Harness &h)
{
    obs::TelemetrySampler &sampler = h.sampler;
    sampler.addProbe("sim.event_queue_depth", [&h] {
        return static_cast<double>(h.sim.pendingEvents());
    });
    const hw::Machine *front = h.front.machine.get();
    sampler.addProbe("server.worker_utilization",
                     [front] { return front->workerUtilization(); });
    for (std::size_t i = 0; i < h.instances.size(); ++i) {
        const LoadTesterInstance *inst = h.instances[i].get();
        sampler.addProbe(strprintf("client%zu.outstanding", i), [inst] {
            return static_cast<double>(inst->outstanding());
        });
        sampler.addProbe(strprintf("client%zu.pool_slabs", i), [inst] {
            return static_cast<double>(inst->requestPoolSlabs());
        });
    }
    if (h.balancer) {
        const lb::LoadBalancer *bal = h.balancer.get();
        sampler.addProbe("lb.queue_depth", [bal] {
            return static_cast<double>(bal->queueDepth());
        });
        for (std::uint32_t b = 0; b < h.shards.size(); ++b) {
            sampler.addProbe(strprintf("backend%u.inflight", b), [bal, b] {
                return static_cast<double>(bal->inflightOf(b));
            });
            const hw::Machine *shard = h.shards[b].machine.get();
            sampler.addProbe(strprintf("backend%u.worker_utilization", b),
                             [shard] { return shard->workerUtilization(); });
        }
    }
    h.telemetryTick();

    return [&h](ExperimentResult &result) {
        result.telemetry = h.sampler.takeSeries();
    };
}

} // namespace

double
deriveRequestRate(const ExperimentParams &params)
{
    if (params.requestsPerSecond > 0.0)
        return params.requestsPerSecond;
    // Probe the expected per-request service time under this config
    // by building a scratch front node with the run's placement.
    sim::Simulation scratch;
    return rateFor(params, buildNode(scratch, params, -1).serviceSeconds);
}

ExperimentResult
runExperiment(const ExperimentParams &params)
{
    if (params.tester.clientMachines == 0)
        throw ConfigError("experiment needs at least one client");

    // Build the topology and put load on it, attaching each optional
    // module where it wires in. A module that is off is never built:
    // it costs nothing and moves no byte of the run. This order is the
    // construction and scheduling order every pinned result rests on.
    auto h = std::make_unique<Harness>(params);
    std::vector<Harvest> harvests;
    if (params.cluster.backends > 0)
        harvests.push_back(attachClusterTier(*h));
    if (!params.faultPlan.empty())
        harvests.push_back(attachFaults(*h));
    h->addLoadTesters();
    if (params.trace.enabled)
        harvests.push_back(attachSpans(*h));
    if (params.telemetry.enabled)
        harvests.push_back(attachTelemetry(*h));

    h->run();

    ExperimentResult result = h->harvest();
    for (const Harvest &harvest : harvests)
        harvest(result);
    return result;
}

std::vector<ExperimentResult>
runExperiments(const std::vector<ExperimentParams> &runs,
               const exec::Parallelism &parallelism,
               const exec::ProgressFn &progress)
{
    exec::ParallelRunner runner(parallelism);
    runner.onProgress(progress);
    return runner.run(
        runs.size(),
        [&runs](std::size_t i) { return runExperiment(runs[i]); },
        [](const ExperimentResult &r) {
            return toSeconds(r.simulatedTime);
        });
}

ProcedureResult
repeatedProcedure(const ProcedureParams &params)
{
    stats::ConvergenceTracker tracker(params.tolerance, params.window,
                                      params.minRuns);
    ProcedureResult result;

    // Runs are launched in waves of one per worker lane. Metrics are
    // consumed strictly in run-index order and convergence is checked
    // after each one, so the output matches the serial loop exactly;
    // runs computed past the convergence point are simply discarded.
    const std::size_t lanes =
        std::max<std::size_t>(1, params.parallelism.resolve());
    std::size_t launched = 0;
    while (launched < params.maxRuns && !tracker.converged()) {
        const std::size_t batch =
            std::min(lanes, params.maxRuns - launched);
        std::vector<ExperimentParams> wave;
        wave.reserve(batch);
        for (std::size_t k = 0; k < batch; ++k) {
            ExperimentParams runParams = params.base;
            // Fresh run seed => fresh placement: the hysteresis
            // dimension. Seeds depend only on the run index.
            runParams.seed =
                params.base.seed + (launched + k) * 7919 + 13;
            wave.push_back(std::move(runParams));
        }
        const std::vector<ExperimentResult> outcomes =
            runExperiments(wave, params.parallelism);
        for (const ExperimentResult &outcome : outcomes) {
            const double metric = outcome.aggregatedQuantile(
                params.quantile, params.aggregation);
            tracker.add(metric);
            result.perRunMetric.push_back(metric);
            if (tracker.converged())
                break;
        }
        launched += batch;
    }
    result.runs = result.perRunMetric.size();
    result.mean = stats::mean(result.perRunMetric);
    result.stddev = stats::stddev(result.perRunMetric);
    result.converged = tracker.converged();
    return result;
}

} // namespace core
} // namespace treadmill
