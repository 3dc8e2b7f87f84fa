#include "fault/injector.h"

#include <utility>

#include "util/error.h"
#include "util/strings.h"

namespace treadmill {
namespace fault {

namespace {

const sim::EventKind kApplyEvent("fault.apply");

/** FNV-1a over @p s: a stable per-link sub-stream key, so each link's
 *  loss stream depends only on the run seed and the link's name. */
std::uint64_t
nameKey(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

FaultInjector::FaultInjector(sim::Simulation &sim_, FaultPlan plan_,
                             std::uint64_t runSeed, FaultHooks hooks_)
    : sim(sim_), plan(std::move(plan_)), hooks(std::move(hooks_)),
      appliedCounter(sim_.metrics().counter("fault.windows_applied"))
{
    plan.validate();
    const Rng lossRoot = Rng(0xfa017155eedull ^ runSeed);
    for (net::Link *link : hooks.links)
        link->armFaults(lossRoot.substream(nameKey(link->name())));
    for (const FaultEvent &ev : plan.events) {
        for (std::uint32_t k = 0; k < ev.repeatCount; ++k)
            scheduleWindow(ev, ev.start + k * ev.period);
    }
}

std::vector<net::Link *>
FaultInjector::matchLinks(const std::string &target) const
{
    std::vector<net::Link *> matched;
    for (net::Link *link : hooks.links) {
        if (target.empty() ||
            link->name().find(target) != std::string::npos)
            matched.push_back(link);
    }
    return matched;
}

FaultHooks::Node
FaultInjector::nodeHooks(int backend) const
{
    const auto slot = static_cast<std::size_t>(backend + 1);
    return backend >= -1 && slot < hooks.nodes.size() ? hooks.nodes[slot]
                                                       : FaultHooks::Node{};
}

void
FaultInjector::scheduleWindow(const FaultEvent &ev, SimTime start)
{
    const SimTime end = start + ev.duration;
    std::string label = faultKindName(ev.kind);
    if (!ev.target.empty())
        label += "(" + ev.target + ")";
    if (ev.backend >= 0)
        label += strprintf("[backend%d]", ev.backend);
    if (ev.kind == FaultKind::TorOutage)
        label += strprintf("[rack%u]", ev.rack);
    windows.push_back({label, start, end});

    const auto applied = [this] {
        ++appliedCount;
        appliedCounter.add();
        sim.countEvent(kApplyEvent);
    };

    switch (ev.kind) {
      case FaultKind::LinkLoss: {
        auto links = matchLinks(ev.target);
        if (links.empty())
            throw ConfigError(strprintf(
                "link_loss target \"%s\" matches no link",
                ev.target.c_str()));
        const double p = ev.lossProbability;
        sim.scheduleAt(start, [links, p, applied] {
            for (net::Link *link : links)
                link->setLossProbability(p);
            applied();
        });
        sim.scheduleAt(end, [links] {
            for (net::Link *link : links)
                link->setLossProbability(0.0);
        });
        break;
      }
      case FaultKind::LinkDegrade: {
        auto links = matchLinks(ev.target);
        if (links.empty())
            throw ConfigError(strprintf(
                "link_degrade target \"%s\" matches no link",
                ev.target.c_str()));
        const double bw = ev.bandwidthFactor;
        const SimDuration extra = ev.extraLatency;
        sim.scheduleAt(start, [links, bw, extra, applied] {
            for (net::Link *link : links) {
                link->setBandwidthFactor(bw);
                link->setExtraPropagation(extra);
            }
            applied();
        });
        sim.scheduleAt(end, [links] {
            for (net::Link *link : links) {
                link->setBandwidthFactor(1.0);
                link->setExtraPropagation(0);
            }
        });
        break;
      }
      case FaultKind::ServerStall: {
        server::ServiceFaultShim *target = nodeHooks(ev.backend).shim;
        if (target == nullptr)
            throw ConfigError(strprintf(
                "server_stall fault (backend %d) needs an attached "
                "server shim",
                ev.backend));
        sim.scheduleAt(start, [target, end, applied] {
            target->beginStall(end);
            applied();
        });
        break;
      }
      case FaultKind::ServerCrash: {
        server::ServiceFaultShim *target = nodeHooks(ev.backend).shim;
        if (target == nullptr)
            throw ConfigError(strprintf(
                "server_crash fault (backend %d) needs an attached "
                "server shim",
                ev.backend));
        const SimDuration warmup = ev.warmup;
        const SimDuration penalty = ev.warmupPenalty;
        sim.scheduleAt(start, [target, end, warmup, penalty, applied] {
            target->beginCrash(end, warmup, penalty);
            applied();
        });
        if (warmup > 0)
            windows.push_back({label + ":warmup", end, end + warmup});
        break;
      }
      case FaultKind::NicInterruptStorm: {
        hw::Nic *target = nodeHooks(ev.backend).nic;
        if (target == nullptr)
            throw ConfigError(strprintf(
                "nic_storm fault (backend %d) needs an attached "
                "server NIC",
                ev.backend));
        const double factor = ev.irqCostFactor;
        sim.scheduleAt(start, [target, factor, applied] {
            target->setIrqLoadFactor(factor);
            applied();
        });
        sim.scheduleAt(end,
                       [target] { target->setIrqLoadFactor(1.0); });
        break;
      }
      case FaultKind::TorOutage: {
        if (ev.rack >= hooks.racks.size() || hooks.racks[ev.rack].empty())
            throw ConfigError(strprintf(
                "tor_outage fault targets rack %u but no rack links "
                "are attached",
                ev.rack));
        // One switch failing over degrades every link behind it in
        // the same instant -- the correlated version of link_degrade
        // plus link_loss.
        const std::vector<net::Link *> links = hooks.racks[ev.rack];
        const double bw = ev.bandwidthFactor;
        const SimDuration extra = ev.extraLatency;
        const double p = ev.lossProbability;
        sim.scheduleAt(start, [links, bw, extra, p, applied] {
            for (net::Link *link : links) {
                link->setBandwidthFactor(bw);
                link->setExtraPropagation(extra);
                link->setLossProbability(p);
            }
            applied();
        });
        sim.scheduleAt(end, [links] {
            for (net::Link *link : links) {
                link->setBandwidthFactor(1.0);
                link->setExtraPropagation(0);
                link->setLossProbability(0.0);
            }
        });
        break;
      }
    }
}

} // namespace fault
} // namespace treadmill
