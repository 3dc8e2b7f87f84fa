#include "study.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "util/alloc_counter.h"
#include "util/error.h"

namespace studybench {

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

// ---- Digest ----------------------------------------------------------

void
Digest::mix(const void *data, std::size_t size)
{
    // FNV-1a over 64-bit little-endian words, then the tail bytes:
    // export documents run to tens of MB per study.
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, bytes + i, 8);
        state ^= word;
        state *= 0x100000001b3ull;
    }
    for (; i < size; ++i) {
        state ^= bytes[i];
        state *= 0x100000001b3ull;
    }
}

void
Digest::add(const std::string &bytes)
{
    add(static_cast<std::uint64_t>(bytes.size()));
    mix(bytes.data(), bytes.size());
}

void
Digest::add(double value)
{
    mix(&value, sizeof value);
}

void
Digest::add(std::uint64_t value)
{
    mix(&value, sizeof value);
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(state));
    return buf;
}

// ---- Spans -----------------------------------------------------------

namespace {

std::mutex gSpanMutex;
std::vector<SpanRecord> gSpans;
thread_local std::vector<int> tOpen;

} // namespace

Span::Span(const char *name, int run)
{
    if constexpr (kTraced) {
        const double now = wallNow();
        std::lock_guard<std::mutex> lock(gSpanMutex);
        slot = static_cast<int>(gSpans.size());
        gSpans.push_back(
            {name, now, 0.0, tOpen.empty() ? -1 : tOpen.back(), run});
        tOpen.push_back(slot);
    } else {
        (void)name;
        (void)run;
    }
}

Span::Span(const char *name, int run, int parent) : mainThread(false)
{
    if constexpr (kTraced) {
        const double now = wallNow();
        std::lock_guard<std::mutex> lock(gSpanMutex);
        slot = static_cast<int>(gSpans.size());
        gSpans.push_back({name, now, 0.0, parent, run});
    } else {
        (void)name;
        (void)run;
        (void)parent;
    }
}

Span::~Span()
{
    if (slot < 0)
        return;
    const double now = wallNow();
    {
        std::lock_guard<std::mutex> lock(gSpanMutex);
        gSpans[static_cast<std::size_t>(slot)].end = now;
    }
    if (mainThread && !tOpen.empty() && tOpen.back() == slot)
        tOpen.pop_back();
}

std::vector<SpanRecord>
recordedSpans()
{
    std::lock_guard<std::mutex> lock(gSpanMutex);
    return gSpans;
}

std::vector<double>
spanDurations(const std::string &name)
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(gSpanMutex);
    for (const SpanRecord &s : gSpans)
        if (s.name == name && s.end > 0.0)
            out.push_back(s.end - s.start);
    return out;
}

double
spanSeconds(const std::string &name)
{
    double total = 0.0;
    for (double d : spanDurations(name))
        total += d;
    return total;
}

// ---- Counts ----------------------------------------------------------

namespace {

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

} // namespace

void
LayerCounts::addMetrics(const json::Value &metrics)
{
    for (const auto &[name, value] : metrics.at("counters").asObject()) {
        const auto n = static_cast<std::uint64_t>(value.asInt());
        if (startsWith(name, "client")) {
            if (endsWith(name, ".received"))
                requests += n;
            else if (endsWith(name, ".hedges"))
                hedges += n;
            else if (endsWith(name, ".hedge_wins"))
                hedgeWins += n;
        } else if (name == "sim.events_executed") {
            events += n;
        } else if (name == "sim.events_cancelled") {
            cancelled += n;
        } else if (startsWith(name, "net.") && endsWith(name, ".packets")) {
            packets += n;
        } else if (name == "lb.dispatched") {
            lbDispatched += n;
        } else if (name == "lb.queued") {
            lbQueued += n;
        } else if (endsWith(name, ".fault.stalled")) {
            stalled += n;
        } else if (endsWith(name, ".served")) {
            served += n;
        } else if (endsWith(name, ".hits")) {
            hits += n;
        } else if (endsWith(name, ".misses")) {
            misses += n;
        }
    }
}

void
LayerCounts::addResult(const core::ExperimentResult &result)
{
    addMetrics(result.metrics);
    freqTransitions += result.frequencyTransitions;
    spans += result.spans.size();
}

bool
runFailed(const core::ExperimentResult &result)
{
    return result.deadlineHit ||
           result.instancesAtTarget() < result.instances.size();
}

void
digestResult(Digest &digest, const core::ExperimentResult &result)
{
    digest.add(result.metrics.dump());
    for (const core::InstanceReport &inst : result.instances) {
        digest.add(inst.measured);
        for (const auto &[q, v] : inst.quantiles) {
            digest.add(q);
            digest.add(v);
        }
    }
    digest.add(result.achievedRps);
    digest.add(result.serverUtilization);
    digest.add(result.frequencyTransitions);
    digest.add(static_cast<std::uint64_t>(result.simulatedTime));
    digest.add(static_cast<std::uint64_t>(result.groundTruthUs.size()));
    for (std::uint64_t s : result.backendServed)
        digest.add(s);
}

// ---- Report and calls ------------------------------------------------

void
StudyReport::check(const std::string &name, bool ok)
{
    auto it = checks.find(name);
    if (it == checks.end())
        checks.emplace(name, ok);
    else
        it->second = it->second && ok;
}

SimCall::SimCall(StudyReport &report)
    : rep(report), wall0(wallNow()), cpu0(cpuNow()),
      allocs0(util::allocCount())
{
    if (rep.simStart < 0.0) {
        rep.simStart = wall0;
        rep.cpuAtStart = cpu0;
    }
}

SimCall::~SimCall()
{
    rep.simWallS += wallNow() - wall0;
    rep.simCpuS += cpuNow() - cpu0;
    rep.allocsInSim += util::allocCount() - allocs0;
}

std::uint64_t
StudyContext::seed(const std::string &key) const
{
    return static_cast<std::uint64_t>(inputs.at(key).asNumber());
}

double
StudyContext::number(const std::string &key) const
{
    return inputs.at(key).asNumber();
}

unsigned
StudyContext::count(const std::string &key) const
{
    const double v = inputs.at(key).asNumber();
    if (v < 1.0)
        throw ConfigError("input '" + key + "' must be >= 1");
    return static_cast<unsigned>(v);
}

} // namespace studybench
