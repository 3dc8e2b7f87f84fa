/**
 * @file
 * Shared harness of the study-level benchmark.
 *
 * One process runs one whole study (one workload, one set of inputs)
 * and prints one JSON line describing it: the host-time end-to-end
 * figures, the per-layer counts read back from the simulator's
 * returned results, the output checks, and a digest of every
 * simulated output. run.py repeats processes and aggregates.
 *
 * Spans are recorded only in the traced binary (STUDYBENCH_TRACED);
 * in the untraced binary a Span is an empty object, so the end-to-end
 * figures carry no tracing cost.
 */

#ifndef STUDYBENCH_STUDY_H_
#define STUDYBENCH_STUDY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "util/json.h"

namespace studybench {

using namespace treadmill;

/** Monotonic wall clock, seconds (same clock as Python's monotonic). */
double wallNow();
/** Process user+sys CPU time, seconds (all threads). */
double cpuNow();
/** Process peak resident set size, MB. */
double peakRssMb();

/** 64-bit FNV-1a-style digest (word at a time) of simulated outputs. */
class Digest
{
  public:
    void add(const std::string &bytes);
    void add(double value);
    void add(std::uint64_t value);
    std::string hex() const;

  private:
    void mix(const void *data, std::size_t size);
    std::uint64_t state = 0xcbf29ce484222325ull;
};

/** One recorded span: a timed call into a layer's public function. */
struct SpanRecord {
    std::string name; ///< "<layer>.<function>", e.g. "core.runExperiment"
    double start = 0.0;
    double end = 0.0;
    int parent = -1; ///< Index of the enclosing span, -1 for none.
    int run = -1;    ///< Plan index of the run, -1 when not per-run.
};

/** True in the traced binary. */
constexpr bool kTraced =
#ifdef STUDYBENCH_TRACED
    true;
#else
    false;
#endif

/**
 * RAII span around one public call. Spans nest by construction order
 * on the main thread; worker-thread spans pass their parent index
 * explicitly.
 */
class Span
{
  public:
    explicit Span(const char *name, int run = -1);
    /** A span on another thread with an explicit parent. */
    Span(const char *name, int run, int parent);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Index of this span in the trace (-1 when untraced). */
    int index() const { return slot; }

  private:
    int slot = -1;
    bool mainThread = true;
};

/** All spans recorded so far (empty when untraced). */
std::vector<SpanRecord> recordedSpans();
/** Elapsed seconds of every closed span named @p name. */
std::vector<double> spanDurations(const std::string &name);
/** Sum of spanDurations(@p name). */
double spanSeconds(const std::string &name);

/** Counts read from returned ExperimentResults, summed over runs. */
struct LayerCounts {
    std::uint64_t requests = 0; ///< Sum of client*.received.
    std::uint64_t events = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t packets = 0;
    std::uint64_t freqTransitions = 0;
    std::uint64_t served = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t lbDispatched = 0;
    std::uint64_t lbQueued = 0;
    std::uint64_t hedges = 0;
    std::uint64_t hedgeWins = 0;
    std::uint64_t stalled = 0;
    std::uint64_t spans = 0;

    /** Add one run's metrics-registry snapshot. */
    void addMetrics(const json::Value &metrics);
    /** addMetrics() plus the result's own fields. */
    void addResult(const core::ExperimentResult &result);
};

/** Per-run health: threw, hit the deadline, or left an instance short. */
bool runFailed(const core::ExperimentResult &result);

/** Fold a result's simulated outputs into a digest. */
void digestResult(Digest &digest, const core::ExperimentResult &result);

/** What one study process reports. */
struct StudyReport {
    std::uint64_t runsAttempted = 0;
    std::uint64_t runsFailed = 0;
    std::map<std::string, bool> checks;
    Digest digest;

    /** Time of the first simulation call (end of set-up). */
    double simStart = -1.0;
    /** Host wall and CPU seconds inside simulation calls. */
    double simWallS = 0.0;
    double simCpuS = 0.0;
    std::uint64_t allocsInSim = 0;
    /** Wall seconds of the last output check. */
    double studyEnd = 0.0;
    double cpuAtStart = 0.0;
    double cpuAtEnd = 0.0;

    LayerCounts counts;
    /** Workload-specific per-layer figures (name -> value). */
    std::map<std::string, double> layer;

    /** Record one output check. */
    void check(const std::string &name, bool ok);
};

/**
 * Brackets a simulation call: marks the end of set-up on first use
 * and accumulates wall, CPU, and allocation counts.
 */
class SimCall
{
  public:
    explicit SimCall(StudyReport &report);
    ~SimCall();
    SimCall(const SimCall &) = delete;
    SimCall &operator=(const SimCall &) = delete;

  private:
    StudyReport &rep;
    double wall0;
    double cpu0;
    std::uint64_t allocs0;
};

/** Everything a workload receives. */
struct StudyContext {
    /** The generated inputs (seeds and sizes) as a JSON object. */
    json::Value inputs;
    /** Scratch directory for exports and archives. */
    std::string workDir;
    /** Output mutations for the harness self-test. */
    bool tamperShape = false;
    /** Also cross-check against the library's own driver (self-test). */
    bool crossCheck = false;

    std::uint64_t seed(const std::string &key) const;
    double number(const std::string &key) const;
    unsigned count(const std::string &key) const;
};

StudyReport attributionSweep(const StudyContext &ctx);
StudyReport clusterProvenance(const StudyContext &ctx);
StudyReport capacityArchive(const StudyContext &ctx);

} // namespace studybench

#endif // STUDYBENCH_STUDY_H_
