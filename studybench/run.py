#!/usr/bin/env python3
"""Study-level benchmark of the Treadmill simulator.

Usage (from the repository root):

    python3 studybench/run.py --workload attribution_sweep --seed 1 \
        --seconds 20 --trace 0

Builds studybench/ (which compiles ../src unchanged) into .bench_build,
derives every study input from --seed, and runs whole studies -- one
process each, back to back, closed loop -- until --seconds have passed
(at least MIN_STUDIES). Every study's output checks and its digest of
all simulated outputs are verified; the digest must be identical across
every study of the run, traced or not.

--trace 0 reports the end-to-end metrics (medians over the untraced
studies). --trace 1 alternates untraced and traced studies and reports
the per-layer metrics (medians over the traced studies), each layer's
self time, and the tracing overhead. The last line of stdout is the
JSON result.

See studybench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
MIN_STUDIES = 3
STUDY_TIMEOUT_S = 170

WORKLOADS = ("attribution_sweep", "cluster_provenance", "capacity_archive")
ATTR, CLUSTER, CAPACITY = WORKLOADS

# (name, unit, better) -- end-to-end, host time, every workload.
END_TO_END = [
    ("study_s", "s", "lower"),
    ("sim_req_per_s", "req/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]
# failed_run_frac is printed with the end-to-end table; in the JSON
# result it is carried by "attempted"/"failed" (it is 0 on a healthy run).
FAILED_RUN_FRAC = ("failed_run_frac", "ratio")

# (name, unit, better, workloads it applies to) -- per layer, traced
# studies.
ALL = WORKLOADS
PER_LAYER = [
    ("sim.events_per_req", "count/req", "lower", ALL),
    ("sim.host_ns_per_event", "ns", "lower", ALL),
    ("sim.cancelled_per_req", "count/req", "lower", ALL),
    ("core.allocs_per_req", "count/req", "lower", ALL),
    ("core.run_ms_p50", "ms", "lower", (ATTR, CLUSTER)),
    ("core.run_ms_max", "ms", "lower", (ATTR, CLUSTER)),
    ("net.packets_per_req", "count/req", "lower", ALL),
    ("hw.freq_transitions_per_req", "count/req", "lower", ALL),
    ("server.served_per_req", "count/req", "lower", ALL),
    ("server.hit_ratio", "ratio", "higher", ALL),
    ("exec.cpu_util", "ratio", "higher", (ATTR, CAPACITY)),
    ("exec.tail_s", "s", "lower", (ATTR,)),
    ("lb.dispatched_per_req", "count/req", "lower", (CLUSTER,)),
    ("lb.queued_per_req", "count/req", "lower", (CLUSTER,)),
    ("client.hedges_per_req", "count/req", "lower", (CLUSTER,)),
    ("client.hedge_win_ratio", "ratio", "higher", (CLUSTER,)),
    ("fault.stalled_per_req", "count/req", "lower", (CLUSTER,)),
    ("obs.spans_per_req", "count/req", "lower", (CLUSTER,)),
    ("obs.export_s", "s", "lower", (CLUSTER,)),
    ("obs.export_mb", "MB", "lower", (CLUSTER,)),
    ("analysis.provenance_s", "s", "lower", (CLUSTER,)),
    ("regress.fit_s", "s", "lower", ALL),
    ("regress.fits", "count", "lower", ALL),
    ("store.bytes_per_run", "B", "lower", (CAPACITY,)),
    ("store.verify_s", "s", "lower", (CAPACITY,)),
    ("store.refit_s", "s", "lower", (CAPACITY,)),
    ("drive.search_s", "s", "lower", (CAPACITY,)),
    ("drive.search_runs", "count", "lower", (CAPACITY,)),
    ("drive.factorial_s", "s", "lower", (CAPACITY,)),
    ("drive.refits_overlapped", "count", "higher", (CAPACITY,)),
    # Self time per layer: span duration minus the time covered by
    # child spans ("bench" is the harness itself: checks and digests).
    ("self.bench_s", "s", "lower", ALL),
    ("self.core_s", "s", "lower", ALL),
    ("self.exec_s", "s", "lower", (ATTR,)),
    ("self.regress_s", "s", "lower", (ATTR, CLUSTER)),
    ("self.analysis_s", "s", "lower", (CLUSTER,)),
    ("self.obs_s", "s", "lower", (CLUSTER,)),
    ("self.drive_s", "s", "lower", (CAPACITY,)),
    ("self.store_s", "s", "lower", (CAPACITY,)),
    # Traced vs untraced study_s, as a fraction of untraced.
    ("trace.overhead_frac", "ratio", "lower", ALL),
]


def study_inputs(workload, seed, size):
    """Every seed and size one study uses, generated from the seed."""
    rng = random.Random("%s:%d" % (workload, seed))

    def seeds(n):
        return [rng.randrange(1, 2**31) for _ in range(n)]

    tiny = size == "tiny"
    if workload == ATTR:
        return {
            "samples": 2000 if tiny else 6000,
            "reps_per_config": 4 if tiny else 8,
            "replicates": 30 if tiny else 60,
            "workers": 4,
            "sweep_seed": seeds(1)[0],
        }
    if workload == CLUSTER:
        reps = 2 if tiny else 6
        return {
            "samples": 600 if tiny else 500,
            "span_sample_every": 8,
            "reps_per_cell": reps,
            "replicates": 30 if tiny else 100,
            "fit_seed": seeds(1)[0],
            "run_seeds": seeds(4 * reps),
        }
    reps = 2 if tiny else 4
    return {
        "samples": 800 if tiny else 2000,
        "reps_per_cell": reps,
        "replicates": 30 if tiny else 100,
        "slo_us": 300.0,
        # Three simulation workers plus StudyDriver's consumer thread.
        "workers": 3,
        "search_seed": seeds(1)[0],
        "fit_seed": seeds(1)[0],
        "factorial_seeds": seeds(4 * reps),
    }


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build both binaries; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("studybench: build failed: %s" % " ".join(cmd))
            return False
    return True


def run_study(binary, workload, inputs, work_dir, extra):
    """One study in a fresh process; returns its parsed JSON line."""
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--inputs",
           json.dumps(inputs, sort_keys=True), "--work", work_dir] + extra
    t0 = time.monotonic_ns()
    cmd += ["--t0", str(t0)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=STUDY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("%s study timed out" % workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if err.strip():
        log(err.rstrip())
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s study exited %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--tamper", choices=("digest", "shape"),
                    help="corrupt one study's output (harness self-test)")
    ap.add_argument("--cross-check", action="store_true",
                    help="also compare against the library's own sweep")
    args = ap.parse_args(argv)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "studybench")
    if not build(build_dir):
        return 1
    plain = os.path.join(build_dir, "studybench")
    traced = os.path.join(build_dir, "studybench_traced")
    work_root = os.path.join(build_dir, "work-%d" % os.getpid())
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)

    inputs = study_inputs(args.workload, args.seed, args.size)
    extra = []
    if args.tamper == "shape":
        extra += ["--tamper", "shape"]
    if args.cross_check:
        extra.append("--cross-check")

    # Closed loop: the next study starts when the previous one ends.
    plain_runs, traced_runs = [], []
    start = time.monotonic()
    try:
        while True:
            n = len(plain_runs) + len(traced_runs)
            use_traced = args.trace == 1 and n % 2 == 1
            binary = traced if use_traced else plain
            study_extra = list(extra)
            if use_traced:
                study_extra += ["--spans-out", os.path.join(
                    spans_dir, args.workload + ".json")]
            rec = run_study(binary, args.workload, inputs,
                            os.path.join(work_root, str(n)), study_extra)
            (traced_runs if use_traced else plain_runs).append(rec)
            enough = len(plain_runs) >= MIN_STUDIES and (
                args.trace == 0 or len(traced_runs) >= MIN_STUDIES - 1)
            if enough and time.monotonic() - start >= args.seconds:
                break
    except RuntimeError as e:
        log("studybench: %s" % e)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    studies = plain_runs + traced_runs
    if args.tamper == "digest":
        d = studies[-1]["digest"]
        studies[-1]["digest"] = d[:-1] + ("0" if d[-1] != "0" else "1")

    # Output checks and digest agreement: a study whose digest differs
    # from the most common one fails all of its runs.
    digests = [s["digest"] for s in studies]
    reference = max(set(digests), key=digests.count)
    attempted = sum(s["runs_attempted"] for s in studies)
    failed = 0
    for s in studies:
        if s["digest"] != reference:
            failed += s["runs_attempted"]
        else:
            failed += s["runs_failed"]
    correct = failed == 0 and all(s["error"] is None for s in studies)

    print("studybench %s seed %d: %d untraced + %d traced studies in "
          "%.1f s" % (args.workload, args.seed, len(plain_runs),
                      len(traced_runs), time.monotonic() - start))
    print("  digest %s (%d/%d studies identical)"
          % (reference, digests.count(reference), len(digests)))
    checks = {}
    for s in studies:
        for name, ok in s["checks"].items():
            checks[name] = checks.get(name, True) and ok
        if s["error"]:
            print("  error: %s" % s["error"])
    for name in sorted(checks):
        print("  check %-34s %s" % (name, "ok" if checks[name] else "FAILED"))

    metrics = {}
    print("end-to-end (median of %d untraced studies):" % len(plain_runs))
    for name, unit, _ in END_TO_END:
        value = median([s["e2e"][name] for s in plain_runs])
        print("  %-30s %14.6g %s" % (name, value, unit))
        if args.trace == 0:
            metrics[name] = {"value": value, "unit": unit}
    print("  %-30s %14.6g %s" % (FAILED_RUN_FRAC[0], failed / attempted,
                                FAILED_RUN_FRAC[1]))

    if args.trace == 1:
        layer = {}
        for name in {n for s in traced_runs for n in s["layer"]}:
            layer[name] = median([s["layer"].get(name, 0.0)
                                  for s in traced_runs])
        for name in {n for s in traced_runs for n in s["self_s"]}:
            layer["self.%s_s" % name] = median(
                [s["self_s"].get(name, 0.0) for s in traced_runs])
        untraced_s = median([s["e2e"]["study_s"] for s in plain_runs])
        traced_s = median([s["e2e"]["study_s"] for s in traced_runs])
        layer["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        print("per-layer (median of %d traced studies):" % len(traced_runs))
        for name, unit, _, applies in PER_LAYER:
            value = layer.get(name, 0.0)
            if args.workload in applies:
                print("  %-30s %14.6g %s" % (name, value, unit))
            else:
                print("  %-30s %14s %s" % (name, "n/a", unit))
            metrics[name] = {"value": value, "unit": unit}
        print("  traced study_s %.4g s vs untraced %.4g s; spans in %s"
              % (traced_s, untraced_s,
                 os.path.join(spans_dir, args.workload + ".json")))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
