#!/usr/bin/env python3
"""Self-test of the study-level benchmark harness, at a tiny size.

    python3 studybench/selftest.py

For every workload it runs run.py untraced and traced and asserts that
every end-to-end and per-layer metric is printed with its unit (and
appears in the JSON result), that the clean run passes every check, and
that a tampered output -- a flipped digest or a failed shape check --
raises failed_run_frac and clears "correct". It also asserts that
BENCHMARK.json names exactly the metrics run.py reports, and (via
--cross-check) that the attribution sweep's observations are the ones
analysis::collectObservations produces. Exit code 0 when all pass.
"""

import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True
import run  # noqa: E402

SEED = 3
FAILURES = []


def expect(ok, what):
    print("  %s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        FAILURES.append(what)


def bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0",
           "--trace", str(trace), "--size", "tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run.py exited %d for %s" % (proc.returncode,
                                                      " ".join(cmd)))
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed(lines, name, unit):
    """True when a report line shows @p name with a value and @p unit."""
    pat = re.compile(r"^\s+%s\s+\S+\s+%s$" % (re.escape(name),
                                              re.escape(unit)))
    return any(pat.match(l) for l in lines)


def failed_frac(result):
    return result["failed"] / result["attempted"]


def check_manifest():
    print("BENCHMARK.json", flush=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    expect([w["name"] for w in manifest["workloads"]] ==
           list(run.WORKLOADS), "workloads match run.py")
    expect([(m["name"], m["unit"], m["better"])
            for m in manifest["end_to_end"]] == run.END_TO_END,
           "end_to_end metrics match run.py")
    expect([(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] ==
           [(n, u, b) for n, u, b, _ in run.PER_LAYER],
           "per_layer metrics match run.py")


def check_workload(workload):
    print(workload, flush=True)
    extra = ["--cross-check"] if workload == run.ATTR else []
    lines, result = bench(workload, 0, *extra)
    expect(result["correct"] and result["failed"] == 0,
           "clean run passes every output check")
    names = [n for n, _, _ in run.END_TO_END]
    expect(sorted(result["metrics"]) == sorted(names),
           "untraced JSON carries exactly the end-to-end metrics")
    for name, unit, _ in run.END_TO_END + [run.FAILED_RUN_FRAC + (None,)]:
        expect(printed(lines, name, unit), "prints %s [%s]" % (name, unit))
    if workload == run.ATTR:
        expect(any("matches_collect_observations" in l and l.endswith("ok")
                   for l in lines),
               "observations match analysis::collectObservations")

    lines, result = bench(workload, 1)
    expect(result["correct"], "traced run passes every output check")
    expect(sorted(result["metrics"]) ==
           sorted(n for n, _, _, _ in run.PER_LAYER),
           "traced JSON carries exactly the per-layer metrics")
    for name, unit, _, applies in run.PER_LAYER:
        if workload in applies:
            expect(printed(lines, name, unit),
                   "prints %s [%s]" % (name, unit))
    expect(any("digest" in l and "studies identical" in l for l in lines),
           "prints the output digest")

    for tamper in ("digest", "shape"):
        _, result = bench(workload, 0, "--tamper", tamper)
        expect(not result["correct"] and failed_frac(result) > 0,
               "tampered %s raises failed_run_frac (%.3f)"
               % (tamper, failed_frac(result)))


def main():
    check_manifest()
    for workload in run.WORKLOADS:
        check_workload(workload)
    if FAILURES:
        print("%d self-test failures" % len(FAILURES))
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
