#!/usr/bin/env python3
"""Repository benchmark: simulator speed and simulated tail of NetClone.

Usage (from the repository root):

    python3 perfbench/run.py --workload rack_exp25 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck

Builds perfbench/ (and the simulator sources it compiles) into
.bench_build/, runs one measurement and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. --selfcheck runs every workload on a tiny simulated window
and checks the emitted metric names and units against BENCHMARK.json and
that a wrong expected digest fails the run. perfbench/README.md describes
the workloads and defines every metric.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
REPORT_DIR = os.path.join(BUILD_DIR, "reports")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("rack_exp25", "pod_chain", "kv_rw")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Self-check window: 0.2 ms warm-up, 1 ms measured, the usual 10 ms drain
# (a jittered SCAN runs 1.5 ms; every request must complete).
SELFCHECK_WINDOW_US = "200,1000,10000"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    """The default engine and burst mode: no NETCLONE_* overrides."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("NETCLONE_")}


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S, env=child_env())
        except (OSError, subprocess.TimeoutExpired) as err:
            log("perfbench: build step failed: %s" % err)
            return False
        if proc.returncode != 0:
            log(proc.stdout)
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def expected_digest(workload, seed):
    """Recorded run digest for (workload, seed) at the default window."""
    with open(DIGESTS) as f:
        table = json.load(f)
    return table.get(workload, {}).get(str(seed))


def measure(workload, seed, seconds, trace, window=None, expect=None):
    """Runs the binary once; returns (stdout lines, result) or None."""
    os.makedirs(REPORT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--report", os.path.join(REPORT_DIR, tag + ".json")]
    if trace:
        cmd += ["--spans", os.path.join(REPORT_DIR, workload + ".spans.csv")]
    if window is not None:
        cmd += ["--window-us", window]
    if expect is not None:
        cmd += ["--expect-digest", str(expect)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=child_env())
    except (OSError, subprocess.TimeoutExpired) as err:
        log("perfbench: %s" % err)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stdout + proc.stderr)
        log("perfbench: measurement exited with %d" % proc.returncode)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log(proc.stdout)
        log("perfbench: no result line")
        return None
    return lines, result


def selfcheck():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            got = measure(workload, 1, 1, trace, window=SELFCHECK_WINDOW_US)
            if got is None:
                problems.append("%s trace %d: no result" % (workload, trace))
                continue
            result = got[1]
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s trace %d: run failed its checks"
                                % (workload, trace))
            want = {m["name"]: m["unit"] for m in spec[key]}
            have = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != have:
                problems.append("%s trace %d: metrics %s, expected %s"
                                % (workload, trace, sorted(have.items()),
                                   sorted(want.items())))
        # A wrong expected digest must fail the run and every request.
        got = measure(workload, 1, 1, 0, window=SELFCHECK_WINDOW_US,
                      expect=1)
        if got is None or got[1]["correct"] or \
                got[1]["failed"] != got[1]["attempted"]:
            problems.append("%s: a wrong expected digest did not fail the "
                            "run" % workload)
    for p in problems:
        log("selfcheck: " + p)
    print("selfcheck: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.selfcheck:
        return selfcheck()
    got = measure(args.workload, args.seed, args.seconds, args.trace,
                  expect=expected_digest(args.workload, args.seed))
    if got is None:
        return 1
    print("\n".join(got[0]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
