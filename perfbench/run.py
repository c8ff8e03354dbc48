#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench_run from source into
.bench_build/, runs the deterministic prepare step once per checkout (about
a minute of training, outside every timed region), then measures one run.

An untraced run is SUBRUNS processes of seconds/SUBRUNS each, and each
metric is their mean: tail latency and stand-up time vary from process to
process on the dev host, more than the drift-corrected medians do. A
traced run is one process. Everything perfbench_run prints is passed through; the last line,
one JSON object with correct/attempted/failed/metrics, is the result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("trusted_wire", "hostile_batch", "pgd_attack")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
PREP_DIR = os.path.join(BUILD_ROOT, "prep")
TRACE_DIR = os.path.join(BUILD_ROOT, "traces")
BINARY = os.path.join(CMAKE_DIR, "perfbench_run")
RUN_TIMEOUT_S = 170
SUBRUNS = 3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def bench_env():
    env = dict(os.environ)
    # One pool thread (README.md: the parallel_for race), quiet logs, and
    # none of the library's own trace/metrics sinks or real-MNIST lookups.
    env["SNNSEC_THREADS"] = "1"
    env["SNNSEC_LOG"] = "warn"
    for key in ("SNNSEC_TRACE_FILE", "SNNSEC_METRICS_FILE", "SNNSEC_METRICS",
                "SNNSEC_LOG_FILE", "MNIST_DIR"):
        env.pop(key, None)
    return env


def call(cmd, what, timeout):
    """Run cmd with its output on stderr; exit on failure."""
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=bench_env(), timeout=timeout,
                             stdout=sys.stderr, stderr=sys.stderr)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out")
    if res.returncode != 0:
        fail(f"{what} failed (exit {res.returncode})")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources missing; run from the root of a full checkout")
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                 CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        call(configure, "cmake configure", 300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    call(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
          "perfbench_run"], "build", 800)


def prepare():
    if os.path.isfile(os.path.join(PREP_DIR, "inputs.snnt")):
        return
    tmp = PREP_DIR + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    call([BINARY, "prepare", tmp], "prepare", 600)
    os.replace(tmp, PREP_DIR)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    prepare()
    os.makedirs(TRACE_DIR, exist_ok=True)
    subruns = 1 if args.trace else SUBRUNS
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for _ in range(subruns):
        cmd = [BINARY, "run", "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds / subruns),
               "--trace", str(args.trace), "--prep", PREP_DIR, "--trace-dir",
               TRACE_DIR]
        try:
            res = subprocess.run(cmd, cwd=ROOT, env=bench_env(),
                                 timeout=max(1.0, deadline - time.monotonic()),
                                 stdout=subprocess.PIPE, stderr=sys.stderr,
                                 text=True)
        except subprocess.TimeoutExpired:
            fail("run timed out")
        lines = res.stdout.rstrip("\n").split("\n")
        if res.returncode != 0:
            sys.stderr.write(res.stdout)
            fail(f"perfbench_run failed (exit {res.returncode})")
        try:
            result = json.loads(lines[-1])
        except ValueError:
            sys.stderr.write(res.stdout)
            fail("perfbench_run printed no result")
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail("malformed result")
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        results.append(result)

    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": sum(values) / len(values),
                         "unit": first["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
