#!/usr/bin/env python3
"""Builds memfs_bench from this checkout and runs one workload of it.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset. memfs_bench's tables go to stdout, build
and progress output to stderr. The last line of stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": value, "unit": unit}, ...}}

holding the metrics BENCHMARK.json lists as "end_to_end" (--trace 0) or
"per_layer" (--trace 1), each the median over memfs_bench's plain reps or,
for a metric only the traced run has, that run's value.
"attempted" counts VFS calls over those reps; failed calls and reads with
the wrong content are "failed". A correctness gate that fails gives
"correct": false. A build that fails, a crash, a run that overstays its time
limit or a listed metric memfs_bench did not report exits nonzero without
the JSON line.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "..", "BENCHMARK.json")
# memfs_bench runs at least this many plain reps, then more until --seconds.
MIN_REPS = 5
# A run must end within 180 s; the budget below leaves room to report.
RUN_LIMIT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "--target", "memfs_bench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def run_bench(argv, timeout):
    """Runs memfs_bench; kills it on timeout (its children die with it)."""
    proc = subprocess.Popen(argv)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1

    result_path = os.path.join(build_dir, "result-%d.json" % os.getpid())
    started = time.monotonic()
    code = run_bench([os.path.join(build_dir, "memfs_bench"),
                      "--workload=" + args.workload,
                      "--seed=%d" % args.seed,
                      "--seconds=%d" % args.seconds,
                      "--reps=%d" % MIN_REPS,
                      "--trace=%d" % args.trace,
                      "--json=" + result_path], RUN_LIMIT_S)
    if code not in (0, 1):
        print("run.py: memfs_bench %s after %.0f s" %
              ("timed out" if code is None else "exited %d" % code,
               time.monotonic() - started), file=sys.stderr)
        return 1
    try:
        with open(result_path) as f:
            result = json.load(f)
    finally:
        if os.path.exists(result_path):
            os.remove(result_path)
    workload = result["workloads"][args.workload]
    reported = dict(workload["end_to_end"], **workload["per_layer"])
    missing = [name for name in wanted if name not in reported]
    if missing:
        print("run.py: memfs_bench did not report " + ", ".join(missing),
              file=sys.stderr)
        return 1
    metrics = {name: {"value": reported[name]["value"],
                      "unit": reported[name]["unit"]} for name in wanted}
    print(json.dumps({"correct": code == 0 and workload["correct"],
                      "attempted": workload["attempted"],
                      "failed": workload["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
