#!/usr/bin/env python3
"""The repository benchmark, as one command.

    python3 perfbench/run.py --workload batch_chip|batch_unique
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the dsmt library, dsmt_serve and
the benchmark program from the checkout's sources (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
then runs one workload. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; everything else (build
log, per-burst figures, server counters) goes to standard error.

Exit status: 0 when the run measured and every reply was verified; non-zero
otherwise, and then no result line is printed unless the run measured.
"""
import argparse
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch_chip", "batch_unique")
# A run must end within 180 s; stop short of that.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark targets; False on failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "dsmt_serve", "perfbench_generator_test"])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        return 2
    # Sockets live here: keep the path relative so it stays short.
    work_dir = os.path.relpath(os.path.join(build_dir, "run"))
    os.makedirs(work_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--serve", os.path.join(build_dir, "dsmt_serve"),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2
    finally:
        # Sockets, batch documents and span files a failed run left behind;
        # the readable trace-*.tsv files stay.
        for pattern in ("*.sock", "batch-*.json", "spans-*.bin"):
            for path in glob.glob(os.path.join(work_dir, pattern)):
                os.remove(path)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench exited {proc.returncode} without a result")
        return proc.returncode or 2
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
