#!/usr/bin/env python3
"""Build and run the varsim benchmark.

    python3 perfbench/run.py --workload sweep|sampled|campaign \
        --seed N --seconds S --trace 0|1

Run from the root of a varsim checkout. The first run configures and
builds the benchmark (and the varsim libraries it links) in
.bench_build/perfbench; later runs only rebuild what changed. The
last line of standard output is the benchmark's JSON result. Spans of
a traced run are written to .bench_build/traces/.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "varsim_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; serialized by a lock."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no varsim sources under {ROOT}/src: run from a checkout")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target",
                      "varsim_perfbench", "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "sampled", "campaign"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-pins", action="store_true",
                    help="record this seed's digests as the pins")
    args = ap.parse_args()

    build()
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD_ROOT, "work"),
           "--pins", os.path.join(HERE, "pins")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    if args.write_pins:
        cmd.append("--write-pins")
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
