#!/usr/bin/env python3
"""Build and run one workload of the torex benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
perfbench/ (its own CMake package, compiled with the library sources in
src/) as a Release build under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs rebuild only what
changed. Then the workload runs in its own single-threaded process:

  alltoall_2d   TorusCommunicator::alltoall, 16x16, 8-byte payloads
  checked_3d    TorusCommunicator::alltoall_checked, 8x8x4, 64-byte payloads,
                seeded transient corruption healed by retransmission
  svc_sessions  torexd SessionManager, 8x8, open-loop multi-tenant plan

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
replays one operation layer by layer and reports the per-layer metrics.
Every output is checked. Standard output ends with one JSON line:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exit codes: 0 when every output checked correct; 3 when a check failed
(the result line is still printed, with "correct": false); 1 or 2, with
no result, when the sources are missing, the build fails, or the
workload does not finish.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("alltoall_2d", "checked_3d", "svc_sessions")
BUILD_TIMEOUT_S = 840
RUN_SLACK_S = 110  # set-up, checks and teardown on top of --seconds
RUN_LIMIT_S = 175


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    """The build tree: $CARGO_TARGET_DIR when it lies inside this tree."""
    base = os.environ.get("CARGO_TARGET_DIR", "")
    if base:
        base = os.path.abspath(os.path.join(ROOT, base))
        if os.path.commonpath([base, ROOT]) != ROOT:
            base = ""
    if not base:
        base = os.path.join(ROOT, ".bench_build")
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed ({done.returncode}): {' '.join(cmd)}")
    binary = os.path.join(out_dir, "torex_perfbench")
    if not os.access(binary, os.X_OK):
        raise RuntimeError(f"build produced no binary at {binary}")
    return binary


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["correct"], bool) or not isinstance(result["metrics"], dict):
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return False
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return False
    return all(isinstance(m, dict) and set(m) == {"value", "unit"}
               and isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= RUN_LIMIT_S - RUN_SLACK_S:
        log("--seed must be >= 0 and --seconds in (0, %d]" % (RUN_LIMIT_S - RUN_SLACK_S))
        return 2

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"torex sources not found under {ROOT}/src; run from a full source tree")
        return 2
    try:
        binary = build(build_dir())
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as error:
        log(f"cannot build the benchmark: {error}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        # subprocess.run kills and reaps the child on timeout.
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, cwd=ROOT,
                              text=True, timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {args.seconds + RUN_SLACK_S:.0f} s")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    # 0: every output checked correct; 3: a check failed, and the result
    # line (with "correct": false) is still printed.
    if done.returncode not in (0, 3) or not valid_result(lines[-1]):
        sys.stderr.write(done.stdout)
        log(f"{args.workload} exited {done.returncode} without a valid result line")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if done.returncode != 0:
        log(f"{args.workload}: a correctness check failed (see stderr)")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
