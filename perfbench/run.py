#!/usr/bin/env python3
"""XRBench perf benchmark launcher.

Builds the benchmark binary (and the library under test) from the sources
in this checkout into .bench_build/, then runs one workload:

    python3 perfbench/run.py --workload trial_sweep --seed 3 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a layer-by-layer replay (its Chrome trace-event JSON lands in
.bench_build/traces/). The last line of stdout is the JSON result. The exit
code is non-zero when the build fails, an output is wrong, or the exact
simulated counts of a traced run differ from an earlier traced run of the
same binary, workload and seed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_xr")
WORKLOADS = ("design_sweep", "trial_sweep", "fleet_serve")
# Per-layer metrics that are exact simulated counts: they must repeat
# bit for bit across runs of one binary at one seed.
EXACT = ("costmodel.layer_levels", "runtime.cost_table.builds",
         "runtime.inferences", "fleet.admitted_share")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def check_sources():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the XRBench sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from a full checkout")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_xr",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def binary_id():
    with open(BINARY, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def check_exact_counts(args, result):
    """Compares this traced run's exact counts with the first traced run of
    the same binary, workload and seed, recording them when new."""
    path = os.path.join(BUILD, "exact_counts.json")
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    key = "%s/%s/%d" % (binary_id(), args.workload, args.seed)
    counts = {k: result["metrics"][k]["value"] for k in EXACT}
    if key not in seen:
        seen[key] = counts
        with open(path, "w") as f:
            json.dump(seen, f, indent=1, sort_keys=True)
        return True
    if seen[key] != counts:
        print("perfbench: exact counts differ from an earlier run: %s vs %s"
              % (counts, seen[key]), file=sys.stderr)
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    check_sources()
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # One build at a time; concurrent runs wait here.
        fcntl.flock(lock, fcntl.LOCK_EX)
        build()
        fcntl.flock(lock, fcntl.LOCK_UN)

    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected_digests.txt"),
           "--rev", git_rev()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("XRBENCH_")}
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        has_result = "correct" in result
    except ValueError:
        has_result = False
    if not has_result:
        sys.stderr.write(done.stdout)
        fail("benchmark failed (exit %d) without a result" % done.returncode)
    code = done.returncode
    if code == 0 and args.trace and not check_exact_counts(args, result):
        result["correct"] = False
        lines[-1] = json.dumps(result)
        code = 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
