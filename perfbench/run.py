#!/usr/bin/env python3
"""Build perfbench from this checkout's sources and run one measurement.

    python3 perfbench/run.py --workload embedded|remote_sync|fleet_churn \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  The first run configures and builds the
package under .bench_build/perfbench (Release); later runs rebuild only what
changed.  Every run then executes the benchmark's own tests and the
benchmark.  The benchmark's report goes to stdout and its last line is the
result as one JSON object.  When the build, the tests, an outcome check or
the result's metric names (checked against BENCHMARK.json) fail, the script
exits non-zero and prints no result.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "results"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def note(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def call(command, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as error:
        note(f"{command[0]} failed: {error}")
        return False
    return done.returncode == 0


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        if not call(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    return call(["cmake", "--build", str(BUILD), "-j", jobs], BUILD_TIMEOUT_S)


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the program and benchmark sources (path and bytes)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_problem(line, trace):
    """Why the last stdout line is not a valid result, or None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"unexpected keys {sorted(result)}"
    if result["correct"] is not True or result["attempted"] < 1:
        return "result is not correct or attempted nothing"
    expected = expected_metrics(trace)
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        missing = sorted(set(expected) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(expected))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["embedded", "remote_sync", "fleet_churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        note("build failed")
        return 1
    if not call([str(BUILD / "perfbench_tests")], RUN_TIMEOUT_S):
        note("the benchmark's own tests failed")
        return 1

    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(RESULTS),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        note(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        note(f"benchmark exited with code {done.returncode}")
        return 1
    problem = result_problem(lines[-1], args.trace)
    if problem is not None:
        sys.stderr.write(done.stdout)
        note(problem)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
