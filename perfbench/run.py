#!/usr/bin/env python3
"""Repo benchmark: build from this checkout, run one workload, print metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet-hot --seed 1 --seconds 40 \
        --trace 0

Builds the CoTS libraries, examples/ingest_server and perfbench_runner in
Release (the tier-1 configuration, tests and paper benches left out) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
runner. Build output goes to stderr; the runner's report goes to stdout,
and its last line is the result object. Reports and traces land in
.bench_out/. Exits non-zero when the build fails, the checker finds a
violation, or the result does not match BENCHMARK.json. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNNER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    # A build tree configured from another checkout cannot be reused.
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(HERE):
            shutil.rmtree(build_dir)
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_runner",
           "ingest_server", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def declared_metrics():
    """(end_to_end, per_layer) names from BENCHMARK.json, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1
    runner = os.path.join(build_dir, "perfbench_runner")
    server = os.path.join(build_dir, "cots", "examples", "ingest_server")
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server-bin", server, "--out-dir", ".bench_out",
           "--commit", commit()]
    # Own process group, so a timeout also stops the ingest_server the
    # runner spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"runner exceeded {RUNNER_TIMEOUT_S}s")
        return 1
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("runner printed no result")
        return 1

    declared = declared_metrics()
    if declared is not None:
        want = set(declared[1] if args.trace else declared[0])
        got = set(result["metrics"])
        if got != want:
            log(f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(want - got)}, undeclared {sorted(got - want)}")
            return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
