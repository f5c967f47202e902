#!/usr/bin/env python3
"""End-to-end benchmark of the CMOS-NEM flow.

    python3 perfbench/run.py --workload flow-suite --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The first call configures and builds the
workload engine (perfbench/CMakeLists.txt) into .bench_build/; later calls
only rebuild what changed. The engine makes its inputs from --seed, measures
for about --seconds, checks every output, and this wrapper prints one JSON
result line last: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1 (the traced run also writes a Chrome
trace to .bench_build/trace-<workload>-<seed>.json). A per-layer metric the
workload does not measure reads 0 and is named on an info line. The exit
status is 0 only when every correctness gate held.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
ENGINE = os.path.join(BUILD, "nfbench")
WORKLOADS = ("flow-suite", "wmin-table1", "serve-open", "eco-sessions")
BUILD_JOBS = min(4, os.cpu_count() or 1)


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/ next to perfbench/: run from a full checkout")
    steps = [["cmake", "--build", BUILD, "--target", "nfbench", "-j", str(BUILD_JOBS)]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-B", BUILD, "-S", HERE,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))


def run_engine(config):
    """Run the engine; return (exit code, stdout lines, stderr text,
    peak RSS in MB of the engine process alone)."""
    out_path = os.path.join(BUILD, "engine.out")
    err_path = os.path.join(BUILD, "engine.err")
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    pid = os.posix_spawn(ENGINE, [ENGINE, json.dumps(config)], os.environ,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    with open(out_path) as f:
        lines = f.read().splitlines()
    with open(err_path) as f:
        err = f.read()
    return os.waitstatus_to_exitcode(status), lines, err, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Self-test hook (perfbench/selftest.py): corrupt a reference.
    ap.add_argument("--inject", default="", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        die("--seed must be >= 0 and --seconds > 0")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    config = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": bool(args.trace),
              "inject": args.inject,
              "trace_file": os.path.join(
                  BUILD, f"trace-{args.workload}-{args.seed}.json")}
    print(f"host {platform.node()} ({platform.machine()}, {os.cpu_count()} cpus)")
    code, lines, err, rss_mb = run_engine(config)
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(err[-4000:])
        die(f"engine exited with {code} and no result")
    flat = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if code != 0:
        sys.stderr.write(err[-4000:])
    flat["peak_rss_mb"] = rss_mb

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = bool(flat["correct"]) and code == 0
    known = {"correct", "attempted", "failed", "error"}
    known.update(m["name"] for m in spec["end_to_end"] + spec["per_layer"])
    unlisted = sorted(set(flat) - known)
    if unlisted:
        die("engine reported metrics BENCHMARK.json does not list: "
            + ", ".join(unlisted))
    missing = [m["name"] for m in wanted if m["name"] not in flat]
    if missing and correct:
        if not args.trace:
            die("engine did not report " + ", ".join(missing))
        # The result format needs every per-layer name.
        print(f"not measured on {args.workload} (reported as 0): "
              + ", ".join(missing))
        for name in missing:
            flat[name] = 0.0
    # A run that failed a gate reports what it measured before failing.
    print(json.dumps({
        "correct": correct,
        "attempted": int(flat["attempted"]),
        "failed": int(flat["failed"]),
        "metrics": {m["name"]: {"value": flat[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in flat},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
