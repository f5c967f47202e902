#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gates.

    python3 perfbench/selftest.py

Runs workloads with a deliberately corrupted reference checksum and checks
that each run reports correct=false and exits non-zero: flow-suite's traced
composition is compared against run_flow, serve-open's responses against
solo flows. Exits 0 when every injected mismatch was caught.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = (("flow-suite", "1"), ("serve-open", "0"))


def main():
    ok = True
    for workload, trace in CASES:
        p = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", trace, "--inject", "checksum"],
            cwd=ROOT, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        caught = p.returncode != 0 and result.get("correct") is False
        print(f"{workload}: injected checksum mismatch "
              f"{'caught' if caught else 'NOT caught'} (exit {p.returncode})")
        ok &= caught
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
