#!/usr/bin/env python3
"""Smoke test of the benchmark on a tiny zoo (12 models per modality).

    python3 perfbench/smoke_test.py

Runs every workload untraced and traced through perfbench/run.py, asserts
that each emits every metric BENCHMARK.json names with its unit, and that
the correctness gate trips when one prediction is perturbed: across runs
(query-cold against the digests the other workloads recorded), within a run
(query-warm re-query against its set-up) and in the traced replay.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = "7"


def run(workload, trace, *extra):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", SEED, "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300,
                          check=False)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def expect(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(code == 0 and result["correct"], f"{label} not correct")
            expect(result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label} counts {result['failed']}/{result['attempted']}")
            for metric in named[trace]:
                got = result["metrics"].get(metric["name"])
                expect(got is not None, f"{label} lacks {metric['name']}")
                expect(got["unit"] == metric["unit"],
                       f"{label} {metric['name']} unit {got['unit']}")
            print(f"ok   {label}")

    for workload, trace in (("query-cold", 0), ("query-warm", 0),
                            ("query-cold", 1)):
        code, result = run(workload, trace, "--perturb")
        label = f"{workload} --trace {trace} --perturb"
        expect(code == 1 and not result["correct"] and result["failed"] >= 1,
               f"{label}: the gate did not trip")
        print(f"ok   {label} trips the gate")
    print("smoke test passed")


if __name__ == "__main__":
    main()
