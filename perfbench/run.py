#!/usr/bin/env python3
"""TransferGraph benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload query-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run builds the library from
src/ plus the tg_perfbench driver into .bench_build/. The driver measures
the workload (untraced: end-to-end metrics; --trace 1: per-layer metrics),
this script applies the cross-run correctness gate, prints a readable table
and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when the run is correct, 1 when a correctness check failed,
2 or more when the benchmark could not run at all. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "cmake"
BINARY = BUILD / "tg_perfbench"
WORKLOADS = ("query-cold", "query-warm", "sweep-image")
# Leaves the driver's 180 s limit room for this script's own work.
RUN_TIMEOUT_S = 170

# Names and units of every metric, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once and builds tg_perfbench; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no TransferGraph sources under {ROOT / 'src'}")
        sys.exit(2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "tg_perfbench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            sys.exit(3)


def run_driver(args):
    command = [str(BINARY), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    if args.perturb:
        command.append("--perturb")
    # TG_* knobs (threads, tracing, metrics, faults) would change what is
    # measured; the driver sets what each workload needs itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TG_")}
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver exceeded {RUN_TIMEOUT_S} s")
        sys.exit(4)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"perfbench: driver exited with {done.returncode}")
        sys.exit(5)
    return json.loads(lines[-1])


def digest_store(args):
    """Per-build, per-seed record of every target's prediction digest."""
    binary_hash = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    mode = "tiny" if args.tiny else "full"
    return (ROOT / ".bench_build" / "digests" / binary_hash /
            f"{mode}-seed-{args.seed}.json")


def cross_run_gate(args, evaluations):
    """Fails targets whose predictions differ from another workload's run
    on the same (seed, target): results must not depend on thread count or
    on cold versus warm caches. Perturbed runs are checked, never recorded."""
    path = digest_store(args)
    known = json.loads(path.read_text()) if path.is_file() else {}
    failures = []
    for ev in evaluations:
        seen = known.get(ev["target"])
        if seen is not None and seen["digest"] != ev["digest"]:
            failures.append(f"{ev['target']}: predictions differ from the "
                            f"{seen['workload']} run of seed {args.seed}")
        elif seen is None:
            known[ev["target"]] = {"digest": ev["digest"],
                                   "workload": args.workload}
    if not args.perturb and not failures:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(path)
    return failures


def end_to_end(raw):
    """Aggregates an untraced run into (metrics, sample counts, wall times).

    The gated times are process CPU seconds: on a shared VM the host steals
    vCPU time in bursts, which moves 4-thread wall times by up to 70% but
    not CPU time. Wall times are printed alongside for reference."""
    per_op = max(1, int(raw["targets_per_op"]))
    evaluations = raw["evaluations"][:int(raw["quality_targets"]) or None]

    def per_target(values):
        return statistics.median(v / per_op for v in values)

    def per_sweep(values):
        # Query workloads: answering every target with one query each.
        if per_op > 1:
            return statistics.median(values)
        return per_target(values) * raw["num_targets"]

    metrics = {
        "setup_s": statistics.median(raw["setup_cpu_s"]),
        "query_cpu_s": per_target(raw["op_cpu_s"]),
        "sweep_cpu_s": per_sweep(raw["op_cpu_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "top5_acc": statistics.fmean(e["top5"] for e in evaluations)
        if evaluations else 0.0,
        "success_ratio": 1.0 - raw["failed"] / max(1, raw["attempted"]),
    }
    ops = len(raw["op_s"])
    samples = {
        "setup_s": len(raw["setup_cpu_s"]),
        "query_cpu_s": ops * per_op,
        "sweep_cpu_s": ops,
        "peak_rss_mb": 1,
        "top5_acc": len(evaluations),
        "success_ratio": raw["attempted"],
    }
    wall = {
        "setup_wall_s": (statistics.median(raw["setup_s"]), "s"),
        "query_wall_s": (per_target(raw["op_s"]), "s"),
        "sweep_wall_s": (per_sweep(raw["op_s"]), "s"),
    }
    return ({name: (value, UNITS[name]) for name, value in metrics.items()},
            samples, wall)


def print_table(metrics, samples):
    print(f"{'metric':<42} {'value':>16} {'unit':<6} samples")
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>16.6g} {unit:<6} {samples.get(name, 1)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken catalog, for the smoke test")
    parser.add_argument("--perturb", action="store_true",
                        help="flip one prediction bit; the gate must trip")
    args = parser.parse_args()

    start = time.monotonic()
    build()
    raw = run_driver(args)
    failures = list(raw["failures"])
    failed = int(raw["failed"])
    if args.trace:
        metrics = {m["name"]: (raw["layers"][m["name"]], m["unit"])
                   for m in SPEC["per_layer"] if m["name"] in raw["layers"]}
        samples, wall = {}, {}
        missing = [m["name"] for m in SPEC["per_layer"]
                   if m["name"] not in raw["layers"]]
        if missing and not failures:
            failures.append(f"traced run lacks {', '.join(missing)}")
            failed += 1
    else:
        metrics, samples, wall = end_to_end(raw)
        gate = cross_run_gate(args, raw["evaluations"])
        failures += gate
        failed += len(gate)
    correct = not failures and failed == 0

    for failure in failures:
        log(f"perfbench: FAILED {failure}")
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{raw['attempted']} attempted, {failed} failed, "
          f"{time.monotonic() - start:.1f} s")
    print_table(metrics, samples)
    for name, (value, unit) in wall.items():
        print(f"{name:<42} {value:>16.6g} {unit:<6} (wall clock, not gated)")
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
