"""Benchmark of fntwist: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload kernel-sweep --seed 1 --seconds 15 --trace 0

Runs whole rounds of the workload for --seconds, checks the outputs of the
last round against independent references, and prints one line per metric
and, last, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
goes in-process, half of it untraced and half traced, and the metrics are
the per-layer ones plus the tracing overhead.  --workload all runs each
workload in its own process and prints one JSON line per workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import inputs
from stopwatch import Stopwatch

# Spawns of a fresh interpreter that imports fntwist.cli and builds the inputs;
# setup_s is their median.
SETUP_PROBES = 9
MIN_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "twists_per_s": "1/s",
    "local_twists_per_s": "1/s",
    "peak_rss_mb": "MB",
    "correct_digits": "digits",
}

# (metric, layer, field of the layer's aggregate); field 0 calls, 1 self seconds, 2 amount
PER_LAYER = [
    ("cli.format_csv.self_s", "cli.format_csv", 1),
    ("cli.format_flow_json.self_s", "cli.format_flow_json", 1),
    ("cli.render_svg.self_s", "cli.render_svg", 1),
    ("cli.sample_flow.self_s", "cli.sample_flow", 1),
    ("annulus.core_geodesic.calls", "annulus.core_geodesic", 0),
    ("annulus.core_geodesic.self_s", "annulus.core_geodesic", 1),
    ("twist.twist_p_form.calls", "twist.twist_p_form", 0),
    ("twist.twist_p_form.self_s", "twist.twist_p_form", 1),
    ("twist.dehn_twist.calls", "twist.dehn_twist", 0),
    ("twist.dehn_twist.steps", "twist.dehn_twist", 2),
    ("twist.dehn_twist.self_s", "twist.dehn_twist", 1),
    ("annulus.AnnulusCoords.calls", "annulus.AnnulusCoords", 0),
    ("annulus.AnnulusCoords.self_s", "annulus.AnnulusCoords", 1),
    ("twist.twist_oracle.self_s", "twist.twist_oracle", 1),
    ("twist.stratum_map.calls", "twist.stratum_map", 0),
    ("mobius.MobiusMap.calls", "mobius.MobiusMap", 0),
    ("mobius.MobiusMap.self_s", "mobius.MobiusMap", 1),
    ("mobius.cross_ratio.calls", "mobius.cross_ratio", 0),
    ("mobius.cross_ratio.self_s", "mobius.cross_ratio", 1),
    ("annulus.coords_from_endpoints.self_s", "annulus.coords_from_endpoints", 1),
    ("sampling.random_coords.calls", "sampling.random_coords", 0),
    ("sampling.random_coords.self_s", "sampling.random_coords", 1),
    ("cli.run_verify_suites.self_s", "cli.run_verify_suites", 1),
    ("twist.twist_closed_form.calls", "twist.twist_closed_form", 0),
    ("twist.twist_closed_form.self_s", "twist.twist_closed_form", 1),
    ("surface.apply_local_twist.calls", "surface.apply_local_twist", 0),
    ("surface.apply_local_twist.self_s", "surface.apply_local_twist", 1),
    ("surface.SurfaceCoords.entries", "surface.SurfaceCoords", 2),
    ("surface.SurfaceCoords.self_s", "surface.SurfaceCoords", 1),
]
PER_LAYER_UNITS = {name: "s" if name.endswith("_s") else "count" for name, *_ in PER_LAYER}
PER_LAYER_UNITS.update({"cli.output_bytes": "bytes", "trace.wall_s": "s", "trace.overhead_s": "s"})


def setup_seconds(workload: str, seed: int):
    """(raw, scaled) medians of the set-up probes' spawn-to-exit times."""
    probe = [sys.executable, os.path.join(inputs.ROOT, "benchmarks", "inputs.py"),
             "--workload", workload, "--seed", str(seed)]
    watch = Stopwatch()
    laps = []
    for _ in range(SETUP_PROBES):
        watch.measure(subprocess.run, probe, check=True, cwd=inputs.ROOT)
        laps.append(watch.lap())
    return tuple(statistics.median(lap[k] for lap in laps) for k in (0, 1))


def run_rounds(work, seconds: float, rounds: list, on_round=None) -> list:
    """Whole rounds until `seconds` have passed; returns the new rounds."""
    watch = Stopwatch()
    new = []
    deadline = time.perf_counter() + seconds
    while len(new) < MIN_ROUNDS or time.perf_counter() < deadline:
        if rounds:
            rounds[-1].outputs = None  # the checks read the last round only
        gc.collect()
        rnd = work.round(watch)
        rnd.raw_s, rnd.scaled_s = watch.lap()
        work.after_round(rnd)
        if on_round:
            on_round(rnd)
        rounds.append(rnd)
        new.append(rnd)
    return new


def median_s(rounds):
    """(raw, scaled) median round times."""
    return tuple(statistics.median(getattr(r, k) for r in rounds) for k in ("raw_s", "scaled_s"))


def end_to_end(args, work, rounds) -> dict:
    setup_raw, setup = setup_seconds(args.workload, args.seed)
    # the first round warms caches and is left out of the timings
    timed = run_rounds(work, args.seconds, rounds)[1:]
    if timed[0].maxrss_kb:
        rss_kb = statistics.median(r.maxrss_kb for r in timed)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall_raw, wall = median_s(timed)
    print(f"{args.workload} unscaled: setup_s = {setup_raw:.6g} s, wall_s = {wall_raw:.6g} s")
    rate = rounds[-1].units / wall
    return {
        "setup_s": setup,
        "wall_s": wall,
        "twists_per_s": rate,
        "local_twists_per_s": rate,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(args, work, rounds) -> dict:
    from tracing import Tracer

    half = args.seconds / 2.0
    untraced = run_rounds(work, half, rounds)[1:]
    tracer = Tracer()
    tracer.install()
    per_round = []

    def keep(rnd):
        per_round.append((tracer.aggregate(), rnd.output_bytes))
        tracer.clear()

    try:
        traced = run_rounds(work, half, rounds, keep)
    finally:
        tracer.uninstall()
    os.makedirs(inputs.OUT, exist_ok=True)
    tracer.write(os.path.join(inputs.OUT, f"trace-{args.workload}.csv"))
    metrics = {}
    for name, layer, k in PER_LAYER:
        metrics[name] = statistics.median(agg[layer][k] for agg, _ in per_round)
    metrics["cli.output_bytes"] = statistics.median(b for _, b in per_round)
    metrics["trace.wall_s"] = median_s(traced)[1]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median_s(untraced)[1]
    return metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS, InProcess, Subprocesses

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    inputs.import_fntwist()
    runner = InProcess() if args.trace else Subprocesses()
    work = WORKLOADS[args.workload](args.seed, runner)
    rounds = []
    if args.trace:
        metrics = per_layer(args, work, rounds)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(args, work, rounds)
        units = END_TO_END
    chk = work.check(rounds)
    if not args.trace:
        metrics["correct_digits"] = chk.correct_digits
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds) + len(rounds) * len(chk.inaccurate_per_round)
    for problem in chk.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for fault in chk.inaccurate_per_round:
        print(f"kept fault, counted failed: {fault}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} rounds = {len(rounds)}, attempted = {attempted}, failed = {failed}")
    result = {
        "correct": not chk.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, workloads) -> int:
    status = 0
    for name in workloads:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=inputs.ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        print(f"{name}: {lines[-1] if lines else 'no result'}")
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
