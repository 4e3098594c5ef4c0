"""Seeded inputs of the four workloads.

Imports only the standard library, ``lcg`` and fntwist from the checkout's
``src``.  Run as a script it imports ``fntwist.cli`` and builds one
workload's inputs, then exits: the benchmark times that as set-up.

    python3 benchmarks/inputs.py --workload kernel-sweep --seed 1
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

from lcg import Lcg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "benchmarks", "out")


def import_fntwist():
    """Import fntwist from this checkout's src, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "fntwist", "cli.py")):
        raise SystemExit(f"fntwist sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import fntwist.cli  # noqa: F401  (set-up includes importing the CLI)


# ------------------------------------------------------------------ flow-export

FLOW_STEPS = 20000
# t_max is the largest divisor of FLOW_STEPS with t_max * L below this, so the
# rows at t = 1, 2, 3 exist exactly and |t L| crosses the shifted-exponent
# threshold 300: consecutive divisors near t_max differ by at most 1.6x,
# so t_max * L > 400.
FLOW_MAX_TWIST = 640.0
FLOW_DEHN_ROWS = (1, 2, 3)


def core_length(x1: float, x2: float) -> float:
    """L = 4 asinh(sqrt(tr - 2) / 2), with tr - 2 written without cancellation."""
    r = math.sqrt(x1 * x2)
    return 4.0 * math.asinh(math.sqrt(((r - 1.0) ** 2 + x1) / r) / 2.0)


def axis_gaps(x1: float, x2: float):
    """(1 - p1, tr - 2): how close the quadruple is to the two known cancellations."""
    lin = x1 * (x2 + 1.0) - 1.0
    sq = math.sqrt(lin * lin + 4.0 * x1)
    p2 = (-lin - sq) / 2.0 if lin > 0.0 else -2.0 * x1 / (sq - lin)
    r = math.sqrt(x1 * x2)
    return x1 * x2 / (1.0 - p2), ((r - 1.0) ** 2 + x1) / r


@dataclass
class FlowInputs:
    coords: tuple
    t_max: int
    steps: int
    csv: str
    svg: str
    json: str
    sample_rows: list

    def argvs(self):
        common = ["flow", "--coords", ",".join(repr(v) for v in self.coords),
                  "--t", str(self.t_max), "--steps", str(self.steps)]
        return [common + ["--out", self.csv, "--svg", self.svg],
                common + ["--format", "json", "--out", self.json]]


def build_flow_export(seed: int) -> FlowInputs:
    rng = Lcg(seed)
    coords = tuple(rng.log_uniform(0.1, 10.0) for _ in range(4))
    length = core_length(coords[0], coords[1])
    t_max = max(d for d in range(1, FLOW_STEPS + 1)
                if FLOW_STEPS % d == 0 and d * length <= FLOW_MAX_TWIST)
    rows = sorted({1 + rng.below(FLOW_STEPS) for _ in range(48)})
    out = os.path.join(OUT, "flow-export")
    return FlowInputs(coords, t_max, FLOW_STEPS, os.path.join(out, "flow.csv"),
                      os.path.join(out, "flow.svg"), os.path.join(out, "flow.json"), rows)


# ---------------------------------------------------------------- verify-suites

VERIFY_SAMPLES = 1000
VERIFY_SEEDS = 3
# The oracle exceeds the default --tol 1e-9 on about 2 % of seeds at 1000
# samples (the fault kept below); a looser tolerance keeps the seeded
# invocations' outcome independent of the seed.
VERIFY_SEEDED_TOL = "1e-6"
# Kept fault: at sample 3917 the oracle is 1.08e-9 off, so this exits 2.
VERIFY_KEPT_FAULT = ["verify", "--samples", "5000", "--seed", "5"]
VERIFY_CHECKED_DRAWS = 12


@dataclass
class VerifyInputs:
    seeds: list
    checked_draws: dict

    def argvs(self):
        seeded = [["verify", "--samples", str(VERIFY_SAMPLES), "--seed", str(s),
                   "--tol", VERIFY_SEEDED_TOL] for s in self.seeds]
        return seeded + [VERIFY_KEPT_FAULT]


def build_verify_suites(seed: int) -> VerifyInputs:
    rng = Lcg(seed)
    seeds = [rng.below(1 << 32) for _ in range(VERIFY_SEEDS)]
    draws = {s: sorted({rng.below(VERIFY_SAMPLES) for _ in range(VERIFY_CHECKED_DRAWS)})
             for s in seeds}
    return VerifyInputs(seeds, draws)


# ----------------------------------------------------------------- kernel-sweep

SWEEP_TWISTS = 12000
SWEEP_DEHNS = 3000
SWEEP_RANGE = (1e-12, 1e12)
SWEEP_MAX_TWIST = 649.9
# Above |m L| ~ 350 the Dehn iteration underflows or overflows (the fault
# kept below), so seeded Dehn counts stop here.
SWEEP_MAX_DEHN = 300.0
# Seeded draws stay out of the regions where the kept p-form and trace
# cancellations (fixed inputs below) lose more than the checked bound.
SWEEP_MIN_AXIS_GAP = 1e-4
SWEEP_MIN_TRACE_GAP = 1e-2
SWEEP_CHECKED = 512

# Fixed inputs, the same for every seed: (label, coordinates, kind, parameter).
# Kind "t" is twist_p_form at t = parameter, "tL" the same at t L = parameter,
# "m" is dehn_twist with m = parameter.
SWEEP_FIXED = [
    ("p-form cancellation",
     (3.5831068678109596e-06, 1.8997443570524623e-06, 0.8248758561768424, 7.552935108750808),
     "t", -2.8560576456242535),
    ("dehn underflow m=170", (1.3, 0.7, 2.0, 0.5), "m", 170),
    ("dehn underflow m=200", (1.3, 0.7, 2.0, 0.5), "m", 200),
] + [
    (f"near-parabolic x1={x1:g} x1*x2={prod:g} tL={s:g}", (x1, prod / x1, 1.0, 1.0), "tL", s)
    for x1 in (1e-12, 1e-13)
    for prod in (1.0, 1.0001, 1.01)
    for s in (0.5, 400.0)
]


@dataclass
class SweepInputs:
    twists: list
    dehns: list
    fixed: list
    checked: list


def _sweep_coords(rng: Lcg):
    while True:
        c = tuple(rng.log_uniform(*SWEEP_RANGE) for _ in range(4))
        axis_gap, trace_gap = axis_gaps(c[0], c[1])
        if axis_gap >= SWEEP_MIN_AXIS_GAP and trace_gap >= SWEEP_MIN_TRACE_GAP:
            return c


def build_kernel_sweep(seed: int) -> SweepInputs:
    rng = Lcg(seed)
    twists = []
    for _ in range(SWEEP_TWISTS):
        c = _sweep_coords(rng)
        twists.append((c, rng.uniform(-SWEEP_MAX_TWIST, SWEEP_MAX_TWIST) / core_length(c[0], c[1])))
    dehns = []
    for _ in range(SWEEP_DEHNS):
        c = _sweep_coords(rng)
        m = round(rng.uniform(-SWEEP_MAX_DEHN, SWEEP_MAX_DEHN) / core_length(c[0], c[1]))
        dehns.append((c, m or 1))
    fixed = []
    for label, c, kind, param in SWEEP_FIXED:
        if kind == "tL":
            kind, param = "t", param / core_length(c[0], c[1])
        fixed.append((label, c, kind, param))
    n = SWEEP_TWISTS + SWEEP_DEHNS
    checked = sorted({rng.below(n) for _ in range(SWEEP_CHECKED)})
    return SweepInputs(twists, dehns, fixed, checked)


# ----------------------------------------------------------------- surface-word

WORD_ENTRIES = 1000
WORD_LENGTH = 500
WORD_MAX_T = 1.0


@dataclass
class WordInputs:
    start: object
    word: list


def build_surface_word(seed: int) -> WordInputs:
    from fntwist import AnnulusEmbedding, SurfaceCoords

    rng = Lcg(seed)
    start = SurfaceCoords(tuple(rng.log_uniform(0.1, 10.0) for _ in range(WORD_ENTRIES)))
    word = []
    for _ in range(WORD_LENGTH):
        idx = []
        while len(idx) < 4:
            i = 1 + rng.below(WORD_ENTRIES)
            if i not in idx:
                idx.append(i)
        word.append((AnnulusEmbedding(*idx), rng.uniform(-WORD_MAX_T, WORD_MAX_T)))
    return WordInputs(start, word)


BUILDERS = {
    "flow-export": build_flow_export,
    "verify-suites": build_verify_suites,
    "kernel-sweep": build_kernel_sweep,
    "surface-word": build_surface_word,
}


def build(workload: str, seed: int):
    import_fntwist()
    return BUILDERS[workload](seed)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    build(args.workload, args.seed)
