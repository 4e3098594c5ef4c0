"""In-process A/B of fntwist's twist kernels between two source trees: parity, then timing.

    python3 scripts/twist_ab.py BASE_SRC CHANGE_SRC [--alternations 6] [--seed 1]

Each argument is a directory holding an `fntwist` package (a checkout's
`src/`).  Both packages are loaded into this one interpreter under their
own names, so the two sides share one allocator and run close together in time.

Parity comes first.  twist_p_form, twist_closed_form, twist_oracle, dehn_twist,
apply_local_twist (twice: the quadruple at entries 2, 5, 1, 3 of a 5-entry vector,
all in block 0, and at entries SPREAD of a SPREAD_N-entry vector, in three blocks
of 64) and the flow sampler (a FLOW_STEPS-step sample_flow to t, taken from each
tree's cli module, which fntwist flow runs) of both trees run on the same seeded
draws: WIDE quadruples whose coordinates are 10^u with u uniform in +/-w, w from
1 to 300, and BAND quadruples with 0.5 < sqrt(X1 X2) < 1.5, where the
translation forms X1 X2 - 1 exactly.  t and m run to the |t L| cap and past it.
Every case whose bits, error type or error text differ is counted, grouped by
kind (kernel and the two outcomes, an error given by its type and its text before
" for ", with each number and parenthesised tuple there masked), and up to three
of each kind are printed (of two results, only the entries that differ); any
difference makes the exit status 1.

Timing follows.  For each kernel, the per-call minimum over all alternations
on a fixed set of in-domain draws; the AnnulusEmbedding constructor's per-call
minimum on the index tuples of the n = 1000 word, so work moved between it and
apply_local_twist shows; and for apply_local_twist, for each vector size n, a
seeded word of 250 local twists and its inverse, run once with every result
kept in a list (as the surface-word benchmark does) and once with each result
dropped as soon as the next one exists.  The two sides alternate, and the table
gives each minimum and the change/base ratio of the minima.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import math
import random
import re
import sys
import time
from collections import defaultdict
from pathlib import Path

SIZES = (8, 64, 256, 1000, 10_000)
WORD = 250
T_MAX = 0.25  # at n = 8 the quadruples overlap, and a word with |t| up to 1 overflows
WIDTHS = (1, 3, 10, 30, 100, 300)  # decades either side of 1 for the wide-range draws
WIDE, BAND = 20_000, 20_000  # parity draws of each sort
TIMED = 2_000  # in-domain draws per kernel for the per-call rows
SHOWN = 3  # printed cases per kind of difference
FLOW_STEPS = 8  # intervals of each parity flow, so 9 rows of 7 values
SPREAD_N, SPREAD = 200, (65, 150, 1, 64)  # the spread parity embedding: blocks 1, 2, 0, 0
FILLER = [1.0 + (k % 13) / 8.0 for k in range(SPREAD_N)]  # its vector's untouched entries
# what describe masks: a parenthesised tuple (one holding a comma), and a number, nan or
# inf with its sign that no letter, digit or point precedes (so "X1 * X2" stays)
VALUES = re.compile(r"\([^()]*,[^()]*\)"
                    r"|(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|nan\b|inf\b)")


def load(src: str, name: str):
    """The fntwist package under `src`, imported as the top-level module `name`, with its cli."""
    root = Path(src).resolve() / "fntwist"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")  # binds module.cli
    return module


def rough_length(x1: float, x2: float) -> float:
    """The core length L = 2 acosh(tr/2) to a few digits, from logs, for any positive X1, X2.

    Only scales the drawn t and m, so that |t L| runs to the cap and past it.
    """
    lx1, lx2 = math.log(x1), math.log(x2)
    spread = lx1 + math.log1p(x2)  # log X1 (X2 + 1)
    log_tr = max(spread, 0.0) + math.log1p(math.exp(-abs(spread))) - (lx1 + lx2) / 2.0
    if log_tr > 20.0:  # acosh(x) = log(2 x) to double precision
        return 2.0 * log_tr
    return 2.0 * math.acosh(max(math.exp(log_tr) / 2.0, 1.0))


def parity_draws(seed: int):
    """(kind, quadruple, t, m) cases: WIDE wide-range draws, then BAND band draws."""
    rng = random.Random(seed)
    cases = []
    for i in range(WIDE + BAND):
        width = WIDTHS[i % len(WIDTHS)]
        if i < WIDE:
            quad = tuple(10.0 ** rng.uniform(-width, width) for _ in range(4))
        else:  # X1 spread over +/-w decades, X2 = r^2 / X1 with r in the band
            x1 = 10.0 ** rng.uniform(-width, width)
            x2 = rng.uniform(0.5, 1.5) ** 2 / x1
            quad = (x1, x2, 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-1.0, 1.0))
        length = rough_length(quad[0], quad[1]) or 1.0
        s = rng.uniform(-700.0, 700.0) if rng.random() < 0.8 else rng.uniform(-5.0, 5.0)
        t = s / length
        cases.append(("wide" if i < WIDE else "band", quad, t, int(t)))
    return cases


def outcome(call, *args):
    """A call's result as ("result", the hex of its values), or its error as (type, text)."""
    try:
        result = call(*args)
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    values = result.values if hasattr(result, "values") else result  # SurfaceCoords: .values
    return "result", tuple(float(v).hex() for v in values)


def flow_values(pkg, coords, t):
    """The values of a FLOW_STEPS-step flow from coords to t, row after row."""
    return [v for row in pkg.cli.sample_flow(coords, t, FLOW_STEPS) for v in row]


def kernel_outcomes(pkg, quad, t, m):
    """{kernel: outcome} for one case; the local twists put the quadruple at 2, 5, 1, 3, SPREAD."""
    coords = pkg.AnnulusCoords(*quad)
    vector = pkg.SurfaceCoords((quad[2], quad[0], quad[3], 7.0, quad[1]))
    embedding = pkg.AnnulusEmbedding(2, 5, 1, 3)
    spread = FILLER[:]
    for i, x in zip(SPREAD, quad):
        spread[i - 1] = x
    return {
        "twist_p_form": outcome(pkg.twist_p_form, coords, t),
        "twist_closed_form": outcome(pkg.twist_closed_form, coords, t),
        "twist_oracle": outcome(pkg.twist_oracle, coords, t),
        "dehn_twist": outcome(pkg.dehn_twist, coords, m),
        "apply_local_twist": outcome(pkg.apply_local_twist, vector, embedding, t),
        "apply_local_twist, spread": outcome(pkg.apply_local_twist, pkg.SurfaceCoords(spread),
                                             pkg.AnnulusEmbedding(*SPREAD), t),
        "sample_flow": outcome(flow_values, pkg, coords, t),
    }


def describe(result) -> str:
    """An outcome's kind: "result", or the error type and its text before " for ", values masked."""
    kind, detail = result
    return kind if kind == "result" else f"{kind}: {VALUES.sub('#', detail.split(' for ')[0])}"


def differing(base, change):
    """The two outcomes; of two results, only the (1-based position, hex) pairs that differ."""
    if base[0] != "result" or change[0] != "result":
        return base, change
    at = [i for i, (a, b) in enumerate(zip(base[1], change[1])) if a != b]
    return [(i + 1, base[1][i]) for i in at], [(i + 1, change[1][i]) for i in at]


def parity(sides, seed: int) -> int:
    """Print the cases where the two trees differ, grouped by kind; the number of such cases."""
    kinds = defaultdict(list)
    cases = parity_draws(seed)
    for draw, quad, t, m in cases:
        base, change = (kernel_outcomes(pkg, quad, t, m) for pkg in sides)
        for kernel, was in base.items():
            now = change[kernel]
            if was != now:
                kinds[kernel, describe(was), describe(now)].append((draw, quad, t, m, was, now))
    total = sum(len(found) for found in kinds.values())
    print(f"parity: {len(cases)} cases ({WIDE} wide-range, {BAND} band) x {len(base)} kernels, "
          f"{total} differ")
    for (kernel, was, now), found in sorted(kinds.items(), key=lambda item: -len(item[1])):
        print(f"  {len(found):>6}  {kernel}: {was}  ->  {now}")
        for draw, quad, t, m, base, change in found[:SHOWN]:
            arg = f"m = {m}" if kernel == "dehn_twist" else f"t = {t!r}"
            base, change = differing(base, change)
            print(f"          {draw} {quad} {arg}\n            base:   {base}\n"
                  f"            change: {change}")
    return total


def timed_draws(seed: int):
    """TIMED seeded (quadruple, t, m) draws: log-uniform in [1e-6, 1e6]^4, |t L| up to 649."""
    rng = random.Random(seed)
    draws = []
    for _ in range(TIMED):
        quad = tuple(10.0 ** rng.uniform(-6.0, 6.0) for _ in range(4))
        t = rng.uniform(-649.0, 649.0) / rough_length(quad[0], quad[1])
        draws.append((quad, t, int(t)))
    return draws


def per_call(pkg, kernel: str, draws) -> float:
    """Seconds per call of one kernel over the draws it serves, inputs built before timing."""
    fn = getattr(pkg, kernel)
    calls = []
    for quad, t, m in draws:
        coords, arg = pkg.AnnulusCoords(*quad), m if kernel == "dehn_twist" else t
        try:
            fn(coords, arg)
        except (ArithmeticError, ValueError):
            continue
        calls.append((coords, arg))
    gc.collect()
    begin = time.perf_counter()
    for coords, arg in calls:
        fn(coords, arg)
    return (time.perf_counter() - begin) / max(len(calls), 1)


def per_embedding(pkg, indices) -> float:
    """Seconds per AnnulusEmbedding construction over the index tuples."""
    build = pkg.AnnulusEmbedding
    gc.collect()
    begin = time.perf_counter()
    for idx in indices:
        build(*idx)
    return (time.perf_counter() - begin) / len(indices)


def word_for(pkg, n: int, seed: int):
    rng = random.Random(seed)
    start = pkg.SurfaceCoords([10.0 ** rng.uniform(-1.0, 1.0) for _ in range(n)])
    word = [(pkg.AnnulusEmbedding(*rng.sample(range(1, n + 1), 4)), rng.uniform(-T_MAX, T_MAX))
            for _ in range(WORD)]
    return start, word + [(emb, -t) for emb, t in reversed(word)]


def per_twist(pkg, start, steps, keep: bool) -> float:
    apply = pkg.apply_local_twist
    kept = []
    gc.collect()
    v = start
    begin = time.perf_counter()
    if keep:
        for emb, t in steps:
            v = apply(v, emb, t)
            kept.append(v)
    else:
        for emb, t in steps:
            v = apply(v, emb, t)
    elapsed = time.perf_counter() - begin
    del kept
    return elapsed / len(steps)


def alternate(alternations: int, run):
    """The minimum of run(side) for each side, over alternations that swap which side goes first."""
    best = [math.inf, math.inf]
    for a in range(alternations):
        for side in ((0, 1) if a % 2 == 0 else (1, 0)):
            best[side] = min(best[side], run(side))
    return best


def row(label: str, best) -> str:
    return f"{label:32} {best[0] * 1e6:>9.2f} {best[1] * 1e6:>10.2f} {best[1] / best[0]:>6.2f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--alternations", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sides = (load(args.base, "fntwist_base"), load(args.change, "fntwist_change"))
    differ = parity(sides, args.seed)
    print(f"\n{'per call':32} {'base us':>9} {'change us':>10} {'ratio':>6}")
    draws = timed_draws(args.seed)
    for kernel in ("twist_p_form", "twist_oracle", "dehn_twist"):
        print(row(kernel, alternate(args.alternations,
                                    lambda side: per_call(sides[side], kernel, draws))))
    indices = [emb.as_tuple() for emb, _ in word_for(sides[0], 1000, args.seed)[1]]
    print(row("AnnulusEmbedding construction", alternate(
        args.alternations, lambda side: per_embedding(sides[side], indices))))
    for keep in (True, False):
        for n in SIZES:
            inputs = [word_for(pkg, n, args.seed) for pkg in sides]
            best = alternate(args.alternations,
                             lambda side: per_twist(sides[side], *inputs[side], keep))
            print(row(f"local twist, {'kept' if keep else 'dropped'}, n = {n}", best))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
