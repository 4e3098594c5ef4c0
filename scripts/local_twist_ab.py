"""In-process A/B of apply_local_twist between two source trees of fntwist.

    python3 scripts/local_twist_ab.py BASE_SRC CHANGE_SRC [--alternations 6] [--seed 1]

Each argument is a directory holding an `fntwist` package (a checkout's
`src/`).  Both packages are loaded into this one interpreter under their
own names, so the two sides share one allocator and run close together in time.
For each vector size n, a seeded word of 250 local twists and its inverse
runs once with every result kept in a list (as the surface-word benchmark
does) and once with each result dropped as soon as the next one exists.
The two sides alternate, and the table gives the per-twist minimum over
all alternations and the change/base ratio of those minima.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import random
import sys
import time
from pathlib import Path

SIZES = (8, 64, 256, 1000, 10_000)
WORD = 250
T_MAX = 0.25  # at n = 8 the quadruples overlap, and a word with |t| up to 1 overflows


def load(src: str, name: str):
    """The fntwist package under `src`, imported as the top-level module `name`."""
    root = Path(src).resolve() / "fntwist"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--alternations", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sides = (load(args.base, "fntwist_base"), load(args.change, "fntwist_change"))
    print(f"{'results':8} {'n':>6} {'base us':>9} {'change us':>10} {'ratio':>6}")
    for keep in (True, False):
        for n in SIZES:
            inputs = [word_for(pkg, n, args.seed) for pkg in sides]
            best = [float("inf"), float("inf")]
            for a in range(args.alternations):
                order = (0, 1) if a % 2 == 0 else (1, 0)
                for side in order:
                    best[side] = min(best[side], per_twist(sides[side], *inputs[side], keep))
            print(f"{'kept' if keep else 'dropped':8} {n:>6} {best[0] * 1e6:>9.2f} "
                  f"{best[1] * 1e6:>10.2f} {best[1] / best[0]:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
