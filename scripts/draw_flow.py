#!/usr/bin/env python3
"""Overlay twist-flow trajectories from several starting coordinates.

Writes one SVG with all curves in the (log X1, log X2) plane plus a CSV per
curve, and prints the observed trace drift along each trajectory (which
should sit at rounding level, the trace being a flow invariant).  Every
curve is sampled before any file is written; a --t or --steps that
``sample_flow`` refuses exits with status 1 and one ``error:`` line.

Usage:
    python scripts/draw_flow.py --out flow_out --t 2.0 --steps 200
"""

import argparse
import os
import sys

from fntwist import AnnulusCoords, core_geodesic
from fntwist.cli import format_csv, parse_projection, render_svg, sample_flow

STARTS = [
    (1.0, 1.0, 1.0, 1.0),
    (2.0, 0.5, 1.0, 1.0),
    (4.0, 0.25, 1.0, 1.0),
    (0.5, 3.0, 1.0, 1.0),
    (6.0, 2.0, 1.0, 1.0),
]

PALETTE = ["magenta", "#4466dd", "#22aa66", "#dd8822", "#884499"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="flow_out", help="output directory")
    ap.add_argument("--t", type=float, default=2.0, help="flow span in core lengths")
    ap.add_argument("--steps", type=int, default=200)
    args = ap.parse_args()

    try:
        flows = [sample_flow(AnnulusCoords(*start), args.t, args.steps) for start in STARTS]
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(args.out, exist_ok=True)
    curves = []
    for start, samples, color in zip(STARTS, flows, PALETTE):
        csv_path = os.path.join(args.out, "flow_" + "_".join(f"{v:g}" for v in start) + ".csv")
        with open(csv_path, "w", newline="") as fp:
            format_csv(samples, fp)
        curves.append((samples, color))
        trace = core_geodesic(AnnulusCoords(*start))[1]
        drift = max(abs(s[6] - trace) / trace for s in samples)  # s[6]: trace column
        print(f"start {start}: trace {trace:.6f}, max drift {drift:.3e}, wrote {csv_path}")

    svg_path = os.path.join(args.out, "flow_overlay.svg")
    with open(svg_path, "w", newline="") as fp:
        fp.write(render_svg(curves, parse_projection("logX1,logX2")))
    print(f"wrote {svg_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
