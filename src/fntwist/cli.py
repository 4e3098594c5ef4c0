"""Command-line front end: twist evaluation, flow sampling, verification.

Subcommands:

* ``twist``   one twisted quadruple plus the core length and trace, by the
              Fenchel-Nielsen translation
* ``dehn``    the same report at integer t, the m-fold Dehn twist
* ``flow``    uniform samples of the flow by the p-form (twist.sample_flow),
              emitted as CSV/JSON and optionally an SVG polyline of a 2D projection
* ``verify``  seeded randomized equivalence and invariance suites

Exit codes: 0 success, 1 validation or usage error, 2 verification failure.
Output formatting is fixed (17 significant digits, newline-terminated) so
identical inputs produce byte-identical files.  A command opens its destination
once its result is computed, and ``flow`` writes its text _BLOCK rows at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

from .annulus import AnnulusCoords, _core, coords_from_endpoints, endpoints
from .sampling import Lcg, random_coords
from .twist import (_fenchel_nielsen, dehn_twist, sample_flow, twist_closed_form, twist_oracle,
                    twist_p_form)

# a flow sample is a tuple of these seven values, in this order
CSV_HEADER = "t,X1,X2,X3,X4,L,trace"
# One flow sample as a CSV line and as a JSON object at the indentation
# json.dumps(indent=2) gives it, split after X4.  "%r" writes float.__repr__,
# the text json writes for a finite float; every sample value is finite.  The
# flow preserves L and trace, so a trajectory repeats a few (L, trace) pairs
# while t and X1..X4 change on every row: _write_rows formats each pair once.
# The names are ASCII, so json.dumps(k) is '"k"', and only writing JSON loads json.
_NAMES = CSV_HEADER.split(",")
_CSV_HEAD, _CSV_TAIL = "%.17g," * 5, "%.17g,%.17g\n"
_JSON_HEAD = "    {\n" + "".join(f'      "{k}": %r,\n' for k in _NAMES[:5])
_JSON_TAIL = ",\n".join(f'      "{k}": %r' for k in _NAMES[5:]) + "\n    }"
# flow rows per write: about 240 KB of JSON, and few system calls on an unbuffered stdout
_BLOCK = 1024

SVG_WIDTH = 800
SVG_HEIGHT = 600
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 70, 25, 25, 55


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; we report usage problems as 1
    def error(self, message):
        raise UsageError(message)


def parse_coords(text: str) -> AnnulusCoords:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--coords needs four comma-separated values, got {len(parts)}")
    return AnnulusCoords(*parts)  # it converts each field and names the first bad one


# --proj axis name -> (coordinate index, log scale)
_AXES = {f"{log}X{i}": (i, bool(log)) for log in ("", "log") for i in range(1, 5)}


def parse_projection(text: str):
    """Parse an axis pair like ``X1,X3`` or ``logX1,logX2``."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise UsageError(f"--proj needs two comma-separated axes, got {text!r}")
    for name in parts:
        if name not in _AXES:
            raise UsageError(f"invalid projection axis {name!r} (use X1..X4 or logX1..logX4)")
    return [(name, *_AXES[name]) for name in parts]


def _output(path):
    """A context manager for a command's text stream: stdout, left open, or the file at path."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")


# verify compares positive doubles only: the error is |a - b| over the larger of the two,
# written as the larger minus the smaller (rounded, b - a is exactly -(a - b))
def _rel_err(a: float, b: float) -> float:
    return (a - b) / a if a > b else (b - a) / b


def _max_rel(a: AnnulusCoords, b: AnnulusCoords) -> float:
    """_rel_err of each entry pair, written out once per entry; the largest of the four."""
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    return max((a1 - b1) / a1 if a1 > b1 else (b1 - a1) / b1,
               (a2 - b2) / a2 if a2 > b2 else (b2 - a2) / b2,
               (a3 - b3) / a3 if a3 > b3 else (b3 - a3) / b3,
               (a4 - b4) / a4 if a4 > b4 else (b4 - a4) / b4)


# ---------------------------------------------------------------- twist/dehn

def _quadruple_report(args, name, value):
    """Write the translation by value (t or m) of the parsed --coords, with its own L and trace."""
    import json  # here, not at the top: a process that writes no JSON does not load it
    coords = parse_coords(args.coords)
    # L and trace from the kernel's pass, not _core, whose margin refuses inputs it serves
    result, length, trace = _fenchel_nielsen(coords, value, name)
    if args.format == "csv":
        text = ",".join(_NAMES[1:]) + "\n" + ",".join(f"{v:.17g}" for v in (*result, length, trace))
    else:
        payload = {
            "input": {"coords": list(coords), name: value},
            "L": length,
            "trace": trace,
            "output": list(result),
        }
        text = json.dumps(payload, indent=2)
    with _output(args.out) as out:
        out.write(text + "\n")
    return 0


def cmd_twist(args) -> int:
    return _quadruple_report(args, "t", args.t)


def cmd_dehn(args) -> int:
    return _quadruple_report(args, "m", args.m)


# ----------------------------------------------------------------------- flow

def _write_rows(out, head, tail, samples, sep=""):
    """Write each sample as head % (t, X1..X4) + tail % (L, trace), rows joined by sep.

    One out.write per _BLOCK rows.  The tail is formatted once per distinct (L, trace)
    pair: both are positive and finite, so equal pairs mean equal text (no -0.0, no NaN).
    """
    tails = {pair: tail % pair for pair in {s[5:] for s in samples}}
    for start in range(0, len(samples), _BLOCK):
        rows = [""] if start else []  # so that a block after the first starts with sep
        rows += [head % (t, x1, x2, x3, x4) + tails[length, trace]
                 for t, x1, x2, x3, x4, length, trace in samples[start:start + _BLOCK]]
        out.write(sep.join(rows))


def format_csv(samples, out) -> None:
    """Write the flow CSV to the text stream out: the header, then the rows in blocks."""
    out.write(CSV_HEADER + "\n")
    _write_rows(out, _CSV_HEAD, _CSV_TAIL, samples)


def format_flow_json(coords, t_max, steps, samples, out) -> None:
    """Write the flow JSON, as json.dumps(indent=2) lays it out, to the text stream out."""
    import json
    length, trace = _core(coords[0], coords[1])[:2]
    head = json.dumps({
        "input": {"coords": list(coords), "t_max": t_max, "steps": steps},
        "invariants": {"L": length, "trace": trace},
    }, indent=2)
    # head ends with the closing "\n}"; the samples list goes in before it
    out.write(f'{head[:-2]},\n  "samples": [\n')
    _write_rows(out, _JSON_HEAD, _JSON_TAIL, samples, ",\n")
    out.write("\n  ]\n}\n")


def _axis_values(samples, axis) -> list:
    _, index, is_log = axis  # X1..X4 sit at positions 1..4 of a sample
    return [math.log10(s[index]) for s in samples] if is_log else [s[index] for s in samples]


def _scale(lo: float, hi: float):
    pad = max(abs(lo) * 0.05, 0.5) if hi - lo < 1e-12 else (hi - lo) * 0.05
    return lo - pad, hi + pad


def render_svg(curves, proj) -> str:
    """Polylines of projected trajectories in one fixed 800x600 frame.

    curves is a list of (samples, stroke) pairs, drawn in order; the axes
    span every curve.
    """
    projected = [(_axis_values(samples, proj[0]), _axis_values(samples, proj[1]))
                 for samples, _ in curves]
    x_lo, x_hi = _scale(min(min(xs) for xs, _ in projected), max(max(xs) for xs, _ in projected))
    y_lo, y_hi = _scale(min(min(ys) for _, ys in projected), max(max(ys) for _, ys in projected))
    plot_w = SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x_span, y_span = x_hi - x_lo, y_hi - y_lo
    axis_y = _MARGIN_TOP + plot_h

    def project(xs, ys):  # data to frame for ticks, lines and markers; lists, no point tuples
        return ([_MARGIN_LEFT + (x - x_lo) / x_span * plot_w for x in xs],
                [axis_y - (y - y_lo) / y_span * plot_h for y in ys])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" x2="{_MARGIN_LEFT + plot_w}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>',
    ]
    tick_xs = [x_lo + frac * x_span for frac in (0.0, 0.5, 1.0)]
    tick_ys = [y_lo + frac * y_span for frac in (0.0, 0.5, 1.0)]
    for vx, vy, px, py in zip(tick_xs, tick_ys, *project(tick_xs, tick_ys)):
        parts.append(
            f'<text x="{px:.1f}" y="{axis_y + 18:.1f}" font-size="11" '
            f'text-anchor="middle">{vx:.3g}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6:.1f}" y="{py + 4:.1f}" font-size="11" '
            f'text-anchor="end">{vy:.3g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{SVG_HEIGHT - 12}" font-size="13" '
        f'text-anchor="middle">{proj[0][0]}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.1f})">{proj[1][0]}</text>'
    )
    for (samples, stroke), (xs, ys) in zip(curves, projected):
        pxs, pys = project(xs, ys)
        points = " ".join(["%.2f,%.2f" % point for point in zip(pxs, pys)])
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{stroke}" stroke-width="1.5"/>'
        )
        n = len(samples)
        for i in sorted({0, n // 4, n // 2, 3 * n // 4, n - 1}):
            px, py = pxs[i], pys[i]
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" fill="{stroke}"/>')
            parts.append(f'<text x="{px + 5:.1f}" y="{py - 5:.1f}" font-size="10">'
                         f't={samples[i][0]:.3g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_flow(args) -> int:
    coords = parse_coords(args.coords)
    proj = parse_projection(args.proj)
    samples = sample_flow(coords, args.t, args.steps)  # a flow that fails here opens no file
    with _output(args.out) as out:
        if args.format == "csv":
            format_csv(samples, out)
        else:
            format_flow_json(coords, args.t, args.steps, samples, out)
    if args.svg is not None:
        svg = render_svg([(samples, "magenta")], proj)
        with _output(args.svg) as out:
            out.write(svg)
    return 0


# --------------------------------------------------------------------- verify

def _dehn_compatibility(coords):
    """dehn_twist at m = 1, 2, 3 against the rational map, with no transcendental function."""
    worst, (x1, x2, x3, x4) = 0.0, coords
    for m in (1, 2, 3):
        grow = x1 + 1.0
        x1, x2, x3, x4 = x1 * x1 * x2 / (grow * grow), 1.0 / x1, grow * x3, grow * x4
        worst = max(worst, _max_rel(dehn_twist(coords, m), (x1, x2, x3, x4)))
    return worst


def run_verify_suites(samples: int, seed: int):
    """Max relative error of each randomized suite, in suite order.

    Three passes, each on its own stream Lcg(seed) from state_0, draw each sample's
    coordinates and then its twist parameters, so every suite reads the draws it would read
    on a stream of its own (5, 6, 5, 4 and 4 a sample, in suite order):
    * oracle-equivalence and trace-invariance share (coords, t in [0, 3)), and p-form's
      twist of coords by t;
    * flow-additivity reads (coords, s in [0, 2), t in [0, 2));
    * dehn-compatibility and endpoint-round-trip share coords.
    In verify's domain (0.1, 10)^4 no kernel raises, so running two suites in one pass
    changes no outcome.
    """
    oracle = trace = flow = dehn = ends = 0.0
    rng = Lcg(seed)
    for _ in range(samples):
        coords = random_coords(rng)
        t = rng.uniform(0.0, 3.0)
        a, b, c = twist_closed_form(coords, t), twist_p_form(coords, t), twist_oracle(coords, t)
        oracle = max(oracle, _max_rel(a, b), _max_rel(b, c), _max_rel(a, c))
        trace = max(trace, _rel_err(_core(coords[0], coords[1])[1], _core(b[0], b[1])[1]))
    rng = Lcg(seed)
    for _ in range(samples):
        coords = random_coords(rng)
        s = rng.uniform(0.0, 2.0)
        t = rng.uniform(0.0, 2.0)
        flow = max(flow, _max_rel(twist_p_form(twist_p_form(coords, s), t),
                                  twist_p_form(coords, s + t)))
    rng = Lcg(seed)
    for _ in range(samples):
        coords = random_coords(rng)
        dehn = max(dehn, _dehn_compatibility(coords))
        ends = max(ends, _max_rel(coords_from_endpoints(endpoints(coords)), coords))
    return {"oracle-equivalence": oracle, "flow-additivity": flow, "trace-invariance": trace,
            "dehn-compatibility": dehn, "endpoint-round-trip": ends}


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    if not args.tol > 0.0:
        raise UsageError(f"--tol must be positive, got {args.tol}")
    results = run_verify_suites(args.samples, args.seed)
    failures = 0
    for name, err in results.items():
        ok = err <= args.tol
        failures += 0 if ok else 1
        print(f"{name:24s} max rel err {err:.3e}  {'ok' if ok else 'FAIL'}")
    if failures:
        print(f"verify: {failures} suite(s) exceeded tolerance {args.tol:g}")
        return 2
    print(f"verify: all suites within tolerance {args.tol:g} "
          f"({args.samples} samples, seed {args.seed})")
    return 0


# ----------------------------------------------------------------------- main

def build_parser() -> _Parser:
    parser = _Parser(prog="fntwist", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_format, with_t=True):
        p.add_argument("--coords", required=True, help="four comma-separated positive values")
        if with_t:
            p.add_argument("--t", type=float, default=1.0, help="twist parameter in core lengths")
        p.add_argument("--format", choices=["csv", "json"], default=default_format)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_twist = sub.add_parser("twist", help="evaluate one twist")
    add_common(p_twist, "json")
    p_twist.set_defaults(func=cmd_twist)

    p_dehn = sub.add_parser("dehn", help="m-fold Dehn twist")
    add_common(p_dehn, "json", with_t=False)
    p_dehn.add_argument("--m", type=int, default=1, help="twist count, may be negative")
    p_dehn.set_defaults(func=cmd_dehn)

    p_flow = sub.add_parser("flow", help="sample the flow from 0 to t")
    add_common(p_flow, "csv")
    p_flow.add_argument("--steps", type=int, default=100, help="number of intervals (>= 1)")
    p_flow.add_argument("--svg", default=None, help="also render an SVG to this path")
    p_flow.add_argument("--proj", default="logX1,logX2",
                        help="2D projection, e.g. X1,X3 or logX1,logX2")
    p_flow.set_defaults(func=cmd_flow)

    p_verify = sub.add_parser("verify", help="run the randomized verification suites")
    p_verify.add_argument("--samples", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
