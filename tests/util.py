"""Shared helpers for the test suite, and reference implementations it checks against."""

import importlib.util
import json
import math
from pathlib import Path

from fntwist import AnnulusCoords, core_geodesic
from fntwist.annulus import _core
from fntwist.mobius import MobiusMap, cross_ratio

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

# the translation's error where sinh(tau/2)'s numerator 1 - X1 (X2 + 1) overflows
TAU_OUT_OF_RANGE = ("twist coordinate tau is out of range: X1 * (X2 + 1) passes the double range "
                    "for X1 = {}, X2 = {}")
# the translation's message where sqrt(X1 X2) is below about 5.6e-309 and L is not finite
L_OUT_OF_RANGE = "core length is out of range: L passes the double range for X1 = {}, X2 = {}"
# the translation's message where X2' = (cosh h / sinh(L/2))^2 passes the double range
X2_OUT_OF_RANGE = ("twisted coordinate X2' passes the double range for coords {}, {} = {}; "
                   "result not representable")

# Vertex quadruple, in cross-ratio argument order [x:y:z:w], whose cross
# ratio recovers each coordinate.  Vertices are labelled points of the
# fundamental domain: the four arc endpoints x1..x4 plus the pinned points
# 0, 1, infinity.  The first vertex of each row is an endpoint of the arc
# itself (the diagonal of the quadrilateral); the order is the
# counterclockwise order the quadrilateral induces on the circle.  Arc 2
# is read off across the lift with endpoints (x1, infinity), whose fourth
# vertex is the gluing image of infinity, namely x2.
ARC_QUADRUPLES = {
    1: ("zero", "one", "inf", "x1"),
    2: ("x1", "zero", "inf", "x2"),
    3: ("zero", "inf", "x1", "x3"),
    4: ("one", "x4", "inf", "zero"),
}


class FloatSubclass(float):
    """A number the library must convert with float(): it never takes a plain-float path."""


class IntSubclass(int):
    """A Dehn count the library must convert with float(): it never takes the plain-int path."""


def load_benchmark_module(name: str):
    """benchmarks/<name>.py as a fresh module object, not entered in sys.modules."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rel_err(a: float, b: float) -> float:
    # floored at the smallest subnormal, so an error in a result below 1e-300 still shows
    return abs(a - b) / max(abs(a), abs(b), 5e-324)


def max_rel(a, b) -> float:
    return max(rel_err(u, v) for u, v in zip(a, b))


def holonomy_f2(coords: AnnulusCoords) -> MobiusMap:
    """The gluing holonomy along arc 2.

    It sends the fundamental-domain vertices 0, 1, infinity to x1,
    infinity, x2; its axis is the lift of the core curve.
    """
    x1, x2 = coords.x1, coords.x2
    s = math.sqrt(x1 * x2)
    return MobiusMap(x1 * (x2 + 1.0) / s, -x1 / s, -1.0 / s, 1.0 / s)


def exponential_fixed_points(coords: AnnulusCoords):
    """Axis endpoints in the flow-normalized form 1 - sqrt(X1 X2) e^(-L/2), 1 - sqrt(X1 X2) e^(L/2).

    Independent of the quadratic route in core_geodesic; the two must agree.
    """
    r = math.sqrt(coords.x1 * coords.x2)
    tr = (coords.x1 * (coords.x2 + 1.0) + 1.0) / r
    length = 2.0 * math.acosh(tr / 2.0)
    return (1.0 - r * math.exp(-length / 2.0), 1.0 - r * math.exp(length / 2.0))


def coords_from_endpoints_reference(ends) -> AnnulusCoords:
    """coords_from_endpoints through cross_ratio, as the library once did."""
    points = {"zero": 0.0, "one": 1.0, "inf": math.inf}
    points.update((f"x{i}", v) for i, v in enumerate(ends, start=1))
    return AnnulusCoords(*(cross_ratio(*(points[label] for label in ARC_QUADRUPLES[i]))
                           for i in (1, 2, 3, 4)))


def format_csv_reference(samples) -> str:
    """Flow CSV written value by value, as the CLI once did."""
    lines = ["t,X1,X2,X3,X4,L,trace"]
    for s in samples:
        lines.append(",".join(f"{v:.17g}" for v in s))
    return "\n".join(lines) + "\n"


def row_length_trace(x1: float, x2: float):
    """(L, |trace|) of a flow row's X1, X2: _core's, or its errors, without the discriminant.

    A row takes no axis endpoints, so sample_flow serves a point whose discriminant
    overflows; its L and trace are then the trace check's arithmetic, which comes first.
    """
    try:
        return _core(x1, x2)[:2]
    except OverflowError:  # the discriminant, checked after the trace
        tr = (x1 * (x2 + 1.0) + 1.0) / math.sqrt(x1 * x2)
        return 2.0 * math.acosh(tr / 2.0), tr


def format_flow_json_reference(coords, t_max, steps, samples) -> str:
    """Flow JSON as one json.dumps tree, as the CLI once wrote it."""
    length, trace, _, _ = core_geodesic(coords)
    payload = {
        "input": {"coords": list(coords.as_tuple()), "t_max": t_max, "steps": steps},
        "invariants": {"L": length, "trace": trace},
        "samples": [
            {"t": t, "X1": x1, "X2": x2, "X3": x3, "X4": x4, "L": length, "trace": trace}
            for t, x1, x2, x3, x4, length, trace in samples
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def svg_points_reference(samples, proj) -> str:
    """Polyline points of one curve, one f-string per point, as render_svg once wrote them."""
    def axis(sample, ax):
        v = sample[ax[1]]
        return math.log10(v) if ax[2] else v

    def scale(lo, hi):
        pad = max(abs(lo) * 0.05, 0.5) if hi - lo < 1e-12 else (hi - lo) * 0.05
        return lo - pad, hi + pad

    xs = [axis(s, proj[0]) for s in samples]
    ys = [axis(s, proj[1]) for s in samples]
    (x_lo, x_hi), (y_lo, y_hi) = scale(min(xs), max(xs)), scale(min(ys), max(ys))

    def sx(v):
        return 70 + (v - x_lo) / (x_hi - x_lo) * (800 - 70 - 25)

    def sy(v):
        return 25 + (600 - 25 - 55) - (v - y_lo) / (y_hi - y_lo) * (600 - 25 - 55)

    return " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))


def first_difference(got: str, want: str):
    """None for equal texts, else (line index, got line, wanted line) of the first difference.

    A failure report for megabyte outputs that needs no full diff.
    """
    if got == want:
        return None
    a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return i, a[i] if i < len(a) else None, b[i] if i < len(b) else None
