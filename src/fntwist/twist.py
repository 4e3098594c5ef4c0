"""The Fenchel-Nielsen twist flow on annulus coordinates.

Three independent routes compute the twisted quadruple:

* twist_p_form, the one route production code calls, a rational function
  of e^(t L) and the axis endpoints p1, p2 taken from the quadratic route;
  its second half, twist_from_core, lets a trajectory reuse one core;
* twist_closed_form, the same map written directly in cosh(L), cosh(L/2)
  and e^(+/- L/2), kept as an algebraic reference;
* twist_oracle, a first-principles construction that builds the endpoint
  configuration, applies the stratum map to the vertices it moves, and
  recomputes the four cross ratios.

At integer parameters the flow is a power of the Dehn twist, a rational
map implemented separately in dehn_twist.  All routes accept negative t;
positive t twists boundary points toward the negative axis endpoint p2.
"""

from __future__ import annotations

import math

from .annulus import AnnulusCoords, CoreGeodesic, core_geodesic, endpoints
from .mobius import INFINITY, MobiusMap, ProjectivePoint, cross_ratio

# Beyond this |t| * L the twisted quadruple itself leaves double range
# (X2' grows like e^(t L)); the p-form switches to a shifted-exponent
# evaluation already at 300 to keep intermediates bounded.
MAX_TWIST_LENGTH = 650.0
_SHIFT_THRESHOLD = 300.0


class TwistRangeError(OverflowError):
    """Raised when |t| * L is too large for the result to be representable."""


def _check_t(t) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"twist parameter must be finite, got {t!r}")
    return t


def stratum_map(coords: AnnulusCoords, t) -> MobiusMap:
    """The hyperbolic map applied to the moving side of the cut.

    Conjugates diag(e^(tL/2), e^(-tL/2)) back from the axis-normalizing
    frame, so its axis endpoints are exactly (p1, p2) and its translation
    length is |t| L; at t = 0 it is the identity.
    """
    t = _check_t(t)
    core = core_geodesic(coords)
    s = t * core.length
    # normalizer sends p1 to 0 and p2 to infinity; constructor supplies 1/sqrt(p1-p2)
    frame = MobiusMap(1.0, -core.p1, 1.0, -core.p2)
    diagonal = MobiusMap(math.exp(s / 2.0), 0.0, 0.0, math.exp(-s / 2.0))
    return frame.inverse().compose(diagonal).compose(frame)


def _out_of_range(why: str, coords: AnnulusCoords, name: str, value) -> TwistRangeError:
    return TwistRangeError(
        f"{why} for coords {coords.as_tuple()}, {name} = {value!r}; result not representable"
    )


def _checked(values, coords: AnnulusCoords, name: str, value):
    """The twisted values, once each is checked to be positive and finite."""
    y1, y2, y3, y4 = values  # chained comparisons: False for 0, inf and nan alike
    if not (0.0 < y1 < math.inf and 0.0 < y2 < math.inf
            and 0.0 < y3 < math.inf and 0.0 < y4 < math.inf):
        raise _out_of_range(f"twisted coordinates {values} left the positive finite range",
                            coords, name, value)
    return values


def twist_from_core(coords: AnnulusCoords, core: CoreGeodesic, t: float):
    """The twisted quadruple as a 4-tuple, given core = core_geodesic(coords).

    The invariants depend only on the start, so a trajectory computes them
    once and calls this for every t.  t must already be a finite float.
    """
    s = t * core.length
    if abs(s) > MAX_TWIST_LENGTH:
        raise _out_of_range(f"|t| * L = {abs(s)} exceeds {MAX_TWIST_LENGTH}", coords, "t", t)
    x1, x2, x3, x4 = coords.as_tuple()
    p1, p2 = core.p1, core.p2
    axis_sq = p1 * p1 + p2 * p2 + 2.0 * x1  # equals (p1 - p2)^2
    # x1 + p2 and p2 are negative, so both gaps are sums of like-signed
    # terms and the evaluation is cancellation-free for every t
    if s <= _SHIFT_THRESHOLD:
        grow = math.exp(s)
        axis_gap = (x1 + p1) * grow - (x1 + p2)
        edge2_gap = p1 * grow - p2
        y1 = x1 * axis_sq * grow / (axis_gap * axis_gap)
        y2 = x2 * edge2_gap * edge2_gap / (axis_sq * grow)
    else:
        # factor e^(t L) out of both gaps so intermediates stay bounded
        shrink = math.exp(-s)
        axis_gap = (x1 + p1) - (x1 + p2) * shrink
        edge2_gap = p1 - p2 * shrink
        y1 = x1 * axis_sq * shrink / (axis_gap * axis_gap)
        y2 = x2 * edge2_gap * edge2_gap / (axis_sq * shrink)
    ratio = axis_gap / edge2_gap
    return _checked((y1, y2, x3 * ratio, x4 * ratio), coords, "t", t)


def twist_p_form(coords: AnnulusCoords, t) -> AnnulusCoords:
    """Twist by t core lengths, in the axis-endpoint (p1, p2) form."""
    return AnnulusCoords(*twist_from_core(coords, core_geodesic(coords), _check_t(t)))


def twist_closed_form(coords: AnnulusCoords, t) -> AnnulusCoords:
    """Twist by t core lengths, written directly in cosh(L) and e^(+/- L/2)."""
    t = _check_t(t)
    x1, x2, x3, x4 = coords.as_tuple()
    r = math.sqrt(x1 * x2)
    tr = (x1 * (x2 + 1.0) + 1.0) / r
    length = 2.0 * math.acosh(tr / 2.0)
    s = t * length
    if abs(s) > MAX_TWIST_LENGTH:
        raise _out_of_range(f"|t| * L = {abs(s)} exceeds {MAX_TWIST_LENGTH}", coords, "t", t)
    half_up = math.exp(length / 2.0)
    half_down = math.exp(-length / 2.0)
    scale = 2.0 * (x1 * x2 * math.cosh(length) - 2.0 * r * math.cosh(length / 2.0) + x1 + 1.0)
    outer_a = r * half_down - x1 - 1.0
    outer_b = r * half_up - x1 - 1.0
    inner_a = r * half_down - 1.0
    inner_b = r * half_up - 1.0
    if s <= _SHIFT_THRESHOLD:
        grow = math.exp(s)
        outer = outer_a * grow - outer_b
        inner = inner_a * grow - inner_b
        y1 = x1 * scale * grow / (outer * outer)
        y2 = x2 * inner * inner / (scale * grow)
    else:
        shrink = math.exp(-s)
        outer = outer_a - outer_b * shrink
        inner = inner_a - inner_b * shrink
        y1 = x1 * scale * shrink / (outer * outer)
        y2 = x2 * inner * inner / (scale * shrink)
    ratio = outer / inner
    return AnnulusCoords(*_checked((y1, y2, x3 * ratio, x4 * ratio), coords, "t", t))


def twist_oracle(coords: AnnulusCoords, t) -> AnnulusCoords:
    """First-principles twist: move the vertices, re-read the cross ratios.

    Builds the endpoint configuration, pushes the moving vertices 0, x1, x3
    through the stratum map, and evaluates the four quadruples of
    ARC_QUADRUPLES on the displaced configuration (1, x4, infinity and x2
    stay put).  Shares no algebra with the closed forms beyond the stratum
    map itself, so it serves as their independent check.
    """
    t = _check_t(t)
    ends = endpoints(coords)
    m = stratum_map(coords, t)
    one = ProjectivePoint(1.0)
    moved_zero = m.apply(ProjectivePoint(0.0))
    moved_x1 = m.apply(ProjectivePoint(ends.x1))
    moved_x3 = m.apply(ProjectivePoint(ends.x3))
    y1 = cross_ratio(moved_zero, one, INFINITY, moved_x1)
    y2 = cross_ratio(moved_x1, moved_zero, INFINITY, ProjectivePoint(ends.x2))
    y3 = cross_ratio(moved_zero, INFINITY, moved_x1, moved_x3)
    y4 = cross_ratio(one, ProjectivePoint(ends.x4), INFINITY, moved_zero)
    return AnnulusCoords(y1, y2, y3, y4)


def _dehn_forward(values):
    x1, x2, x3, x4 = values
    grow = x1 + 1.0
    return (x1 * x1 * x2 / (grow * grow), 1.0 / x1, grow * x3, grow * x4)


def _dehn_backward(values):
    # inverse of _dehn_forward, solved for the preimage
    y1, y2, y3, y4 = values
    shrink = y2 / (1.0 + y2)
    return (1.0 / y2, y1 * (1.0 + y2) ** 2, shrink * y3, shrink * y4)


def dehn_twist(coords: AnnulusCoords, m: int) -> AnnulusCoords:
    """m-fold Dehn twist: the integer-parameter flow as a rational map.

    Iterates (X1^2 X2/(X1+1)^2, 1/X1, (X1+1) X3, (X1+1) X4) for positive m
    and its rational inverse for negative m.  No transcendental function is
    evaluated, so the output is an exact rational expression in the inputs
    up to rounding.
    """
    if not isinstance(m, int):
        raise TypeError(f"twist count must be an integer, got {type(m).__name__}")
    values = coords.as_tuple()
    step = _dehn_forward if m >= 0 else _dehn_backward
    try:
        for _ in range(abs(m)):
            values = step(values)
    except ArithmeticError as exc:  # a coordinate reached 0 or overflowed mid-iteration
        raise _out_of_range(f"Dehn iteration raised {type(exc).__name__}", coords, "m", m) from None
    return AnnulusCoords(*_checked(values, coords, "m", m))
