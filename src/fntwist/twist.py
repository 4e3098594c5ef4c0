"""The Fenchel-Nielsen twist flow on annulus coordinates.

Three independent routes compute the twisted quadruple:

* twist_p_form, the one production route, a rational function of e^(t L)
  and the axis endpoints p1, p2 taken from the quadratic route; callers
  that need no AnnulusCoords (a flow, a local twist) call its two halves,
  core_geodesic and twist_from_core, and a trajectory reuses one core;
* twist_closed_form, the same map written directly in cosh(L), cosh(L/2)
  and e^(+/- L/2), kept as an algebraic reference;
* twist_oracle, a first-principles check that shares only p1, p2 and L
  with the p-form: it twists the endpoint configuration in the axis frame
  w = (p - p1)/(p - p2), where the map is w -> e^(t L) w, and re-reads the
  four cross ratios there.  stratum_map gives the same map as a matrix.

_growth owns t: it converts, checks and caps it and returns it with the scale
pair (moved, fixed), moved / fixed = e^(t L), so each route writes each gap
A e^(t L) - B once, as A moved - B fixed (twist_from_core, the hot path, takes
the pair inline for a plain float t).  stratum_map's det-1 diagonal takes its
own e^(+/- t L/2): scaling (moved, fixed) to det 1 loses range.

At integer parameters the flow is a power of the Dehn twist, a rational
map implemented separately in dehn_twist.  All routes accept negative t;
positive t twists boundary points toward the negative axis endpoint p2.
"""

from __future__ import annotations

import math

from .annulus import _MIN_NORMAL, AnnulusCoords, core_geodesic, endpoints, length_trace
from .mobius import MobiusMap

# Beyond this |t| * L the twisted quadruple itself leaves double range
# (X2' grows like e^(t L)); _growth moves e^(t L) to the fixed side of
# its scale pair already at 300 to keep intermediates bounded.
MAX_TWIST_LENGTH = 650.0
_SHIFT_THRESHOLD = 300.0


class TwistRangeError(OverflowError):
    """Raised when |t| * L is too large for the result to be representable."""


def stratum_map(coords: AnnulusCoords, t) -> MobiusMap:
    """The hyperbolic map applied to the moving side of the cut.

    Conjugates diag(e^(tL/2), e^(-tL/2)) back from the axis-normalizing
    frame, so its axis endpoints are exactly (p1, p2) and its translation
    length is |t| L; at t = 0 it is the identity.  Past the |t| L cap it
    raises TwistRangeError, as the twist routes do.
    """
    length, _, p1, p2 = core_geodesic(coords)
    s = _growth(coords, t, length)[0] * length  # t as a checked float, times L
    # normalizer sends p1 to 0 and p2 to infinity; constructor supplies 1/sqrt(p1-p2)
    frame = MobiusMap(1.0, -p1, 1.0, -p2)
    diagonal = MobiusMap(math.exp(s / 2.0), 0.0, 0.0, math.exp(-s / 2.0))
    return frame.inverse().compose(diagonal).compose(frame)


def _out_of_range(why: str, coords: AnnulusCoords, name: str, value) -> TwistRangeError:
    try:
        value = repr(value)
    except ValueError:  # a number past the int-to-str digit limit: give its size instead
        bits = abs(int(value)).bit_length()
        value = f"{'-' if value < 0 else ''}<{bits}-bit {type(value).__name__}>"
    return TwistRangeError(
        f"{why} for coords {tuple(coords)}, {name} = {value}; result not representable"
    )


def _growth(coords: AnnulusCoords, t, length: float):
    """t as a float with its scale pair: (t, e^(t L), 1.0), or (t, 1.0, e^(-t L)) past 300.

    ValueError for a non-finite t; TwistRangeError past the |t| L cap or float range.
    """
    try:
        t = float(t)
    except OverflowError:  # a number past float range, so |t| L is beyond the cap at every L
        raise _out_of_range(f"|t| is past float range, so |t| * L exceeds {MAX_TWIST_LENGTH}",
                            coords, "t", t) from None
    s = t * length
    if not abs(s) <= MAX_TWIST_LENGTH:  # one test on the hot path; also true for nan
        if not math.isfinite(t):
            raise ValueError(f"twist parameter must be finite, got {t!r}")
        raise _out_of_range(f"|t| * L = {abs(s)} exceeds {MAX_TWIST_LENGTH}", coords, "t", t)
    if s <= _SHIFT_THRESHOLD:
        return t, math.exp(s), 1.0
    return t, 1.0, math.exp(-s)


def _checked(values, coords: AnnulusCoords, name: str, value) -> AnnulusCoords:
    """The twisted values as AnnulusCoords, each checked a finite normal double, not their trace."""
    y1, y2, y3, y4 = values  # chained comparisons: False for subnormals, 0, inf and nan alike
    if not (_MIN_NORMAL <= y1 < math.inf and _MIN_NORMAL <= y2 < math.inf
            and _MIN_NORMAL <= y3 < math.inf and _MIN_NORMAL <= y4 < math.inf):
        raise _out_of_range(f"twisted coordinates {values} left the normal positive finite range",
                            coords, name, value)
    return tuple.__new__(AnnulusCoords, values)


def twist_from_core(coords: AnnulusCoords, core, t):
    """The twisted quadruple as a 4-tuple, given core = core_geodesic(coords).

    The invariants depend only on the start, so a trajectory computes them
    once and calls this for every t.  A plain float t within the cap takes
    _growth's scale pair inline; any other t goes through _growth.
    """
    length, _, p1, p2 = core
    if type(t) is float and abs(s := t * length) <= MAX_TWIST_LENGTH:  # False for nan too
        if s <= _SHIFT_THRESHOLD:  # _growth's two branches, bit for bit
            moved, fixed = math.exp(s), 1.0
        else:
            moved, fixed = 1.0, math.exp(-s)
    else:
        t, moved, fixed = _growth(coords, t, length)
    x1, x2, x3, x4 = coords
    axis_sq = p1 * p1 + p2 * p2 + 2.0 * x1  # equals (p1 - p2)^2
    # x1 + p2 < 0 < x1 + p1, so both gaps add like-signed terms.  x1 + p2 cancels
    # as p1 nears 1 (|x1 + p2| = |1 - p1| |p2|); there it is -x1^2 x2 / (x1 + p1),
    # as (x1 + p1)(x1 + p2) is core_geodesic's quadratic at -x1, namely -x1^2 x2
    neg = x1 + p2
    if not -neg >= -1e-3 * p2:  # |1 - p1| < 1e-3, or nan
        neg = -(x1 * x1 * x2 / (x1 + p1))
    axis_gap = (x1 + p1) * moved - neg * fixed
    edge2_gap = p1 * moved - p2 * fixed
    try:
        y1 = x1 * axis_sq * moved * fixed / (axis_gap * axis_gap)
        y2 = x2 * edge2_gap * edge2_gap / (axis_sq * moved * fixed)
    except ZeroDivisionError:  # the axis gap's square underflowed to 0
        raise _out_of_range("the axis gap vanished", coords, "t", t) from None
    ratio = axis_gap / edge2_gap
    y3, y4 = x3 * ratio, x4 * ratio
    if (_MIN_NORMAL <= y1 < math.inf and _MIN_NORMAL <= y2 < math.inf
            and _MIN_NORMAL <= y3 < math.inf and _MIN_NORMAL <= y4 < math.inf):
        return y1, y2, y3, y4
    return _checked((y1, y2, y3, y4), coords, "t", t)  # raises


def twist_p_form(coords: AnnulusCoords, t) -> AnnulusCoords:
    """Twist four positive finite floats by t core lengths; core_geodesic checks their trace."""
    return tuple.__new__(AnnulusCoords, twist_from_core(coords, core_geodesic(coords), t))


def twist_closed_form(coords: AnnulusCoords, t) -> AnnulusCoords:
    """Twist by t core lengths, written directly in cosh(L) and e^(+/- L/2)."""
    x1, x2, x3, x4 = coords
    length = length_trace(x1, x2)[0]
    t, moved, fixed = _growth(coords, t, length)
    r = math.sqrt(x1 * x2)
    half_up = math.exp(length / 2.0)
    half_down = math.exp(-length / 2.0)
    scale = 2.0 * (x1 * x2 * math.cosh(length) - 2.0 * r * math.cosh(length / 2.0) + x1 + 1.0)
    outer_a = r * half_down - x1 - 1.0
    outer_b = r * half_up - x1 - 1.0
    inner_a = r * half_down - 1.0
    inner_b = r * half_up - 1.0
    outer = outer_a * moved - outer_b * fixed
    inner = inner_a * moved - inner_b * fixed
    try:
        y1 = x1 * scale * moved * fixed / (outer * outer)
        y2 = x2 * inner * inner / (scale * moved * fixed)
    except ZeroDivisionError:  # outer * outer or scale * moved * fixed underflowed
        raise _out_of_range("a closed-form denominator vanished", coords, "t", t) from None
    ratio = outer / inner
    return _checked((y1, y2, x3 * ratio, x4 * ratio), coords, "t", t)


def twist_oracle(coords: AnnulusCoords, t) -> AnnulusCoords:
    """First-principles twist: move the vertices, re-read the cross ratios.

    Shares with the p-form only (p1, p2, L) from core_geodesic, _growth
    (t's check and cap, and the scale pair) and the positive/finite guard; its
    twist and cross-ratio algebra is its own.  Cross ratios are Mobius
    invariant, so it reads the endpoint configuration in the axis frame
    W(v) = (v - p1)/(v - p2), where the twist multiplies W of the moving
    vertices 0, x1, x3 by e^(t L) and fixes 1, x2, x4 and infinity (W = 1),
    and evaluates the cross ratios X1 = [0:1:inf:x1], X2 = [x1:0:inf:x2],
    X3 = [0:inf:x1:x3] and X4 = [1:x4:inf:0].
    """
    length, _, p1, p2 = core_geodesic(coords)
    t, moved, fixed = _growth(coords, t, length)  # W of the moving side scales by moved / fixed
    x1, x2, x3, x4 = coords
    _, e2, e3, e4 = endpoints(coords)
    width = p1 - p2
    try:  # every gap is a sum of like-signed terms
        # v - p2 for v = 0, 1, x4, x1, x3 (positive) and x2 (negative)
        g0, g_one, g4 = -p2, 1.0 - p2, e4 - p2
        g1 = x1 * x1 * x2 / (x1 + p1)  # -(x1 + p2)
        g3 = x1 / (x3 + 1.0) + g1
        g2 = -x1 * x2 * p1 / (x1 + p1)
        # twisted W, negative on the moving side and positive on the fixed side
        m0, m1 = moved * -p1 / g0, moved * -(x1 + p1) / g1
        f_one = fixed * (x1 * x2 / g_one) / g_one  # 1 - p1 = X1 X2/(1 - p2)
        f2 = fixed * (e2 - p1) / g2
        # within a side W(u) - W(v) = width (u - v)/((u - p2)(v - p2)); W(v) - 1 = -width/(v - p2)
        d10 = moved * width * -x1 / (g1 * g0)  # W'(x1) - W'(0)
        d30 = moved * width * e3 / (g3 * g0)
        d31 = moved * width * (x1 / (x3 + 1.0)) / (g3 * g1)
        d_inf_one = fixed * width / g_one  # W'(inf) - W'(1)
        d2_inf = -fixed * width / g2
        d_inf_4 = fixed * width / g4
        d4_one = fixed * width / x4 / (g4 * g_one)  # x4 - 1 = 1/X4
        # [x:y:z:w] = (w - x)/(w - z) * (z - y)/(y - x) on the four quadruples above
        y1 = d10 / (m1 - fixed) * d_inf_one / (f_one - m0)
        y2 = (f2 - m1) / d2_inf * (fixed - m0) / -d10
        y3 = d30 / d31 * (m1 - fixed) / (fixed - m0)
        y4 = (m0 - f_one) / (m0 - fixed) * d_inf_4 / d4_one
    except ZeroDivisionError:  # a gap underflowed
        raise _out_of_range("a vertex gap vanished", coords, "t", t) from None
    return _checked((y1, y2, y3, y4), coords, "t", t)


def dehn_twist(coords: AnnulusCoords, m: int) -> AnnulusCoords:
    """m-fold Dehn twist: the integer-parameter flow as a rational map.

    Iterates (X1^2 X2/(X1+1)^2, 1/X1, (X1+1) X3, (X1+1) X4) for positive m
    and its rational inverse for negative m.  No transcendental function
    enters the output, so it is an exact rational expression in the inputs
    up to rounding; only the guard that |m| L stays within MAX_TWIST_LENGTH,
    checked before iterating, uses the core length L.
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError(f"twist count must be an integer, got {type(m).__name__}")
    x1, x2, x3, x4 = coords
    length = length_trace(x1, x2)[0]
    if abs(m) > MAX_TWIST_LENGTH / length:  # int-float comparison is exact: no overflow for huge m
        raise _out_of_range(f"|m| * L exceeds {MAX_TWIST_LENGTH} (L = {length!r})",
                            coords, "m", m)
    try:  # one of the two ranges is empty
        for _ in range(m):
            grow = x1 + 1.0
            x1, x2, x3, x4 = x1 * x1 * x2 / (grow * grow), 1.0 / x1, grow * x3, grow * x4
        for _ in range(-m):  # the forward map solved for its preimage
            shrink = x2 / (1.0 + x2)
            x1, x2, x3, x4 = 1.0 / x2, x1 * (1.0 + x2) ** 2, shrink * x3, shrink * x4
    except ArithmeticError as exc:  # a coordinate reached 0 or overflowed mid-iteration
        raise _out_of_range(f"Dehn iteration raised {type(exc).__name__}", coords, "m", m) from None
    return _checked((x1, x2, x3, x4), coords, "m", m)
