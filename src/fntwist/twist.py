"""The Fenchel-Nielsen twist flow on annulus coordinates.

Three independent routes compute the twisted quadruple:

* twist_p_form, the flow's production route, a rational function of e^(t L)
  and the axis endpoints p1, p2 taken from the quadratic route; callers
  that need no AnnulusCoords (a flow, a local twist) call its two halves,
  core_geodesic and twist_from_core, and a trajectory reuses one core;
* twist_closed_form, the same map written directly in cosh(L), cosh(L/2)
  and e^(+/- L/2), kept as an algebraic reference;
* twist_oracle, the Fenchel-Nielsen translation tau -> tau + t L of the
  twist coordinate at fixed core length L, a check that shares no algebra
  with the p-form.  stratum_map gives the map of the moving side as a matrix.

_growth owns t: it converts, checks and caps it and returns it with the scale
pair (moved, fixed), moved / fixed = e^(t L), so p-form and the closed form
write each gap A e^(t L) - B once, as A moved - B fixed (twist_from_core, the
hot path, takes the pair inline for a plain float t); the oracle uses only t.
stratum_map's det-1 diagonal takes its own e^(+/- t L/2): scaling (moved,
fixed) to det 1 loses range.

At integer parameters the flow is a power of the Dehn twist: dehn_twist
is the oracle's translation at t = m, O(1) in m, and verify checks it
against the rational map.  All routes accept negative t; positive t
twists boundary points toward the negative axis endpoint p2.
"""

from __future__ import annotations

import math

from .annulus import _MIN_NORMAL, AnnulusCoords, _number_text, core_geodesic, length_trace
from .mobius import MobiusMap

# Beyond this |t| * L the twisted quadruple itself leaves double range
# (X2' grows like e^(t L)); _growth moves e^(t L) to the fixed side of
# its scale pair already at 300 to keep intermediates bounded.
MAX_TWIST_LENGTH = 650.0
_SHIFT_THRESHOLD = 300.0
_INF = math.inf  # a module global: one dict load, not math's attribute lookup on top


class TwistRangeError(OverflowError):
    """Raised past the |t| * L cap, or when a result or an intermediate leaves double range."""


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
    return TwistRangeError(f"{why} for coords {tuple(coords)}, {name} = {_number_text(value)}; "
                           "result not representable")


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
    if not (_MIN_NORMAL <= y1 < _INF and _MIN_NORMAL <= y2 < _INF
            and _MIN_NORMAL <= y3 < _INF and _MIN_NORMAL <= y4 < _INF):
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
    top1, bottom1 = x1 * axis_sq * moved * fixed, axis_gap * axis_gap
    top2, bottom2 = x2 * edge2_gap * edge2_gap, axis_sq * moved * fixed
    if not bottom1 >= _MIN_NORMAL:  # 0 or subnormal: too few bits left to divide by
        raise _out_of_range("the axis gap vanished", coords, "t", t)
    # a subnormal operand can divide back into the normal range with wrong digits
    if not (top1 >= _MIN_NORMAL and top2 >= _MIN_NORMAL and bottom2 >= _MIN_NORMAL):
        raise _out_of_range("an intermediate product underflowed", coords, "t", t)
    y1, y2 = top1 / bottom1, top2 / bottom2
    ratio = axis_gap / edge2_gap
    y3, y4 = x3 * ratio, x4 * ratio
    if (_MIN_NORMAL <= y1 < _INF and _MIN_NORMAL <= y2 < _INF
            and _MIN_NORMAL <= y3 < _INF and _MIN_NORMAL <= y4 < _INF):
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
    """Fenchel-Nielsen twist: translate the twist coordinate tau by t L at fixed L."""
    return _fenchel_nielsen(coords, t, "t")


def dehn_twist(coords: AnnulusCoords, m: int) -> AnnulusCoords:
    """m-fold Dehn twist: the Fenchel-Nielsen translation tau -> tau + m L, O(1) in m.

    A count with |m| L above MAX_TWIST_LENGTH fails before m becomes a float.
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError(f"twist count must be an integer, got {type(m).__name__}")
    return _fenchel_nielsen(coords, m, "m")


def _translation_core(x1: float, x2: float):
    """(L, tr, sinh(L/2), sqrt X1, r, X1 X2 - 1) of the translation, for any positive X1, X2.

    With r = sqrt(X1 X2) and d = tr - 2 = ((r - 1)^2 + X1)/r: sinh(L/2) = sqrt(d (d + 4))/2,
    L = 2 asinh(sinh(L/2)) and tr = 2 + d.  d > 0 keeps its digits where tr - 2 would
    cancel, so, unlike length_trace, no input is too close to parabolic.
    """
    q1 = math.sqrt(x1)
    r = q1 * math.sqrt(x2)
    if 0.5 < r < 1.5:  # X1 X2 - 1 cancels: round it once from the exact product
        (n1, d1), (n2, d2) = x1.as_integer_ratio(), x2.as_integer_ratio()
        pm1 = (n1 * n2 - d1 * d2) / (d1 * d2)
        rm1 = pm1 / (r + 1.0)
    else:
        pm1, rm1 = x1 * x2 - 1.0, r - 1.0
    d = rm1 * (rm1 / r) + x1 / r  # not (rm1^2 + X1)/r, whose rm1^2 overflows
    sigma = math.sqrt(d) * math.sqrt(d + 4.0) / 2.0
    return 2.0 * math.asinh(sigma), 2.0 + d, sigma, q1, r, pm1


def _fenchel_nielsen(coords: AnnulusCoords, t, name: str) -> AnnulusCoords:
    """The twist by t (name "t", any number) or by the int count m (name "m"), in O(1).

    Shares with the p-form only _growth and the result check.  With _translation_core's
    invariants, sinh(tau/2) = (1 - X1 X2 - X1)/(2 sqrt(X1)), and X3 r and X4 r are invariant.
    With h = (tau + t L)/2 the result has X2' = (cosh h / sinh(L/2))^2 and
    sqrt(X1') = 1/(sinh h + R), R = hypot(sinh h, sqrt(X2' + 1)).
    """
    x1, x2, x3, x4 = coords
    length, _, sigma, q1, r, pm1 = _translation_core(x1, x2)
    if name == "t":
        t = _growth(coords, t, length)[0]
    elif abs(t) > MAX_TWIST_LENGTH / length:  # int-float comparison is exact: no overflow
        raise _out_of_range(f"|m| * L exceeds {MAX_TWIST_LENGTH} (L = {length!r})",
                            coords, name, t)
    h = math.asinh((-pm1 - x1) / (2.0 * q1)) + t * (length / 2.0)  # an int m rounds as float(m)
    try:
        sh, up = math.sinh(h), math.cosh(h) / sigma
        y2 = up * up
        big = math.hypot(sh, math.sqrt(y2 + 1.0))
    except OverflowError:
        raise _out_of_range("a Fenchel-Nielsen intermediate overflowed", coords, name, t) from None
    # sinh h + R cancels for h < 0, where 1/(sinh h + R) = (R - sinh h)/(X2' + 1)
    q1 = 1.0 / (sh + big) if h >= 0.0 else (big - sh) / (y2 + 1.0)
    ratio = r / (q1 * up)  # r / r'
    return _checked((q1 * q1, y2, x3 * ratio, x4 * ratio), coords, name, t)
