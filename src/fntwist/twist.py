"""The Fenchel-Nielsen twist flow on annulus coordinates.

Three independent routes compute the twisted quadruple:

* twist_p_form, the flow's route, a rational function of e^(t L) and the
  axis endpoints p1, p2 taken from the quadratic route.  Its kernel _p_form
  takes L, p1, p2 and the guarded gap x1 + p2 from annulus._core, runs the
  flow in its own body, and returns a plain 4-tuple: twist_p_form wraps it as
  AnnulusCoords, and a local twist uses it as it is;
* twist_closed_form, the same map written directly in cosh(L), cosh(L/2)
  and e^(+/- L/2), kept as an algebraic reference;
* twist_oracle, the Fenchel-Nielsen translation tau -> tau + t L of the
  twist coordinate at fixed core length L, sharing no algebra with the
  p-form; fntwist twist runs it.  Its kernel _fenchel_nielsen also runs a
  point in one body and returns L and the trace with the result, which
  fntwist twist and dehn report.  stratum_map gives the moving side's map.

sample_flow, which fntwist flow runs, calls _core and _growth once per trajectory:
a row costs one exp and a dozen products, equals twist_p_form bit for bit, and if
a test fails goes to _p_form, then _core.

Frames per call: twist_p_form 3 (itself, _p_form, _core), a local twist's
kernel 2 (_p_form, _core), twist_oracle and dehn_twist 2
(itself, _fenchel_nielsen); _growth is called only on a failing path or for
a t that is not a plain float (nor, for the translation, a plain int), and
_checked and the error builders only on a failing path.

_growth owns t and the Dehn count m: it converts, checks and caps either and
returns it with the scale pair (moved, fixed), moved / fixed = e^(t L), so
p-form and the closed form write each gap A e^(t L) - B once, as A moved - B
fixed (the two kernels take its cap test inline, and _p_form the scale pair
too); the oracle uses only t.  stratum_map's det-1 diagonal takes its own
e^(+/- t L/2): scaling (moved, fixed) to det 1 loses range.

At integer parameters the flow is a power of the Dehn twist: dehn_twist
is the oracle's translation at t = m, O(1) in m, and verify checks it
against the rational map.  All routes accept negative t; positive t
twists boundary points toward the negative axis endpoint p2.
"""

from __future__ import annotations

import math

from .annulus import (_MIN_NORMAL, HYPERBOLICITY_MARGIN, AnnulusCoords, _core, _number_text,
                      core_geodesic)
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


def _growth(coords: AnnulusCoords, t, length: float, name: str = "t"):
    """t as a float with its scale pair: (t, e^(t L), 1.0), or (t, 1.0, e^(-t L)) past 300.

    The one check of t and of the Dehn count m (name "m"): ValueError for a non-finite t;
    TwistRangeError past the |t| L cap or float range, naming the parameter as given.
    """
    try:
        value = float(t)
    except OverflowError:  # a number past float range, so |t| L is beyond the cap at every L
        raise _out_of_range(f"|{name}| is past float range, so |{name}| * L exceeds "
                            f"{MAX_TWIST_LENGTH}", coords, name, t) from None
    s = value * length
    if not abs(s) <= MAX_TWIST_LENGTH:  # one test on the hot path; also true for nan
        if not math.isfinite(value):
            raise ValueError(f"twist parameter must be finite, got {value!r}")
        raise _out_of_range(f"|{name}| * L = {abs(s)} exceeds {MAX_TWIST_LENGTH}", coords, name, t)
    if s <= _SHIFT_THRESHOLD:
        return value, math.exp(s), 1.0
    return value, 1.0, math.exp(-s)


def _checked(values, coords: AnnulusCoords, name: str, value) -> AnnulusCoords:
    """The twisted values as AnnulusCoords, each checked a finite normal double, not their trace."""
    y1, y2, y3, y4 = values  # chained comparisons: False for subnormals, 0, inf and nan alike
    if not (_MIN_NORMAL <= y1 < _INF and _MIN_NORMAL <= y2 < _INF
            and _MIN_NORMAL <= y3 < _INF and _MIN_NORMAL <= y4 < _INF):
        if y1 != y1 or y2 != y2 or y3 != y3 or y4 != y4:  # nan: inf / inf or inf * 0 upstream
            raise _out_of_range("an intermediate overflowed", coords, name, value)
        raise _out_of_range(f"twisted coordinates {values} left the normal positive finite range",
                            coords, name, value)
    return tuple.__new__(AnnulusCoords, values)


def _p_form(coords, t):
    """twist_p_form's values as a plain 4-tuple: the core, then the flow in one body.

    _core checks X1, X2 once and gives L, p1, p2 and the guarded gap x1 + p2.  A plain
    float t within the cap takes _growth's scale pair inline; any other t goes through
    _growth.  Errors come in the order trace, discriminant, t and the cap, axis gap,
    underflowed product, result range.
    """
    x1, x2, x3, x4 = coords
    length, _, p1, p2, gap = _core(x1, x2)
    if type(t) is float and abs(s := t * length) <= MAX_TWIST_LENGTH:  # False for nan too
        if s <= _SHIFT_THRESHOLD:  # _growth's two branches, bit for bit
            moved, fixed = math.exp(s), 1.0
        else:
            moved, fixed = 1.0, math.exp(-s)
    else:
        t, moved, fixed = _growth(coords, t, length)
    axis_sq = p1 * p1 + p2 * p2 + 2.0 * x1  # equals (p1 - p2)^2
    # gap = x1 + p2 < 0 < x1 + p1, so both gaps add like-signed terms
    axis_gap = (x1 + p1) * moved - gap * fixed
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
    """Twist four positive finite floats by t core lengths; _core checks their trace."""
    return tuple.__new__(AnnulusCoords, _p_form(coords, t))


def sample_flow(coords: AnnulusCoords, t_max: float, steps: int):
    """steps + 1 samples (t, X1, X2, X3, X4, L, trace) at uniform t from 0.0 to t_max.

    Each row is t, twist_p_form(coords, t) and the L and trace that _core gives for its
    X1', X2', bit for bit; a row takes no axis endpoints, so it needs no discriminant.
    _core and p-form's other t-independent terms are computed once: a row costs
    one exp, a dozen products and its own L and trace, so the rows exhibit, rather than
    assume, their invariance.  A row that fails any test goes to _p_form, then _core,
    which raise its error in their order: cap and guards, result range, trace.  A span
    whose end is past the |t| L cap or not finite, or steps < 1, raises before any
    sample.  A sample's ValueError gets its t and the input coords appended.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps!r}")
    x1, x2, x3, x4 = coords
    length, _, p1, p2, gap = _core(x1, x2)
    t_max = _growth(coords, t_max, length)[0]
    # _p_form's terms that do not depend on t, in its order of operations
    axis_sq = p1 * p1 + p2 * p2 + 2.0 * x1
    near = x1 + p1
    x1_axis_sq = x1 * axis_sq
    exp, sqrt, acosh, inf = math.exp, math.sqrt, math.acosh, math.inf
    cap, shift, tiny = MAX_TWIST_LENGTH, _SHIFT_THRESHOLD, _MIN_NORMAL
    lowest = 2.0 + HYPERBOLICITY_MARGIN
    samples = []
    append = samples.append
    try:
        for i in range(steps + 1):
            t = i * t_max / steps or 0.0  # 0.0, not -0.0, at a negative span's start
            s = t * length
            # one of _growth's scale pair is 1.0, e the other: a product by 1.0 drops out exactly
            if s <= shift:
                e = exp(s)
                axis_gap, edge2_gap = near * e - gap, p1 * e - p2
            else:
                e = exp(-s)
                axis_gap, edge2_gap = near - gap * e, p1 - p2 * e
            top1, bottom1 = x1_axis_sq * e, axis_gap * axis_gap
            top2, bottom2 = x2 * edge2_gap * edge2_gap, axis_sq * e
            # _p_form's cap and guards, its result range, then _core's trace arithmetic and tests
            if (-cap <= s <= cap and bottom1 >= tiny and top1 >= tiny and top2 >= tiny
                    and bottom2 >= tiny and tiny <= (y1 := top1 / bottom1) < inf
                    and tiny <= (y2 := top2 / bottom2) < inf
                    and tiny <= (y3 := x3 * (ratio := axis_gap / edge2_gap)) < inf
                    and tiny <= (y4 := x4 * ratio) < inf
                    and (product := y1 * y2) >= tiny
                    and lowest < (tr := (y1 * (y2 + 1.0) + 1.0) / sqrt(product)) < inf):
                append((t, y1, y2, y3, y4, 2.0 * acosh(tr / 2.0), tr))
            else:  # a test failed: _p_form, then _core, raise the row's own error
                y1, y2, y3, y4 = _p_form(coords, t)
                append((t, y1, y2, y3, y4, *_core(y1, y2)[:2]))
    except ValueError as exc:  # a sample's own X1, X2 failed the trace check
        raise type(exc)(f"{exc}; flow sample at t = {t!r} from coords {tuple(coords)}") from None
    return samples


def twist_closed_form(coords: AnnulusCoords, t) -> AnnulusCoords:
    """Twist by t core lengths, written directly in cosh(L) and e^(+/- L/2)."""
    x1, x2, x3, x4 = coords
    length = _core(x1, x2)[0]
    t, moved, fixed = _growth(coords, t, length)
    r = math.sqrt(x1 * x2)
    half_down = math.exp(-length / 2.0)
    try:  # cosh(L) passes the double range once L nears 710
        half_up = math.exp(length / 2.0)
        scale = 2.0 * (x1 * x2 * math.cosh(length) - 2.0 * r * math.cosh(length / 2.0) + x1 + 1.0)
    except OverflowError:
        raise _out_of_range("a closed-form intermediate overflowed", coords, "t", t) from None
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
    return _fenchel_nielsen(coords, t, "t")[0]


def dehn_twist(coords: AnnulusCoords, m: int) -> AnnulusCoords:
    """m-fold Dehn twist: the Fenchel-Nielsen translation tau -> tau + m L, O(1) in m."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError(f"twist count must be an integer, got {type(m).__name__}")
    return _fenchel_nielsen(coords, m, "m")[0]


def _fenchel_nielsen(coords: AnnulusCoords, t, name: str):
    """(twisted, L, |trace|): the twist by t (name "t") or by the int count m (name "m"), in O(1).

    Shares with the p-form only _growth and the result check.  With r = sqrt(X1 X2) and
    d = tr - 2 = ((r - 1)^2 + X1)/r: sinh(L/2) = sqrt(d (d + 4))/2, L = 2 asinh(sinh(L/2))
    and tr = 2 + d.  d > 0 keeps its digits where tr - 2 would cancel, so, unlike
    _core, no input is too close to parabolic.  sinh(tau/2) = (1 - X1 (X2 + 1))/(2
    sqrt(X1)), and X3 r and X4 r are invariant.  With h = (tau + t L)/2 the result has
    X2' = (cosh h / sinh(L/2))^2 and sqrt(X1') = 1/(sinh h + R), R = hypot(sinh h, sqrt(X2' + 1)).
    """
    x1, x2, x3, x4 = coords
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
    length = 2.0 * math.asinh(sigma)
    if not length < _INF:  # rm1 / r overflows once r is below about 5.6e-309
        raise TwistRangeError(f"core length is out of range: L passes the double range "
                              f"for X1 = {x1!r}, X2 = {x2!r}")
    # _growth's cap test inline for a plain float t or an int m within float range (m * L
    # converts m to float, which raises past that range); messages name t as given
    if (type(t) is float or type(t) is int and -1e308 < t < 1e308) and abs(
            t * length) <= MAX_TWIST_LENGTH:
        shift = t * (length / 2.0)
    else:
        shift = _growth(coords, t, length, name)[0] * (length / 2.0)
    h = math.asinh((-pm1 - x1) / (2.0 * q1)) + shift
    if not h > -_INF:  # the numerator is below 1, so h is -inf only where it overflowed
        raise TwistRangeError(f"twist coordinate tau is out of range: X1 * (X2 + 1) passes "
                              f"the double range for X1 = {x1!r}, X2 = {x2!r}")
    try:
        sh, up = math.sinh(h), math.cosh(h) / sigma
    except OverflowError:
        raise _out_of_range("a Fenchel-Nielsen intermediate overflowed", coords, name, t) from None
    y2 = up * up
    if not y2 < _INF:  # then R = inf, and 1/(sinh h + R) would lose X1' to 0 or nan
        raise _out_of_range("twisted coordinate X2' passes the double range", coords, name, t)
    big = math.hypot(sh, math.sqrt(y2 + 1.0))
    # sinh h + R cancels for h < 0, where 1/(sinh h + R) = (R - sinh h)/(X2' + 1)
    q1 = 1.0 / (sh + big) if h >= 0.0 else (big - sh) / (y2 + 1.0)
    ratio = r / (q1 * up)  # r / r'
    y1, y3, y4 = q1 * q1, x3 * ratio, x4 * ratio
    if (_MIN_NORMAL <= y1 < _INF and _MIN_NORMAL <= y2 < _INF
            and _MIN_NORMAL <= y3 < _INF and _MIN_NORMAL <= y4 < _INF):
        return tuple.__new__(AnnulusCoords, (y1, y2, y3, y4)), length, 2.0 + d
    return _checked((y1, y2, y3, y4), coords, name, t), length, 2.0 + d  # raises
