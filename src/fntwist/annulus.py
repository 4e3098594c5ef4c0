"""Coordinate model of the hyperbolic annulus with one marked point per boundary.

A point of the deformation space is a quadruple of positive cross-ratio
coordinates (X1, X2, X3, X4), one per arc of the standard triangulation.
From them we reconstruct the boundary endpoints (x1, x2, x3, x4) of a
fundamental domain and the core geodesic data (length, trace, axis
endpoints) of the gluing holonomy along arc 2, both as plain tuples.

The fundamental domain has the vertices x1..x4 and the pinned points 0, 1
and infinity.  Each coordinate is the cross ratio of the quadrilateral
around its arc, read in counterclockwise order starting at an endpoint of
the arc: X1 = [0:1:inf:x1], X2 = [x1:0:inf:x2], X3 = [0:inf:x1:x3] and
X4 = [1:x4:inf:0].  Arc 2 is read across the lift with endpoints
(x1, inf), whose fourth vertex is the gluing image of infinity, x2.
"""

from __future__ import annotations

import math
import sys
from operator import itemgetter

# _core rejects X1, X2 whose holonomy trace is within this margin of the
# parabolic threshold 2: nearer 2, rounding of the trace dominates L.
HYPERBOLICITY_MARGIN = 1e-12
_MIN_NORMAL = sys.float_info.min  # below it, X1 * X2 or a twisted coordinate has lost bits


def _number_text(value) -> str:
    try:
        return repr(value)
    except ValueError:  # a number past the int-to-str digit limit: give its size instead
        bits = abs(int(value)).bit_length()
        return f"{'-' if value < 0 else ''}<{bits}-bit {type(value).__name__}>"


def _coordinate(field, v) -> float:
    try:
        v = float(v)
    except (TypeError, ValueError):
        raise ValueError(f"coordinate {field} must be a number, got {v!r}") from None
    except OverflowError:  # an int or Fraction past float range
        raise ValueError(f"coordinate {field} must be finite, got {_number_text(v)}") from None
    if not 0.0 < v < math.inf:  # one test when v is valid; False for nan, inf, 0 and below
        why = "strictly positive" if math.isfinite(v) else "finite"
        raise ValueError(f"coordinate {field} must be {why}, got {v!r}")
    return v


class AnnulusCoords(tuple):
    """Cross-ratio coordinates (X1, X2, X3, X4): a frozen 4-tuple of positive finite floats."""

    __slots__ = ()

    def __new__(cls, x1, x2, x3, x4):  # each entry becomes a float, checked positive and finite
        try:  # valid entries: one conversion and one range test for all four
            y1, y2, y3, y4 = values = float(x1), float(x2), float(x3), float(x4)
        except Exception:  # whatever float() raised: the per-field checks below raise in order
            pass
        else:
            if (0.0 < y1 < math.inf and 0.0 < y2 < math.inf and 0.0 < y3 < math.inf
                    and 0.0 < y4 < math.inf):  # False for nan, inf, 0 and below
                return tuple.__new__(cls, values)
        return tuple.__new__(cls, (_coordinate("X1", x1), _coordinate("X2", x2),
                                   _coordinate("X3", x3), _coordinate("X4", x4)))

    def __init__(self, x1, x2, x3, x4):  # empty: benchmarks/tracing.py wraps it to count
        pass  # constructions, and it wraps only an __init__ the class defines itself

    x1, x2, x3, x4 = (property(itemgetter(i)) for i in range(4))

    def __repr__(self):
        return "AnnulusCoords(x1=%r, x2=%r, x3=%r, x4=%r)" % self

    def __reduce__(self):  # copy and pickle rebuild through the validating constructor
        return AnnulusCoords, tuple(self)

    def as_tuple(self):
        return tuple(self)


def endpoints(coords: AnnulusCoords):
    """Boundary endpoints (x1, x2, x3, x4) of the fundamental domain, 0, 1, inf pinned.

    Positive coordinates put them in the order x2 < x1 < x3 < 0 < 1 < x4
    on the real line, up to rounding.
    """
    x1, x2, x3, x4 = coords
    return (-x1, -x1 * (x2 + 1.0), -x1 * x3 / (x3 + 1.0), (x4 + 1.0) / x4)


def _core(x1: float, x2: float):
    """(L, |trace|, p1, p2) from X1, X2: the core geodesic's one body, checks and messages.

    ValueError naming X1, X2 if X1 * X2 is below _MIN_NORMAL (the trace would lose digits),
    or if the trace is within HYPERBOLICITY_MARGIN of 2 or not finite; then OverflowError
    naming them if the discriminant passes the double range.  The axis endpoints p1 > 0 > p2
    are the roots of p^2 + (X1(X2+1) - 1) p - X1, taken larger-magnitude root first and the
    companion via the product of roots -X1, so no cancellation occurs.
    """
    product = x1 * x2
    if not product >= _MIN_NORMAL:  # subnormal or 0: its square root keeps only some bits
        raise ValueError(f"holonomy trace is out of range: X1 * X2 = {product!r} is below the "
                         f"smallest normal double for X1 = {x1!r}, X2 = {x2!r}")
    spread = x1 * (x2 + 1.0)
    tr = (spread + 1.0) / math.sqrt(product)
    if not 2.0 + HYPERBOLICITY_MARGIN < tr < math.inf:  # one test when valid; fires for nan too
        if tr <= 2.0 + HYPERBOLICITY_MARGIN:
            raise ValueError(f"holonomy is not hyperbolic: |trace| = {tr} is too close to 2 "
                             f"for X1 = {x1!r}, X2 = {x2!r}")
        raise ValueError(f"holonomy trace is out of range: |trace| = {tr} is not finite "
                         f"for X1 = {x1!r}, X2 = {x2!r}")
    lin = spread - 1.0
    try:
        disc = (spread + 1.0) ** 2 - 4.0 * x1 * x2
    except OverflowError:  # the square passes the double range once X1 * (X2 + 1) nears 1.3e154
        raise OverflowError(f"core geodesic discriminant overflows for X1 = {x1!r}, "
                            f"X2 = {x2!r}") from None
    sq = math.sqrt(disc)
    if lin > 0.0:
        p2 = (-lin - sq) / 2.0
        p1 = -x1 / p2
    else:
        p1 = (-lin + sq) / 2.0
        p2 = -x1 / p1
    return 2.0 * math.acosh(tr / 2.0), tr, p1, p2


def core_geodesic(coords: AnnulusCoords):
    """The core geodesic as (length, |trace|, p1, p2), with axis endpoints p1 > 0 > p2."""
    return _core(coords[0], coords[1])


def coords_from_endpoints(ends) -> AnnulusCoords:
    """Recover the coordinate quadruple from endpoints (x1, x2, x3, x4).

    Inverse of endpoints(): evaluates the four cross ratios of the module
    docstring.  Round-trips to the identity on valid coordinates.
    """
    x1, x2, x3, x4 = ends
    # exactly the order in which all four cross ratios are positive; false for nan
    if not (-math.inf < x2 < x1 < x3 < 0.0 and 1.0 < x4 < math.inf):
        raise ValueError(f"endpoints {tuple(ends)} violate the order "
                         "x2 < x1 < x3 < 0 < 1 < x4 of finite values")
    return AnnulusCoords(-x1, (x2 - x1) / x1, -x3 / (x3 - x1), 1.0 / (x4 - 1.0))
