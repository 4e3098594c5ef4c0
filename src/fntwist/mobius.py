"""Exact-semantics algebra on the boundary circle R u {inf} and in PSL(2,R).

A point of the circle is a float.  An infinite float of either sign is
the one point at infinity: every function tests for it before doing any
arithmetic, and apply and fixed_points return it as math.inf.  Mobius
maps are stored as a canonical determinant-one representative so that
projectively equal matrices compare equal.
"""

from __future__ import annotations

import math

# Default relative tolerance for comparing matrix entries; isclose also
# accepts explicit overrides.
REL_TOL = 1e-9

# Below this |c| a normalized map is treated as upper triangular and gets
# the infinity-fixed-point branch; the quadratic formula would divide by c.
_TRIANGULAR_EPS = 1e-14


class DegenerateCrossRatioError(ValueError):
    """Raised when a cross ratio is requested for a degenerate quadruple."""


class NonHyperbolicError(ValueError):
    """Raised when a hyperbolic-only quantity is requested of a map with |tr| <= 2."""


def cross_ratio(x, y, z, w) -> float:
    """Cross ratio [x:y:z:w] = (w-x)/(w-z) * (z-y)/(y-x) of four boundary points.

    A single argument may be the point at infinity; the two factors that
    contain it cancel algebraically and only the remaining differences are
    evaluated, so no arithmetic with infinities ever happens.

    Raises DegenerateCrossRatioError if two of the points coincide exactly
    or the result is not a finite nonzero real, as for a NaN point.
    """
    pts = [float(x), float(y), float(z), float(w)]
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = pts[i], pts[j]
            if math.isinf(a) and math.isinf(b):
                raise DegenerateCrossRatioError("two of the four points are at infinity")
            if a == b:
                raise DegenerateCrossRatioError(
                    f"coincident points at positions {i} and {j} (value {a})"
                )
    px, py, pz, pw = pts
    if math.isinf(px):
        r = (pz - py) / (pw - pz)
    elif math.isinf(py):
        r = -(pw - px) / (pw - pz)
    elif math.isinf(pz):
        r = -(pw - px) / (py - px)
    elif math.isinf(pw):
        r = (pz - py) / (py - px)
    else:
        r = (pw - px) / (pw - pz) * (pz - py) / (py - px)
    if not math.isfinite(r) or r == 0.0:
        raise DegenerateCrossRatioError("cross ratio degenerated to 0, infinity or NaN")
    return r


class MobiusMap:
    """An element of PSL(2,R) acting on the boundary circle by (a p + b)/(c p + d).

    The constructor requires determinant > 0, rescales the entries to
    determinant one, and fixes the overall sign so that the first nonzero
    entry in (a, b, c, d) order is positive.  That canonical representative
    makes projectively identified matrices compare equal.
    """

    def __init__(self, a, b, c, d):
        a, b, c, d = float(a), float(b), float(c), float(d)
        if not all(math.isfinite(v) for v in (a, b, c, d)):
            raise ValueError("matrix entries must be finite")
        det = a * d - b * c
        if not math.isfinite(det) or det <= 0.0:
            raise ValueError(f"matrix must have positive determinant, got {det}")
        s = math.sqrt(det)
        a, b, c, d = a / s, b / s, c / s, d / s
        for v in (a, b, c, d):
            if v != 0.0:
                if v < 0.0:
                    a, b, c, d = -a, -b, -c, -d
                break
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def apply(self, p) -> float:
        """Fractional linear action; total on the projective line.

        The pole -d/c goes to math.inf and infinity goes to a/c (to itself
        when c = 0).  A NaN point, or one so large that the numerator and
        the denominator both overflow, raises ValueError.
        """
        if math.isinf(p):
            return math.inf if self.c == 0.0 else self.a / self.c
        den = self.c * p + self.d
        if den == 0.0:
            return math.inf
        image = (self.a * p + self.b) / den
        if math.isnan(image):
            raise ValueError(f"no image for point {p!r}: it is NaN, or the quotient overflowed")
        return image

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """Matrix product self * other, so compose(m1, m2) acts as m1 after m2."""
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        return MobiusMap(a, b, c, d)

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def trace_abs(self) -> float:
        return abs(self.a + self.d)

    @property
    def is_hyperbolic(self) -> bool:
        return self.trace_abs() > 2.0

    def translation_length(self) -> float:
        """Hyperbolic translation length 2*acosh(|tr|/2); hyperbolic maps only."""
        tr = self.trace_abs()
        if tr <= 2.0:
            raise NonHyperbolicError(f"|trace| = {tr} <= 2, map has no translation length")
        return 2.0 * math.acosh(tr / 2.0)

    def fixed_points(self):
        """Both boundary fixed points of a hyperbolic map, attracting first.

        For c = 0 (up to normalization noise) the fixed points are infinity
        and b/(d - a).  Otherwise they are the roots of c p^2 + (d-a) p - b,
        computed by taking the larger-magnitude root first and recovering
        the other from the product of roots, which avoids cancellation.
        The value c p + d at a fixed point is the corresponding eigenvalue,
        so the attracting point is the one with |c p + d| > 1.
        """
        if not self.is_hyperbolic:
            raise NonHyperbolicError(f"|trace| = {self.trace_abs()} <= 2, no boundary axis")
        a, b, c, d = self.a, self.b, self.c, self.d
        if abs(c) < _TRIANGULAR_EPS:
            finite = b / (d - a)
            if abs(a) > abs(d):
                return (math.inf, finite)
            return (finite, math.inf)
        B = d - a
        disc = B * B + 4.0 * b * c  # equals trace^2 - 4 > 0 for det-one hyperbolic
        sq = math.sqrt(disc)
        q = -(B + math.copysign(sq, B)) / 2.0
        r1 = q / c
        r2 = -b / q
        if abs(c * r1 + d) > 1.0:
            att, rep = r1, r2
        else:
            att, rep = r2, r1
        return (att, rep)

    def isclose(self, other, rel_tol=REL_TOL, abs_tol=1e-12):
        """Entrywise comparison of the canonical representatives."""
        if not isinstance(other, MobiusMap):
            return False
        return all(
            math.isclose(u, v, rel_tol=rel_tol, abs_tol=abs_tol)
            for u, v in zip(self.entries(), other.entries())
        )

    def __eq__(self, other):
        if not isinstance(other, MobiusMap):
            return NotImplemented
        return self.isclose(other)

    def __repr__(self):
        return f"MobiusMap({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"
