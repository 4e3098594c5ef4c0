"""References the benchmark checks fntwist against; nothing here imports fntwist.

* ``twist_reference``: the twist flow from first principles in mpmath.  It
  builds the boundary endpoints of the fundamental domain, finds the axis
  of the gluing holonomy, moves the vertices 0, x1 and x3 by the hyperbolic
  map with that axis and translation length t*L, and re-reads the four
  cross ratios.
* ``dehn_exact``: the m-fold Dehn twist in exact rational arithmetic.

The seeded generator, rebuilt from the README's constants, is in ``lcg``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

# Significant digits the reference result carries.
DIGITS = 60


def _cross_ratio(x, y, z, w):
    """[x:y:z:w] = (w-x)/(w-z) * (z-y)/(y-x); None stands for the point at infinity."""
    if x is None:
        return (z - y) / (w - z)
    if y is None:
        return -(w - x) / (w - z)
    if z is None:
        return -(w - x) / (y - x)
    if w is None:
        return (z - y) / (y - x)
    return (w - x) / (w - z) * (z - y) / (y - x)


def _working_digits(coords, s) -> int:
    # Moved vertices crowd within e^-|s| of an axis endpoint and the inputs
    # span many decades, so differences of them cancel that many digits.
    spread = max(abs(math.log10(v)) for v in coords)
    return DIGITS + 20 + int(abs(s) / math.log(10.0)) + 2 * int(spread)


def core_length(coords) -> float:
    """Core length L = 2 acosh(|tr| / 2) of the gluing holonomy, as a float."""
    with mpmath.workdps(DIGITS + 40):
        x1, x2 = mpmath.mpf(coords[0]), mpmath.mpf(coords[1])
        return float(2 * mpmath.acosh((x1 * (x2 + 1) + 1) / mpmath.sqrt(x1 * x2) / 2))


def twist_reference(coords, t):
    """The quadruple twisted by t core lengths, as mpf values with DIGITS digits."""
    x1f, x2f, x3f, x4f = (float(v) for v in coords)
    s_estimate = abs(float(t)) * core_length(coords)
    with mpmath.workdps(_working_digits((x1f, x2f, x3f, x4f), s_estimate)):
        x1, x2, x3, x4 = (mpmath.mpf(v) for v in (x1f, x2f, x3f, x4f))
        # Fundamental domain with 0, 1, infinity pinned.
        e1 = -x1
        e2 = -x1 * (x2 + 1)
        e3 = -x1 * x3 / (x3 + 1)
        e4 = (x4 + 1) / x4
        # The holonomy p -> (a p + b)/(c p + d) sends 0, 1, infinity to
        # e1, infinity, e2; its fixed points solve c p^2 + (d - a) p - b = 0.
        a, b, c, d = -e2, e1, mpmath.mpf(-1), mpmath.mpf(1)
        disc = mpmath.sqrt((d - a) ** 2 + 4 * b * c)
        roots = sorted([(-(d - a) + disc) / (2 * c), (-(d - a) - disc) / (2 * c)])
        p2, p1 = roots
        trace = (a + d) / mpmath.sqrt(a * d - b * c)
        length = 2 * mpmath.acosh(trace / 2)
        grow = mpmath.exp(mpmath.mpf(t) * length)

        def move(p):
            # (h(p) - p1)/(h(p) - p2) = e^(t L) (p - p1)/(p - p2)
            w = grow * (p - p1) / (p - p2)
            return (p1 - w * p2) / (1 - w)

        zero, m1, m3 = move(mpmath.mpf(0)), move(e1), move(e3)
        one = mpmath.mpf(1)
        out = (
            _cross_ratio(zero, one, None, m1),
            _cross_ratio(m1, zero, None, e2),
            _cross_ratio(zero, None, m1, m3),
            _cross_ratio(one, e4, None, zero),
        )
    with mpmath.workdps(DIGITS):
        return tuple(+v for v in out)


def dehn_exact(coords, m: int):
    """m-fold Dehn twist of the exact rational values of the inputs."""
    x1, x2, x3, x4 = (Fraction(v) for v in coords)
    for _ in range(abs(m)):
        if m > 0:
            x1, x2, x3, x4 = x1 * x1 * x2 / (x1 + 1) ** 2, 1 / x1, (x1 + 1) * x3, (x1 + 1) * x4
        else:
            # inverse of the forward step: X1 = 1/Y2, X2 = Y1 (1 + Y2)^2
            shrink = x2 / (1 + x2)
            x1, x2, x3, x4 = 1 / x2, x1 * (1 + x2) ** 2, shrink * x3, shrink * x4
    return (x1, x2, x3, x4)


def rel_error(value: float, exact) -> float:
    """|value - exact| / |exact| for an mpf or Fraction reference."""
    if isinstance(exact, Fraction):
        return float(abs(Fraction(value) - exact) / abs(exact))
    with mpmath.workdps(30):
        return float(abs(mpmath.mpf(value) - exact) / abs(exact))


def max_rel_error(values, exact) -> float:
    return max(rel_error(v, e) for v, e in zip(values, exact))
