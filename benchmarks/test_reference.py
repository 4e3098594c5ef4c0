"""Tests of the benchmark's own references and tracing.

    python3 -m pytest benchmarks -q

The references are pinned to the project README's worked values and to one
another, never to fntwist's output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import pytest

import inputs
import reference
from lcg import Lcg
from reference import dehn_exact, twist_reference


def _close(values, expected, tol=1e-50):
    """Relative agreement of mpf or Fraction values, evaluated at 80 digits."""
    with mpmath.workdps(80):
        def mpf(v):
            return mpmath.mpf(v.numerator) / v.denominator if isinstance(v, Fraction) else v

        return all(abs(mpf(v) - mpf(e)) <= tol * abs(mpf(e)) for v, e in zip(values, expected))


@pytest.mark.parametrize("t, expected", [
    (0.5, (Fraction(5, 9), Fraction(4, 5), Fraction(3, 2), Fraction(3, 2))),
    (1.0, (Fraction(1, 4), Fraction(1), Fraction(2), Fraction(2))),
])
def test_mpmath_twist_matches_readme_worked_values(t, expected):
    assert _close(twist_reference((1, 1, 1, 1), t), expected, tol=1e-55)


def test_exact_dehn_matches_readme_worked_value():
    assert dehn_exact((1, 1, 1, 1), 1) == (Fraction(1, 4), 1, 2, 2)


@pytest.mark.parametrize("coords", [(1.0, 1.0, 1.0, 1.0), (1.3, 0.7, 2.0, 0.5),
                                    (0.12, 8.5, 0.3, 4.4), (3e-4, 2e5, 7.0, 1e-3)])
@pytest.mark.parametrize("m", [-3, -1, 1, 2, 4])
def test_mpmath_twist_at_integer_t_is_exact_dehn_map(coords, m):
    assert _close(twist_reference(coords, m), dehn_exact(coords, m))


def test_exact_dehn_inverse_undoes_forward():
    coords = (1.3, 0.7, 2.0, 0.5)
    assert dehn_exact(dehn_exact(coords, 3), -3) == tuple(Fraction(v) for v in coords)


@pytest.mark.parametrize("coords, s", [((2.0, 0.5, 1.0, 3.0), 640.0),
                                       ((1e-9, 3e8, 1e10, 1e-11), -600.0),
                                       ((1e-12, 1.0001e12, 1.0, 1.0), 400.0)])
def test_working_precision_suffices_at_the_twist_cap(coords, s, monkeypatch):
    t = s / reference.core_length(coords)
    first = twist_reference(coords, t)
    monkeypatch.setattr(reference, "DIGITS", reference.DIGITS + 30)
    assert _close(first, twist_reference(coords, t), tol=1e-58)


def test_lcg_follows_readme_recurrence():
    rng = Lcg(0)
    state = 1442695040888963407
    assert rng.next_float() == (state >> 11) / 2.0 ** 53
    state = (6364136223846793005 * state + 1442695040888963407) % 2 ** 64
    assert rng.next_float() == (state >> 11) / 2.0 ** 53
    assert Lcg(-1).state == 2 ** 64 - 1


def test_input_filters_match_reference_core_length():
    for coords in [(1.0, 1.0), (1e-12, 1.01e12), (5e3, 2e-9)]:
        assert math.isclose(inputs.core_length(*coords), reference.core_length(coords + (1, 1)),
                            rel_tol=1e-12)


def test_tracer_self_time_subtracts_children():
    import tracing

    tr = tracing.Tracer()
    tr.names = ["outer", "inner"]
    outer = tr._wrap(0, lambda: inner() or inner(), None)
    inner = tr._wrap(1, lambda: None, None)
    outer()
    agg = tr.aggregate()
    assert agg["outer"][0] == 1 and agg["inner"][0] == 2
    total = tr.end[0] - tr.start[0]
    assert math.isclose(agg["outer"][1] + agg["inner"][1], total, rel_tol=1e-9)
    assert list(tr.parent) == [-1, 0, 0]
