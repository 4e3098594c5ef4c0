import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fntwist import AnnulusCoords, endpoints
from fntwist.mobius import DegenerateCrossRatioError, MobiusMap, NonHyperbolicError, cross_ratio
from util import holonomy_f2, rel_err

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # positive fixed point of f2 at (1,1,1,1)

@st.composite
def mobius_maps(draw):
    # shear * opposite shear * diagonal: determinant one by construction,
    # and dense enough in PSL(2,R) for property testing
    upper = draw(st.floats(-3.0, 3.0))
    lower = draw(st.floats(-3.0, 3.0))
    scale = draw(st.floats(0.3, 3.0))
    return (
        MobiusMap(1.0, upper, 0.0, 1.0)
        .compose(MobiusMap(1.0, 0.0, lower, 1.0))
        .compose(MobiusMap(scale, 0.0, 0.0, 1.0 / scale))
    )


@st.composite
def hyperbolic_maps(draw):
    # conjugate a diagonal hyperbolic by a generic map: hyperbolicity guaranteed
    lam = draw(st.floats(1.2, 5.0))
    g = draw(mobius_maps())
    m = g.compose(MobiusMap(lam, 0.0, 0.0, 1.0 / lam)).compose(g.inverse())
    # stay away from the near-triangular boundary, where the infinity branch
    # of fixed_points is exercised by the exact diagonal tests instead
    assume(m.c == 0.0 or abs(m.c) > 1e-6)
    return m


@st.composite
def distinct_quadruples(draw):
    # ascending points with bounded-below gaps: distinct by construction
    base = draw(st.floats(-5.0, 5.0))
    pts = [base]
    for _ in range(3):
        pts.append(pts[-1] + draw(st.floats(0.05, 3.0)))
    return pts


class TestCrossRatio:
    def test_infinity_limit(self):
        assert cross_ratio(-1.0, 0.0, 1.0, math.inf) == pytest.approx(1.0)

    def test_finite_example(self):
        assert cross_ratio(0.0, 1.0, 2.0, 3.0) == pytest.approx(3.0)

    def test_arc_one_quadruple(self):
        # quadruple of the arc-1 quadrilateral: recovers X1 = 1
        x1 = endpoints(AnnulusCoords(1, 1, 1, 1))[0]
        value = cross_ratio(0.0, 1.0, math.inf, x1)
        assert value == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("position", [0, 1, 2, 3])
    def test_single_infinity_anywhere(self, position):
        # the value at infinity is the limit of pushing that point out far
        pts = [-2.0, -0.5, 1.0, 3.0]
        pts[position] = 1e9
        near = cross_ratio(*pts)
        pts[position] = math.inf
        limit = cross_ratio(*pts)
        assert rel_err(near, limit) < 1e-6

    def test_coincident_points_raise(self):
        with pytest.raises(DegenerateCrossRatioError):
            cross_ratio(0.0, 0.0, 1.0, 2.0)
        with pytest.raises(DegenerateCrossRatioError):
            cross_ratio(math.inf, 0.0, 1.0, math.inf)

    @pytest.mark.parametrize("position", [0, 1, 2, 3])
    def test_infinity_of_either_sign_is_one_point(self, position):
        pts = [-2.0, -0.5, 1.0, 3.0]
        pts[position] = -math.inf
        below = cross_ratio(*pts)
        pts[position] = math.inf
        assert below == cross_ratio(*pts)
        # so two infinities of opposite sign coincide
        pts[(position + 1) % 4] = -math.inf
        with pytest.raises(DegenerateCrossRatioError, match="two of the four points are at infinity"):
            cross_ratio(*pts)

    @pytest.mark.parametrize("position", [0, 1, 2, 3])
    def test_nan_point_raises(self, position):
        pts = [-2.0, -0.5, 1.0, math.inf]
        pts[position] = math.nan
        with pytest.raises(DegenerateCrossRatioError, match="NaN"):
            cross_ratio(*pts)

    @given(distinct_quadruples(), mobius_maps())
    def test_mobius_invariance(self, pts, m):
        assume(all(abs(m.c * p + m.d) > 0.05 for p in pts))
        before = cross_ratio(*pts)
        after = cross_ratio(*(m.apply(p) for p in pts))
        assert rel_err(before, after) < 1e-10


class TestMobiusMap:
    def test_identity_apply(self):
        assert math.isclose(MobiusMap.identity().apply(2.5), 2.5, rel_tol=1e-9, abs_tol=1e-9)

    def test_nan_point_rejected(self):
        with pytest.raises(ValueError):
            MobiusMap.identity().apply(math.nan)
        with pytest.raises(ValueError):  # numerator and denominator both overflow
            MobiusMap(2.0, 0.0, 2.0, 1.0).apply(1.5e308)

    def test_holonomy_pinned_points(self):
        m = holonomy_f2(AnnulusCoords(1, 1, 1, 1))
        assert math.isclose(m.apply(0.0), -1.0, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isinf(m.apply(1.0))
        assert math.isclose(m.apply(math.inf), -2.0, rel_tol=1e-9, abs_tol=1e-9)

    def test_pole_and_infinity(self):
        m = MobiusMap(1.0, 2.0, 1.0, 3.0)
        assert math.isinf(m.apply(-3.0))  # the pole -d/c
        assert math.isclose(m.apply(math.inf), 1.0, rel_tol=1e-9, abs_tol=1e-9)  # a/c
        assert math.isinf(MobiusMap(2.0, 1.0, 0.0, 0.5).apply(math.inf))

    def test_infinity_of_either_sign_is_one_point(self):
        for m in (MobiusMap(1.0, 2.0, 1.0, 3.0), MobiusMap(2.0, 1.0, 0.0, 0.5)):
            assert m.apply(-math.inf) == m.apply(math.inf)

    def test_nonpositive_determinant_rejected(self):
        with pytest.raises(ValueError):
            MobiusMap(1.0, 2.0, 2.0, 1.0)  # det = -3
        with pytest.raises(ValueError):
            MobiusMap(1.0, 1.0, 1.0, 1.0)  # det = 0

    def test_nonfinite_entry_rejected(self):
        with pytest.raises(ValueError, match=r"^matrix entries must be finite$"):
            MobiusMap(1, math.inf, 0, 1)

    def test_compares_only_with_maps(self):
        m = MobiusMap(2, 1, 1, 1)  # det 1, so the entries stay as given
        assert (m == 3) is False and m.isclose(3) is False
        assert repr(m) == "MobiusMap(2.0, 1.0, 1.0, 1.0)"

    def test_compose_identity(self):
        m = MobiusMap(2.0, -1.0, -1.0, 1.0)
        assert MobiusMap.identity().compose(m) == m
        assert m.compose(m.inverse()) == MobiusMap.identity()

    def test_compose_matches_bruteforce_product(self):
        # two parabolic generators, product multiplied out by hand
        m1 = MobiusMap(1.0, 1.5, 0.0, 1.0)
        m2 = MobiusMap(1.0, 0.0, -0.5, 1.0)
        a = 1.0 * 1.0 + 1.5 * (-0.5)
        b = 1.0 * 0.0 + 1.5 * 1.0
        c = 0.0 * 1.0 + 1.0 * (-0.5)
        d = 0.0 * 0.0 + 1.0 * 1.0
        assert m1.compose(m2) == MobiusMap(a, b, c, d)

    def test_trace_examples(self):
        assert MobiusMap.identity().trace_abs() == pytest.approx(2.0)
        assert holonomy_f2(AnnulusCoords(1, 1, 1, 1)).trace_abs() == pytest.approx(3.0)
        assert holonomy_f2(AnnulusCoords(4, 1, 1, 1)).trace_abs() == pytest.approx(4.5)

    def test_translation_length(self):
        lam = math.exp(1.0)
        m = MobiusMap(lam, 0.0, 0.0, 1.0 / lam)  # |tr| = 2 cosh(1)
        assert m.translation_length() == pytest.approx(2.0, rel=1e-12)
        f2 = holonomy_f2(AnnulusCoords(1, 1, 1, 1))
        assert f2.translation_length() == pytest.approx(1.9248473002, abs=1e-9)

    def test_elliptic_has_no_length(self):
        theta = 0.3
        rot = MobiusMap(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta))
        with pytest.raises(NonHyperbolicError):
            rot.translation_length()
        with pytest.raises(NonHyperbolicError):
            rot.fixed_points()

    def test_fixed_points_diagonal(self):
        att, rep = MobiusMap(2.0, 0.0, 0.0, 0.5).fixed_points()
        assert math.isinf(att)
        assert math.isclose(rep, 0.0, rel_tol=1e-9, abs_tol=1e-9)
        att, rep = MobiusMap(0.5, 0.0, 0.0, 2.0).fixed_points()
        assert math.isclose(att, 0.0, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isinf(rep)

    def test_fixed_points_holonomy(self):
        att, rep = holonomy_f2(AnnulusCoords(1, 1, 1, 1)).fixed_points()
        assert math.isclose(att, -GOLDEN - 1.0, rel_tol=1e-9, abs_tol=1e-9)  # -(sqrt5+1)/2
        assert math.isclose(rep, GOLDEN, rel_tol=1e-9, abs_tol=1e-9)

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_fixed_point_product(self, x1, x2):
        att, rep = holonomy_f2(AnnulusCoords(x1, x2, 1, 1)).fixed_points()
        assert rel_err(att * rep, -x1) < 1e-10

    @given(hyperbolic_maps())
    @settings(max_examples=200)
    def test_fixed_points_are_fixed(self, m):
        for p in m.fixed_points():
            assert math.isclose(m.apply(p), p, rel_tol=1e-8, abs_tol=1e-8)

    @given(mobius_maps(), mobius_maps(), st.floats(-10.0, 10.0))
    def test_projective_identity(self, m1, m2, x):
        lhs = m1.compose(m2).apply(x)
        rhs = m1.apply(m2.apply(x))
        assume(not math.isinf(lhs) and not math.isinf(rhs))
        assume(abs(lhs) < 1e6)
        assert math.isclose(lhs, rhs, rel_tol=1e-8, abs_tol=1e-8)

    @given(hyperbolic_maps(), mobius_maps())
    def test_trace_conjugation_invariant(self, m, g):
        conj = g.compose(m).compose(g.inverse())
        # rounding in the two products scales with the conjugated entries,
        # so the bound is relative to the matrix norm rather than the trace
        norm = max(abs(v) for v in conj.entries())
        assert abs(conj.trace_abs() - m.trace_abs()) < 1e-11 * max(norm, 1.0)

    def test_trace_conjugation_invariant_exact_case(self):
        m = holonomy_f2(AnnulusCoords(2, 3, 1, 1))
        g = MobiusMap(1.0, 2.0, 0.5, 2.0)
        conj = g.compose(m).compose(g.inverse())
        assert rel_err(conj.trace_abs(), m.trace_abs()) < 1e-12

    def test_normalization_idempotent(self):
        assert MobiusMap(2.0, -1.0, -1.0, 1.0) == MobiusMap(4.0, -2.0, -2.0, 2.0)

    def test_projective_sign_identification(self):
        assert MobiusMap(2.0, -1.0, -1.0, 1.0) == MobiusMap(-2.0, 1.0, 1.0, -1.0)
