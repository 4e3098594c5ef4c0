import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fntwist import (
    AnnulusCoords,
    MobiusMap,
    ProjectivePoint,
    TwistRangeError,
    core_geodesic,
    dehn_twist,
    endpoints,
    stratum_map,
    twist_closed_form,
    twist_oracle,
    twist_p_form,
)
from util import holonomy_f2, max_rel, rel_err

UNIT = AnnulusCoords(1, 1, 1, 1)
DEHN_OF_UNIT = (0.25, 1.0, 2.0, 2.0)
HALF_OF_UNIT = (5.0 / 9.0, 0.8, 1.5, 1.5)  # frozen from the t = 1/2 evaluation

coord_values = st.floats(0.1, 10.0)
coord_quadruples = st.builds(AnnulusCoords, coord_values, coord_values, coord_values, coord_values)
twist_params = st.floats(-2.0, 3.0)


def expanded_stratum_matrix(coords, t):
    """The closed-form matrix of the twist map on the moving side (test oracle)."""
    core = core_geodesic(coords)
    p1, p2 = core.p1, core.p2
    grow = math.exp(t * core.length)
    scale = (p1 - p2) * math.exp(t * core.length / 2.0)
    return MobiusMap(
        (p1 - p2 * grow) / scale,
        p1 * p2 * (grow - 1.0) / scale,
        (1.0 - grow) / scale,
        (p1 * grow - p2) / scale,
    )


def printed_vertex_images(coords, t):
    """Per-vertex closed forms for the images of 0, x1, x3 (test oracle)."""
    core = core_geodesic(coords)
    p1, p2 = core.p1, core.p2
    x1, x3 = coords.x1, coords.x3
    grow = math.exp(t * core.length)
    img0 = p1 * p2 * (grow - 1.0) / (p1 * grow - p2)
    img1 = (x1 * ((p2 - 1.0) * grow - (p1 - 1.0))) / ((x1 + p1) * grow - (x1 + p2))
    img3 = (x1 * ((x3 * p2 - x3 - 1.0) * grow - (x3 * p1 - x3 - 1.0))) / (
        (x1 * x3 + (x3 + 1.0) * p1) * grow - (x1 * x3 + (x3 + 1.0) * p2)
    )
    return img0, img1, img3


def moved_vertex_images(coords, t):
    """Images of the moving vertices 0, x1, x3 under the stratum map."""
    ends = endpoints(coords)
    m = stratum_map(coords, t)
    return tuple(m.apply(ProjectivePoint(v)) for v in (0.0, ends.x1, ends.x3))


class TestStratumMap:
    def test_zero_twist_is_identity(self):
        assert stratum_map(UNIT, 0.0) == MobiusMap.identity()

    @given(coord_quadruples, twist_params)
    def test_matches_expanded_matrix(self, coords, t):
        built = stratum_map(coords, t)
        assert built.isclose(expanded_stratum_matrix(coords, t), rel_tol=1e-9, abs_tol=1e-9)

    @given(coord_quadruples, st.floats(0.1, 3.0))
    def test_fixed_points_are_axis_endpoints(self, coords, t):
        core = core_geodesic(coords)
        att, rep = stratum_map(coords, t).fixed_points()
        # positive twist attracts toward the negative axis endpoint p2
        assert att.isclose(core.p2, rel_tol=1e-8, abs_tol=1e-8)
        assert rep.isclose(core.p1, rel_tol=1e-8, abs_tol=1e-8)

    def test_translation_length_scales(self):
        core = core_geodesic(UNIT)
        for t in (0.25, 1.0, 2.5, -1.5):
            strat = stratum_map(UNIT, t)
            assert rel_err(strat.translation_length(), abs(t) * core.length) < 1e-10

    def test_unit_twist_equals_holonomy(self):
        # same axis, same length, same direction: at t = 1 the stratum map
        # is the gluing holonomy itself
        assert stratum_map(UNIT, 1.0) == holonomy_f2(UNIT)
        coords = AnnulusCoords(2, 0.7, 3, 0.4)
        assert stratum_map(coords, 1.0) == holonomy_f2(coords)

    def test_rejects_nonfinite_parameter(self):
        with pytest.raises(ValueError):
            stratum_map(UNIT, math.nan)
        with pytest.raises(ValueError):
            stratum_map(UNIT, math.inf)


class TestTwistedEndpoints:
    def test_zero_twist_moves_nothing(self):
        ends = endpoints(UNIT)
        img0, img1, img3 = moved_vertex_images(UNIT, 0.0)
        assert img0.isclose(0.0, abs_tol=1e-12)
        assert img1.isclose(ends.x1, rel_tol=1e-12)
        assert img3.isclose(ends.x3, rel_tol=1e-12)

    def test_unit_coords_full_twist(self):
        # frozen from the per-vertex closed forms at t = 1
        img0, img1, img3 = moved_vertex_images(UNIT, 1.0)
        assert img0.isclose(-1.0, rel_tol=1e-12)
        assert img1.isclose(-1.5, rel_tol=1e-12)
        assert img3.isclose(-4.0 / 3.0, rel_tol=1e-12)

    @given(coord_quadruples, twist_params)
    def test_matches_printed_formulas(self, coords, t):
        images = moved_vertex_images(coords, t)
        expected = printed_vertex_images(coords, t)
        for image, value in zip(images, expected):
            assert image.isclose(value, rel_tol=1e-8, abs_tol=1e-8)


class TestTwistRoutes:
    @pytest.mark.parametrize("twist", [twist_p_form, twist_closed_form, twist_oracle])
    def test_zero_parameter_is_identity(self, twist):
        coords = AnnulusCoords(2, 3, 0.5, 4)
        assert max_rel(twist(coords, 0.0), coords) < 1e-12

    @pytest.mark.parametrize("twist", [twist_p_form, twist_closed_form, twist_oracle])
    def test_unit_parameter_is_dehn(self, twist):
        assert max_rel(twist(UNIT, 1.0), DEHN_OF_UNIT) < 1e-12

    @pytest.mark.parametrize("twist", [twist_p_form, twist_closed_form, twist_oracle])
    def test_half_parameter_frozen_value(self, twist):
        assert max_rel(twist(UNIT, 0.5), HALF_OF_UNIT) < 1e-10

    @given(coord_quadruples, st.floats(0.0, 3.0))
    @settings(max_examples=300)
    def test_three_route_equivalence(self, coords, t):
        a = twist_p_form(coords, t)
        b = twist_closed_form(coords, t)
        c = twist_oracle(coords, t)
        assert max_rel(a, b) < 1e-9
        assert max_rel(b, c) < 1e-9
        assert max_rel(a, c) < 1e-9

    @given(coord_quadruples, st.floats(-2.0, 0.0))
    def test_negative_parameters_agree_too(self, coords, t):
        assert max_rel(twist_p_form(coords, t), twist_oracle(coords, t)) < 1e-9

    @given(coord_quadruples, twist_params)
    def test_positivity(self, coords, t):
        assert all(v > 0.0 for v in twist_p_form(coords, t).as_tuple())

    @given(coord_quadruples, st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    @settings(max_examples=200)
    def test_flow_additivity(self, coords, s, t):
        stepwise = twist_p_form(twist_p_form(coords, s), t)
        direct = twist_p_form(coords, s + t)
        assert max_rel(stepwise, direct) < 1e-8

    @given(coord_quadruples, twist_params)
    def test_trace_invariance(self, coords, t):
        moved = twist_p_form(coords, t)
        assert rel_err(core_geodesic(moved).trace_abs, core_geodesic(coords).trace_abs) < 1e-9

    def test_rejects_nonfinite_parameter(self):
        for twist in (twist_p_form, twist_closed_form, twist_oracle):
            with pytest.raises(ValueError):
                twist(UNIT, math.nan)


class TestLargeParameters:
    def test_shifted_branch_agrees_across_routes(self):
        # pick t so that |t| L brackets the 300 branch point and stays valid
        length = core_geodesic(UNIT).length
        for s in (250.0, 299.5, 300.5, 640.0):
            t = s / length
            assert max_rel(twist_p_form(UNIT, t), twist_closed_form(UNIT, t)) < 1e-9

    def test_additivity_across_branch_point(self):
        length = core_geodesic(UNIT).length
        t_half = 160.0 / length  # combined twist length 320 crosses the branch
        stepwise = twist_p_form(twist_p_form(UNIT, t_half), t_half)
        direct = twist_p_form(UNIT, 2.0 * t_half)
        assert max_rel(stepwise, direct) < 1e-9

    def test_range_error_beyond_cap(self):
        length = core_geodesic(UNIT).length
        too_far = 651.0 / length
        with pytest.raises(TwistRangeError, match=rf"\(1\.0, 1\.0, 1\.0, 1\.0\), t = {too_far!r}"):
            twist_p_form(UNIT, too_far)
        with pytest.raises(TwistRangeError, match=rf"\(1\.0, 1\.0, 1\.0, 1\.0\), t = {-too_far!r}"):
            twist_closed_form(UNIT, -too_far)

    def test_unrepresentable_result_names_input(self):
        # within the cap, but X2' = X2 e^(-t L) overflows from X2 = 1e100
        coords = AnnulusCoords(1, 1e100, 1, 1)
        for twist in (twist_p_form, twist_closed_form):
            with pytest.raises(TwistRangeError, match=r"\(1\.0, 1e\+100, 1\.0, 1\.0\), t = -2\.5"):
                twist(coords, -2.5)

    def test_vanishing_axis_gap_is_a_range_error(self):
        # p1 rounds to 1, so x1 + p2 is 0 and the squared axis gap underflows
        coords = AnnulusCoords(2.3647617156901504e-12, 2.78013075470335e-12,
                               3.2912851745561317e-10, 657824.7683302268)
        with pytest.raises(TwistRangeError, match="axis gap vanished") as info:
            twist_p_form(coords, -8.04826917421387)
        assert f"{coords.as_tuple()}, t = -8.04826917421387" in str(info.value)

    def test_trace_still_invariant_near_cap(self):
        length = core_geodesic(UNIT).length
        moved = twist_p_form(UNIT, 640.0 / length)
        assert rel_err(core_geodesic(moved).trace_abs, 3.0) < 1e-9


class TestDehnTwist:
    def test_zero_is_identity(self):
        assert dehn_twist(UNIT, 0).as_tuple() == UNIT.as_tuple()

    def test_single_twist_rational_map(self):
        assert dehn_twist(UNIT, 1).as_tuple() == pytest.approx(DEHN_OF_UNIT, rel=1e-15)

    @given(coord_quadruples)
    def test_single_twist_formula(self, coords):
        x1, x2, x3, x4 = coords.as_tuple()
        expected = (x1 * x1 * x2 / (x1 + 1.0) ** 2, 1.0 / x1, (x1 + 1.0) * x3, (x1 + 1.0) * x4)
        assert max_rel(dehn_twist(coords, 1), expected) < 1e-14

    @given(coord_quadruples, st.integers(1, 3))
    def test_matches_integer_flow(self, coords, m):
        assert max_rel(dehn_twist(coords, m), twist_closed_form(coords, float(m))) < 1e-8

    @given(coord_quadruples, st.integers(-3, 3))
    def test_inverse_round_trip(self, coords, m):
        assert max_rel(dehn_twist(dehn_twist(coords, m), -m), coords) < 1e-12

    def test_negative_twist_is_flow_at_minus_one(self):
        coords = AnnulusCoords(2, 3, 0.5, 4)
        assert max_rel(dehn_twist(coords, -1), twist_closed_form(coords, -1.0)) < 1e-9

    def test_no_transcendental_calls(self, monkeypatch):
        # the rational map must never touch the exponential family
        def boom(*_args):
            raise AssertionError("transcendental call inside dehn_twist")

        for name in ("exp", "expm1", "cosh", "sinh", "tanh", "acosh", "log", "log1p"):
            monkeypatch.setattr(math, name, boom)
        result = dehn_twist(AnnulusCoords(2, 3, 0.5, 4), 3)
        assert all(v > 0.0 for v in result.as_tuple())

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            dehn_twist(UNIT, 1.5)

    @pytest.mark.parametrize("m", [True, False])
    def test_rejects_bool(self, m):
        with pytest.raises(TypeError, match="twist count must be an integer, got bool"):
            dehn_twist(UNIT, m)
