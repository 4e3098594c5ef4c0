import json
import math
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fntwist.annulus
import fntwist.cli
import fntwist.twist
from fntwist import (
    AnnulusCoords,
    AnnulusEmbedding,
    SurfaceCoords,
    TwistRangeError,
    apply_local_twist,
    core_geodesic,
    dehn_twist,
    endpoints,
    twist_closed_form,
    twist_oracle,
    twist_p_form,
)
from fntwist.mobius import MobiusMap
from fntwist.sampling import Lcg, random_coords
from fntwist.twist import _fenchel_nielsen, _p_form, sample_flow, stratum_map
from util import (L_OUT_OF_RANGE, TAU_OUT_OF_RANGE, X2_OUT_OF_RANGE, FloatSubclass, IntSubclass,
                  holonomy_f2, load_benchmark_module, max_rel, rel_err)

UNIT = AnnulusCoords(1, 1, 1, 1)
DEHN_OF_UNIT = (0.25, 1.0, 2.0, 2.0)
HALF_OF_UNIT = (5.0 / 9.0, 0.8, 1.5, 1.5)  # frozen from the t = 1/2 evaluation

coord_values = st.floats(0.1, 10.0)
coord_quadruples = st.builds(AnnulusCoords, coord_values, coord_values, coord_values, coord_values)
twist_params = st.floats(-2.0, 3.0)


def expanded_stratum_matrix(coords, t):
    """The closed-form matrix of the twist map on the moving side (test oracle)."""
    length, _, p1, p2 = core_geodesic(coords)
    grow = math.exp(t * length)
    scale = (p1 - p2) * math.exp(t * length / 2.0)
    return MobiusMap(
        (p1 - p2 * grow) / scale,
        p1 * p2 * (grow - 1.0) / scale,
        (1.0 - grow) / scale,
        (p1 * grow - p2) / scale,
    )


def printed_vertex_images(coords, t):
    """Per-vertex closed forms for the images of 0, x1, x3 (test oracle)."""
    length, _, p1, p2 = core_geodesic(coords)
    x1, x3 = coords.x1, coords.x3
    grow = math.exp(t * length)
    img0 = p1 * p2 * (grow - 1.0) / (p1 * grow - p2)
    img1 = (x1 * ((p2 - 1.0) * grow - (p1 - 1.0))) / ((x1 + p1) * grow - (x1 + p2))
    img3 = (x1 * ((x3 * p2 - x3 - 1.0) * grow - (x3 * p1 - x3 - 1.0))) / (
        (x1 * x3 + (x3 + 1.0) * p1) * grow - (x1 * x3 + (x3 + 1.0) * p2)
    )
    return img0, img1, img3


def moved_vertex_images(coords, t):
    """Images of the moving vertices 0, x1, x3 under the stratum map."""
    e1, _, e3, _ = endpoints(coords)
    m = stratum_map(coords, t)
    return tuple(m.apply(v) for v in (0.0, e1, e3))


class TestStratumMap:
    def test_zero_twist_is_identity(self):
        assert stratum_map(UNIT, 0.0) == MobiusMap.identity()

    @given(coord_quadruples, twist_params)
    def test_matches_expanded_matrix(self, coords, t):
        built = stratum_map(coords, t)
        assert built.isclose(expanded_stratum_matrix(coords, t), rel_tol=1e-9, abs_tol=1e-9)

    @given(coord_quadruples, st.floats(0.1, 3.0))
    def test_fixed_points_are_axis_endpoints(self, coords, t):
        _, _, p1, p2 = core_geodesic(coords)
        att, rep = stratum_map(coords, t).fixed_points()
        # positive twist attracts toward the negative axis endpoint p2
        assert math.isclose(att, p2, rel_tol=1e-8, abs_tol=1e-8)
        assert math.isclose(rep, p1, rel_tol=1e-8, abs_tol=1e-8)

    def test_translation_length_scales(self):
        length = core_geodesic(UNIT)[0]
        for t in (0.25, 1.0, 2.5, -1.5):
            strat = stratum_map(UNIT, t)
            assert rel_err(strat.translation_length(), abs(t) * length) < 1e-10

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
        e1, _, e3, _ = endpoints(UNIT)
        img0, img1, img3 = moved_vertex_images(UNIT, 0.0)
        assert math.isclose(img0, 0.0, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(img1, e1, rel_tol=1e-12, abs_tol=1e-9)
        assert math.isclose(img3, e3, rel_tol=1e-12, abs_tol=1e-9)

    def test_unit_coords_full_twist(self):
        # frozen from the per-vertex closed forms at t = 1
        img0, img1, img3 = moved_vertex_images(UNIT, 1.0)
        assert math.isclose(img0, -1.0, rel_tol=1e-12, abs_tol=1e-9)
        assert math.isclose(img1, -1.5, rel_tol=1e-12, abs_tol=1e-9)
        assert math.isclose(img3, -4.0 / 3.0, rel_tol=1e-12, abs_tol=1e-9)

    @given(coord_quadruples, twist_params)
    def test_matches_printed_formulas(self, coords, t):
        images = moved_vertex_images(coords, t)
        expected = printed_vertex_images(coords, t)
        for image, value in zip(images, expected):
            assert math.isclose(image, value, rel_tol=1e-8, abs_tol=1e-8)


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

    @pytest.mark.parametrize("twist, arg", [
        (twist_p_form, 0.5), (twist_closed_form, 0.5), (twist_oracle, 0.5),
        (twist_p_form, 400.0 / core_geodesic(UNIT)[0]),  # |t| L = 400: the shifted branch
        (dehn_twist, 0), (dehn_twist, 2), (dehn_twist, -2),
    ])
    def test_returns_annulus_coords(self, twist, arg):
        result = twist(UNIT, arg)
        assert type(result) is AnnulusCoords and all(type(v) is float for v in result)

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
        assert rel_err(core_geodesic(moved)[1], core_geodesic(coords)[1]) < 1e-9

    def test_rejects_nonfinite_parameter(self):
        for twist in (twist_p_form, twist_closed_form, twist_oracle):
            with pytest.raises(ValueError):
                twist(UNIT, math.nan)


# frozen (twist_p_form, twist_closed_form, twist_oracle) outputs on each
# quadruple at t = tL / L, tL on both sides of the 300 branch point and near
# the cap: _growth's scale pair must keep every bit of each route's branch
# (the oracle column recorded from the Fenchel-Nielsen oracle)
PINNED_ACROSS_BRANCH = {
    (1.0, 1.0, 1.0, 1.0): {
        -640.0: (
            (1.4739300281345284e-277, 4.650222083421789e+277, 0.38196601125010515, 0.38196601125010515),
            (1.4739300281345287e-277, 4.650222083421789e+277, 0.38196601125010515, 0.38196601125010515),
            (1.473930028134446e-277, 4.650222083422049e+277, 0.3819660112501052, 0.3819660112501052),
        ),
        -300.5: (
            (4.087459597534314e-130, 1.676861092494785e+130, 0.38196601125010515, 0.38196601125010515),
            (4.087459597534314e-130, 1.6768610924947847e+130, 0.38196601125010515, 0.38196601125010515),
            (4.0874595975343216e-130, 1.6768610924947827e+130, 0.3819660112501051, 0.3819660112501051),
        ),
        299.5: (
            (1.6210536702326757e-130, 9.000197614023115e+128, 2.6180339887498953, 2.6180339887498953),
            (1.621053670232676e-130, 9.000197614023116e+128, 2.618033988749895, 2.618033988749895),
            (1.6210536702326743e-130, 9.000197614023127e+128, 2.618033988749895, 2.618033988749895),
        ),
        300.5: (
            (5.963523183141122e-131, 2.4465073626739495e+129, 2.6180339887498953, 2.6180339887498953),
            (5.963523183141123e-131, 2.4465073626739498e+129, 2.618033988749895, 2.618033988749895),
            (5.963523183141118e-131, 2.4465073626739516e+129, 2.618033988749895, 2.618033988749895),
        ),
        640.0: (
            (2.1504349299037487e-278, 6.784582584735344e+276, 2.6180339887498953, 2.6180339887498953),
            (2.150434929903749e-278, 6.784582584735346e+276, 2.618033988749895, 2.618033988749895),
            (2.150434929903869e-278, 6.784582584734965e+276, 2.618033988749895, 2.618033988749895),
        ),
    },
    (2.0, 0.5, 3.0, 0.25): {
        -640.0: (
            (5.042667994781318e-277, 2.7620702462842846e+277, 0.8038475772933681, 0.06698729810778067),
            (5.042667994781323e-277, 2.7620702462842838e+277, 0.8038475772933678, 0.06698729810778065),
            (5.042667994781373e-277, 2.762070246284253e+277, 0.8038475772933682, 0.06698729810778069),
        ),
        -300.5: (
            (1.3984179234434285e-129, 9.959971905951449e+129, 0.8038475772933681, 0.06698729810778067),
            (1.3984179234434299e-129, 9.959971905951448e+129, 0.8038475772933678, 0.06698729810778065),
            (1.398417923443444e-129, 9.959971905951334e+129, 0.8038475772933684, 0.0669872981077807),
        ),
        299.5: (
            (2.729206321189292e-130, 2.630683109850204e+128, 11.196152422706632, 0.9330127018922193),
            (2.729206321189291e-130, 2.6306831098502048e+128, 11.196152422706634, 0.9330127018922195),
            (2.72920632118926e-130, 2.6306831098502363e+128, 11.196152422706632, 0.9330127018922194),
        ),
        300.5: (
            (1.0040188962806845e-130, 7.150938093939942e+128, 11.196152422706632, 0.9330127018922193),
            (1.0040188962806843e-130, 7.150938093939942e+128, 11.196152422706632, 0.9330127018922194),
            (1.0040188962806727e-130, 7.150938093940028e+128, 11.196152422706632, 0.9330127018922194),
        ),
        640.0: (
            (3.620472728183741e-278, 1.9830772143534042e+276, 11.196152422706632, 0.9330127018922193),
            (3.62047272818374e-278, 1.9830772143534042e+276, 11.196152422706632, 0.9330127018922194),
            (3.620472728183698e-278, 1.983077214353428e+276, 11.196152422706632, 0.9330127018922194),
        ),
    },
    (0.3, 7.0, 0.2, 5.0): {
        -640.0: (
            (6.4262225497245046e-279, 4.9662487232355254e+278, 0.16223611165368823, 4.055902791342206),
            (6.4262225497245014e-279, 4.966248723235527e+278, 0.16223611165368823, 4.055902791342206),
            (6.426222549721447e-279, 4.9662487232378915e+278, 0.16223611165368818, 4.055902791342204),
        ),
        -300.5: (
            (1.7821012215897015e-131, 1.7908196878024684e+131, 0.16223611165368823, 4.055902791342206),
            (1.7821012215897005e-131, 1.7908196878024688e+131, 0.16223611165368823, 4.055902791342206),
            (1.782101221589259e-131, 1.7908196878029136e+131, 0.1622361116536882, 4.055902791342205),
        ),
        299.5: (
            (3.3675501027385186e-130, 9.304685659388626e+128, 0.5177638883463118, 12.944097208657794),
            (3.3675501027385234e-130, 9.304685659388593e+128, 0.5177638883463124, 12.94409720865781),
            (3.367550102737828e-130, 9.304685659390535e+128, 0.5177638883463119, 12.944097208657796),
        ),
        300.5: (
            (1.2388524499122794e-130, 2.5292757947439583e+129, 0.5177638883463118, 12.944097208657794),
            (1.2388524499122807e-130, 2.5292757947439488e+129, 0.5177638883463125, 12.944097208657812),
            (1.2388524499120254e-130, 2.529275794744476e+129, 0.5177638883463117, 12.944097208657793),
        ),
        640.0: (
            (4.46727798228324e-278, 7.014113577102471e+276, 0.5177638883463118, 12.944097208657794),
            (4.467277982283244e-278, 7.014113577102445e+276, 0.5177638883463125, 12.944097208657812),
            (4.467277982281309e-278, 7.014113577105501e+276, 0.5177638883463117, 12.944097208657793),
        ),
    },
}


class TestLargeParameters:
    def test_shifted_branch_agrees_across_routes(self):
        # pick t so that |t| L brackets the 300 branch point and stays valid
        length = core_geodesic(UNIT)[0]
        for s in (250.0, 299.5, 300.5, 640.0):
            t = s / length
            assert max_rel(twist_p_form(UNIT, t), twist_closed_form(UNIT, t)) < 1e-9

    def test_additivity_across_branch_point(self):
        length = core_geodesic(UNIT)[0]
        t_half = 160.0 / length  # combined twist length 320 crosses the branch
        stepwise = twist_p_form(twist_p_form(UNIT, t_half), t_half)
        direct = twist_p_form(UNIT, 2.0 * t_half)
        assert max_rel(stepwise, direct) < 1e-9

    def test_range_error_beyond_cap(self):
        length = core_geodesic(UNIT)[0]
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

    @pytest.mark.parametrize("twist", [twist_p_form, twist_closed_form])
    def test_subnormal_result_is_a_range_error(self, twist):
        # X1' = 5.6e-316 is subnormal, 3.0e-9 off mpmath: it is refused, not returned
        with pytest.raises(TwistRangeError) as info:
            twist(AnnulusCoords(1e-300, 1e-5, 1, 1), 0.05)
        assert str(info.value).startswith("twisted coordinates (5.62341323e-316, ")
        assert str(info.value).endswith("for coords (1e-300, 1e-05, 1.0, 1.0), t = 0.05; "
                                        "result not representable")

    def test_vanishing_axis_gap_is_a_range_error(self):
        # the squared axis gap underflows to 0
        coords = AnnulusCoords(6.927466975807279e-260, 1.6092792496758436e+53,
                               1.6095569403158126e-128, 1.3035491324448617e+186)
        with pytest.raises(TwistRangeError, match="axis gap vanished") as info:
            twist_p_form(coords, -1.246898869987229)
        assert f"{coords.as_tuple()}, t = -1.246898869987229" in str(info.value)

    @pytest.mark.parametrize("coords, t, why", [
        # x1 * axis_sq * moved * fixed is 4.9e-324; divided, X1' was 1.27e-185, not 6.78e-186
        ((6.240413128754087e-70, 5.465619396542107e+78, 5.74639131112284e+180,
          4.1834211876723263e+157), 28.68385713350821, "an intermediate product underflowed"),
        # axis_gap * axis_gap is 2e-323; divided, X1' was 5.9e-3 off
        ((3.277699441627464e-143, 3.38800666864615e+86, 1.1331194408373629e-74,
          8.061009981631711e+184), -2.8836535942273227, "the axis gap vanished"),
        # a subnormal operand of y2 put X2' off
        ((4.252997030383465e-101, 2.6330560687928312e-118, 5.784539239908759e-111,
          1.2396729461736219e-120), -0.47630558329546574, "an intermediate product underflowed"),
    ])
    def test_subnormal_intermediate_is_a_range_error(self, coords, t, why):
        with pytest.raises(TwistRangeError) as info:
            twist_p_form(AnnulusCoords(*coords), t)
        assert str(info.value) == f"{why} for coords {coords}, t = {t!r}; result not representable"

    @pytest.mark.parametrize("coords, t, error, message", [
        ((1e-12, 1e12, 1.0, 1.0), 1.0, ValueError,
         "holonomy is not hyperbolic: |trace| = 2.000000000001 is too close to 2 "
         "for X1 = 1e-12, X2 = 1000000000000.0"),
        ((1e-200, 1e-200, 1.0, 1.0), 0.1, ValueError,
         "holonomy trace is out of range: X1 * X2 = 0.0 is below the smallest normal double "
         "for X1 = 1e-200, X2 = 1e-200"),
        ((3e-162, 1e-162, 1.0, 1.0), 0.1, ValueError,
         "holonomy trace is out of range: X1 * X2 = 5e-324 is below the smallest normal double "
         "for X1 = 3e-162, X2 = 1e-162"),
        ((1e200, 1.0, 1.0, 1.0), 0.1, OverflowError,
         "core geodesic discriminant overflows for X1 = 1e+200, X2 = 1.0"),
    ], ids=["not-hyperbolic", "underflowed-denominator", "subnormal-product", "discriminant"])
    def test_core_refusal_names_x1_x2(self, coords, t, error, message):
        # fntwist twist runs the translation, which serves these inputs; p-form refuses them
        with pytest.raises(error) as info:
            twist_p_form(AnnulusCoords(*coords), t)
        assert type(info.value) is error and str(info.value) == message

    def test_discriminant_is_refused_before_the_cap(self):
        # the input fails both the discriminant and the cap (|t| L = 827): p-form and the
        # closed form compute the core before they check t, so each raises the discriminant error
        coords = (1.0768319880933315e+19, 2.1740272755523496e+166, 2.296780560942456e-21,
                  1.1609945560439939e+254)
        t = -1.9378470167760713
        message = ("core geodesic discriminant overflows "
                   "for X1 = 1.0768319880933315e+19, X2 = 2.1740272755523496e+166")
        for call, expected in (
                (lambda: twist_p_form(AnnulusCoords(*coords), t), message),
                (lambda: _p_form(coords, t), message),
                (lambda: twist_closed_form(AnnulusCoords(*coords), t), message),
                (lambda: apply_local_twist(SurfaceCoords(coords), AnnulusEmbedding(1, 2, 3, 4), t),
                 f"{message}; embedding indices (1, 2, 3, 4)")):
            with pytest.raises(OverflowError) as info:
                call()
            assert type(info.value) is OverflowError and str(info.value) == expected
        with pytest.raises(TwistRangeError, match=r"^\|t\| \* L = 827\.129"):
            twist_oracle(AnnulusCoords(*coords), t)

    @pytest.mark.parametrize("coords, t", [
        # p1 rounds to 1, so x1 + p2 evaluates to 0
        ((2.3647617156901504e-12, 2.78013075470335e-12, 3.2912851745561317e-10,
          657824.7683302268), -8.04826917421387),
        # x1 + p2 is about -1e-28 and cancels: unguarded, X1' is 1.0e44 where mpmath gives 1.0e-8
        ((1e-10, 1e-8, 1.0, 1.0), -3.0),
    ])
    def test_cancelling_axis_gap_matches_mpmath_reference(self, coords, t):
        exact = load_benchmark_module("reference").twist_reference(coords, t)
        assert max_rel(twist_p_form(AnnulusCoords(*coords), t), [float(v) for v in exact]) < 1e-13

    def test_closed_form_underflow_is_a_range_error(self):
        # outer * outer underflows to 0; p-form returns a value here
        coords = AnnulusCoords(1.1261458825999687e-12, 246.91558461878586,
                               1.120418656161017e-05, 2.495954148229757e-05)
        with pytest.raises(TwistRangeError, match="denominator vanished") as info:
            twist_closed_form(coords, -19.47954048344156)
        assert f"{coords.as_tuple()}, t = -19.47954048344156" in str(info.value)

    def test_closed_form_overflow_is_a_range_error(self):
        # L is about 1036, so cosh(L) passes the double range; the error names the input and t
        coords = AnnulusCoords(1e150, 1e-300, 1, 1)
        with pytest.raises(TwistRangeError) as info:
            twist_closed_form(coords, 0.1)
        assert str(info.value) == ("a closed-form intermediate overflowed for coords "
                                   "(1e+150, 1e-300, 1.0, 1.0), t = 0.1; result not representable")

    @pytest.mark.parametrize("t, shown", [
        (10**400, repr(10**400)), (-10**400, repr(-10**400)),
        (10**5000, "<16610-bit int>"), (-Fraction(10**5000), "-<16610-bit Fraction>"),
    ], ids=["1e400", "-1e400", "1e5000", "-fraction-1e5000"])
    @pytest.mark.parametrize("twist", [twist_p_form, twist_closed_form, twist_oracle])
    def test_count_past_float_range_is_a_range_error(self, twist, t, shown):
        with pytest.raises(TwistRangeError, match=r"^\|t\| is past float range, so \|t\| \* L "
                                                  r"exceeds 650\.0 for coords "
                                                  r"\(1\.0, 1\.0, 1\.0, 1\.0\), t = ") as info:
            twist(UNIT, t)
        assert f", t = {shown};" in str(info.value)

    def test_trace_still_invariant_near_cap(self):
        length = core_geodesic(UNIT)[0]
        moved = twist_p_form(UNIT, 640.0 / length)
        assert rel_err(core_geodesic(moved)[1], 3.0) < 1e-9

    @pytest.mark.parametrize("quadruple", list(PINNED_ACROSS_BRANCH))
    def test_routes_keep_their_bits_across_branch_point(self, quadruple):
        coords = AnnulusCoords(*quadruple)
        length = core_geodesic(coords)[0]
        for s, pinned in PINNED_ACROSS_BRANCH[quadruple].items():
            for route, expected in zip((twist_p_form, twist_closed_form, twist_oracle), pinned):
                assert route(coords, s / length).as_tuple() == expected, (route.__name__, s)


# frozen float.hex of twist_p_form outputs; t = s / L for |s| = 299.5, 300.5 (both sides
# of the 300 switch) and 649.99 (near the cap), then an int t, a float-subclass t and 0
P_FORM_BITS = [
    ((1.0, 1.0, 1.0, 1.0), 155.5967582274727,
     "0x1.cc40754a8a9f6p-432 0x1.4c64ffd1f01bfp+428 0x1.4f1bbcdcbfa55p+1 0x1.4f1bbcdcbfa55p+1"),
    ((1.0, 1.0, 1.0, 1.0), 156.11627995778144,
     "0x1.52a264437db43p-433 0x1.c3c56079d92efp+429 0x1.4f1bbcdcbfa55p+1 0x1.4f1bbcdcbfa55p+1"),
    ((1.0, 1.0, 1.0, 1.0), -156.11627995778144,
     "0x1.22211915adc46p-430 0x1.830f81351ee62p+432 0x1.8722191a02d61p-2 0x1.8722191a02d61p-2"),
    ((1.0, 1.0, 1.0, 1.0), 337.68392948338885,
     "0x1.254595fae52a5p-937 0x1.04d32b9618045p+934 0x1.4f1bbcdcbfa55p+1 0x1.4f1bbcdcbfa55p+1"),
    ((1.0, 1.0, 1.0, 1.0), -337.68392948338885,
     "0x1.f6875b7277f63p-935 0x1.beee1a32f87eap+936 0x1.8722191a02d61p-2 0x1.8722191a02d61p-2"),
    ((1.0, 1.0, 1.0, 1.0), 3,
     "0x1.83c977ab2bedap-8 0x1.9000000000002p+4 0x1.4cccccccccccdp+1 0x1.4cccccccccccdp+1"),
    ((1.0, 1.0, 1.0, 1.0), FloatSubclass(0.7),
     "0x1.a4a47629c4a78p-2 0x1.a8f6d4c03a955p-1 0x1.b66c0071b3aadp+0 0x1.b66c0071b3aadp+0"),
    ((1.0, 1.0, 1.0, 1.0), 0.0,
     "0x1.ffffffffffffep-1 0x1.0000000000001p+0 0x1.0000000000000p+0 0x1.0000000000000p+0"),
    ((2.0, 0.5, 3.0, 0.25), 113.709026195656,
     "0x1.8370a45cd737cp-431 0x1.849fe95ab61e4p+426 0x1.6646e17211cc0p+3 0x1.ddb3d742c2655p-1"),
    ((2.0, 0.5, 3.0, 0.25), 114.0886890544061,
     "0x1.1d0ffb3b55d0fp-432 0x1.08190ba763867p+428 0x1.6646e17211cc0p+3 0x1.ddb3d742c2655p-1"),
    ((2.0, 0.5, 3.0, 0.25), -114.0886890544061,
     "0x1.f04d0995913dep-429 0x1.cbcd10d705d56p+431 0x1.9b91e8dee3401p-1 0x1.126145e9ecd56p-4"),
    ((2.0, 0.5, 3.0, 0.25), 246.77706155897977,
     "0x1.edc0a3ebe5b2dp-937 0x1.30f2a30ce3e02p+932 0x1.6646e17211cc0p+3 0x1.ddb3d742c2655p-1"),
    ((2.0, 0.5, 3.0, 0.25), -246.77706155897977,
     "0x1.add15ce89c3f3p-933 0x1.0975ffc05b973p+936 0x1.9b91e8dee3401p-1 0x1.126145e9ecd56p-4"),
    ((2.0, 0.5, 3.0, 0.25), 3,
     "0x1.37e3fa847e18fp-10 0x1.e3ffffffffff9p+5 0x1.65d1745d1745dp+3 0x1.dd1745d1745d1p-1"),
    ((2.0, 0.5, 3.0, 0.25), FloatSubclass(0.7),
     "0x1.df72b1d1b25adp-2 0x1.6d90e9d7b0982p-2 0x1.d59ef7bdb581cp+2 0x1.3914a52923abdp-1"),
    ((1e-08, 300000.0, 0.7, 12.0), 51.55665809313706,
     "0x1.4373dd86a3e77p-459 0x1.373708e6bd592p+450 0x1.666666a2b5e19p-1 0x1.800000409e4d2p+3"),
    ((1e-08, 300000.0, 0.7, 12.0), 51.7288005241659,
     "0x1.dbf75bdc076e8p-461 0x1.a6fc29bcba4fep+451 0x1.666666a2b5e19p-1 0x1.800000409e4d2p+3"),
    ((1e-08, 300000.0, 0.7, 12.0), -51.7288005241659,
     "0x1.ba9a6ea3d8717p-391 0x1.8198f04c70286p+398 0x1.13404e7657387p-9 0x1.26e978a35d736p-5"),
    ((1e-08, 300000.0, 0.7, 12.0), 111.8908587444346,
     "0x1.9c3505cd3cf53p-965 0x1.e869469eb0f21p+955 0x1.666666a2b5e19p-1 0x1.800000409e4d2p+3"),
    ((1e-08, 300000.0, 0.7, 12.0), -111.8908587444346,
     "0x1.7f50370a71989p-895 0x1.bd3d99716b8abp+902 0x1.13404e7657387p-9 0x1.26e978a35d736p-5"),
    ((1e-08, 300000.0, 0.7, 12.0), 3,
     "0x1.3749edfac1051p-52 0x1.43603b6f8fc79p+43 0x1.666666a2b5e18p-1 0x1.800000409e4d1p+3"),
    ((1e-08, 300000.0, 0.7, 12.0), FloatSubclass(0.7),
     "0x1.78e3db967362dp-33 0x1.0b16da7cd2195p+24 0x1.666666a1ad43bp-1 0x1.8000003f82c89p+3"),
    ((1e-08, 300000.0, 0.7, 12.0), 0.0,
     "0x1.5798ee2308c3ap-27 0x1.24f8000000001p+18 0x1.6666666666666p-1 0x1.8000000000000p+3"),
]
# frozen float.hex of dehn_twist outputs for m = +/-1, +/-7, recorded from the
# Fenchel-Nielsen translation; each is within 1.6e-15 of reference.dehn_exact. The
# second string is what the per-step rational loop gave, 11 ulps or fewer away; it
# names the case
DEHN_BITS = [
    ((1.0, 1.0, 1.0, 1.0), 1,
     "0x1.0000000000000p-2 0x1.0000000000000p+0 0x1.0000000000000p+1 0x1.0000000000000p+1",
     "0x1.0000000000000p-2 0x1.0000000000000p+0 0x1.0000000000000p+1 0x1.0000000000000p+1"),
    ((1.0, 1.0, 1.0, 1.0), -1,
     "0x1.0000000000000p+0 0x1.0000000000002p+2 0x1.ffffffffffffep-2 0x1.ffffffffffffep-2",
     "0x1.0000000000000p+0 0x1.0000000000000p+2 0x1.0000000000000p-1 0x1.0000000000000p-1"),
    ((1.0, 1.0, 1.0, 1.0), 7,
     "0x1.68b410c3ce7f6p-19 0x1.a822000000000p+15 0x1.4f1b77c278dbcp+1 0x1.4f1b77c278dbcp+1",
     "0x1.68b410c3ce7f6p-19 0x1.a822000000001p+15 0x1.4f1b77c278dbdp+1 0x1.4f1b77c278dbdp+1"),
    ((1.0, 1.0, 1.0, 1.0), -7,
     "0x1.350907ba8cd01p-16 0x1.6b6100000000ap+18 0x1.872269c1e3764p-2 0x1.872269c1e3764p-2",
     "0x1.350907ba8cd08p-16 0x1.6b61000000000p+18 0x1.872269c1e3767p-2 0x1.872269c1e3767p-2"),
    ((2.0, 0.5, 3.0, 0.25), 1,
     "0x1.c71c71c71c71ep-3 0x1.0000000000001p-1 0x1.2000000000001p+3 0x1.8000000000001p-1",
     "0x1.c71c71c71c71cp-3 0x1.0000000000000p-1 0x1.2000000000000p+3 0x1.8000000000000p-1"),
    ((2.0, 0.5, 3.0, 0.25), -1,
     "0x1.ffffffffffffep+0 0x1.1ffffffffffffp+2 0x1.0000000000002p+0 0x1.5555555555558p-4",
     "0x1.0000000000000p+1 0x1.2000000000000p+2 0x1.0000000000000p+0 0x1.5555555555555p-4"),
    ((2.0, 0.5, 3.0, 0.25), 7,
     "0x1.0f9e1a389fa32p-25 0x1.152ba40000006p+21 0x1.6646e0a54d014p+3 0x1.ddb3d631bc01ap-1",
     "0x1.0f9e1a389fa3dp-25 0x1.152ba3ffffffcp+21 0x1.6646e0a54d011p+3 0x1.ddb3d631bc018p-1"),
    ((2.0, 0.5, 3.0, 0.25), -7,
     "0x1.d8e4a168d2b4dp-22 0x1.e28f907fffffbp+24 0x1.9b91e9ca1d8cdp-1 0x1.12614686be5dep-4",
     "0x1.d8e4a168d2b4ap-22 0x1.e28f908000000p+24 0x1.9b91e9ca1d8cbp-1 0x1.12614686be5dcp-4"),
]


class TestKernelBits:
    @pytest.mark.parametrize("quadruple, t, expected", P_FORM_BITS)
    def test_p_form_keeps_its_bits(self, quadruple, t, expected):
        result = twist_p_form(AnnulusCoords(*quadruple), t)
        assert type(result) is AnnulusCoords
        assert " ".join([x.hex() for x in result]) == expected

    @pytest.mark.parametrize("quadruple, m, expected, loop", DEHN_BITS, ids=[
        f"quadruple{i}-{m}-{loop}" for i, (_, m, _, loop) in enumerate(DEHN_BITS)])
    def test_dehn_twist_keeps_its_bits(self, quadruple, m, expected, loop):
        result = dehn_twist(AnnulusCoords(*quadruple), m)
        assert type(result) is AnnulusCoords
        assert " ".join([x.hex() for x in result]) == expected
        assert max_rel(result, [float.fromhex(x) for x in loop.split()]) < 4e-15

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("s", [299.5, 300.0, 300.5, 649.99, 650.0])
    @pytest.mark.parametrize("quadruple", list(dict.fromkeys(q for q, _, _ in P_FORM_BITS)))
    def test_plain_float_path_matches_growth(self, quadruple, s, sign):
        # a float subclass goes through _growth; a plain float within the cap takes the
        # scale pair inline, so both must give the same bits or the same error at every
        # float next to the 300 switch and the 650 cap.  The translation tests the cap
        # inline for a plain float t and a plain int m, so it is checked the same way at
        # each float next to the cap and at the counts either side of it
        coords = AnnulusCoords(*quadruple)
        translation_length = _fenchel_nielsen(coords, 0.0, "t")[1]
        for kernel, length in ((_p_form, core_geodesic(coords)[0]),
                               (twist_oracle, translation_length)):
            near = sign * s / length
            for t in (math.nextafter(near, -math.inf), near, math.nextafter(near, math.inf)):
                assert outcome(kernel, coords, t) == outcome(kernel, coords, FloatSubclass(t)), t
        if s == 650.0:
            count = int(s / translation_length)
            for m in (count, count + 1):
                m = m if sign > 0 else -m
                assert outcome(dehn_twist, coords, m) == outcome(dehn_twist, coords,
                                                                 IntSubclass(m)), m


class TestPFormHome:
    def test_cli_binds_no_p_form_internals(self):
        # p-form's rules live in twist.py alone: the flow command takes sample_flow from there
        internals = ("_p_form", "_growth", "_SHIFT_THRESHOLD", "MAX_TWIST_LENGTH", "_MIN_NORMAL",
                     "HYPERBOLICITY_MARGIN")
        assert [name for name in internals if hasattr(fntwist.cli, name)] == []
        assert fntwist.cli.sample_flow is fntwist.twist.sample_flow


def outcome(kernel, coords, value):
    """kernel(coords, value) as the hex of its four values, or its error's type and text."""
    try:
        return tuple(x.hex() for x in kernel(coords, value))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


# every entry point that takes a twist parameter, as f(coords, t)
T_ENTRY_POINTS = {
    "p_form": twist_p_form,
    "closed_form": twist_closed_form,
    "oracle": twist_oracle,
    "stratum_map": stratum_map,
    "from_core": _p_form,  # p-form's body: the core and the flow in one pass, a plain tuple
    "sample_flow": lambda coords, t: sample_flow(coords, t, 10),
}
PAST_FLOAT_RANGE = ("|t| is past float range, so |t| * L exceeds 650.0 for coords "
                    "(1.0, 1.0, 1.0, 1.0), t = {!r}; result not representable")


class TestParameterGuard:
    @pytest.mark.parametrize("t, error, message", [
        (math.nan, ValueError, "twist parameter must be finite, got nan"),
        (math.inf, ValueError, "twist parameter must be finite, got inf"),
        (-math.inf, ValueError, "twist parameter must be finite, got -inf"),
        (10**400, TwistRangeError, PAST_FLOAT_RANGE.format(10**400)),
        (-10**400, TwistRangeError, PAST_FLOAT_RANGE.format(-10**400)),
    ], ids=["nan", "inf", "-inf", "1e400", "-1e400"])
    @pytest.mark.parametrize("entry", list(T_ENTRY_POINTS))
    def test_every_entry_point_gives_the_same_error(self, entry, t, error, message):
        with pytest.raises(Exception) as info:
            T_ENTRY_POINTS[entry](UNIT, t)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("entry", list(T_ENTRY_POINTS))
    def test_integer_parameter_equals_its_float(self, entry):
        by_int, by_float = T_ENTRY_POINTS[entry](UNIT, 3), T_ENTRY_POINTS[entry](UNIT, 3.0)
        if entry == "stratum_map":  # MobiusMap's == is a tolerance test; compare the entries
            by_int, by_float = by_int.entries(), by_float.entries()
        assert by_int == by_float


class TestTinyFirstCoordinate:
    # below the 1e-12 floor of kernel-sweep's draws, down to X1 = 1e-200
    @pytest.mark.parametrize("coords, t", [
        ((1e-200, 1.0, 1.0, 1.0), 0.1),
        ((1e-170, 1.0, 1.0, 1.0), 0.1),
        ((1e-160, 1.0, 1.0, 1.0), 0.5),
    ])
    @pytest.mark.parametrize("twist", [twist_p_form, twist_closed_form, twist_oracle])
    def test_matches_mpmath_reference(self, twist, coords, t):
        exact = load_benchmark_module("reference").twist_reference(coords, t)
        assert max_rel(twist(AnnulusCoords(*coords), t), [float(v) for v in exact]) < 1e-12


class TestOracle:
    @pytest.mark.parametrize("coords, t", [
        ((1e-6, 1e-6, 1.0, 1.0), 5.0),
        ((1e-6, 1e-6, 1.0, 1.0), -0.37),
        # kernel-sweep's p-form cancellation input, where x1 + p2 cancels
        ((3.5831068678109596e-06, 1.8997443570524623e-06, 0.8248758561768424, 7.552935108750808),
         -2.8560576456242535),
    ])
    def test_matches_mpmath_reference_where_p1_nears_one(self, coords, t):
        exact = load_benchmark_module("reference").twist_reference(coords, t)
        assert max_rel(twist_oracle(AnnulusCoords(*coords), t), [float(v) for v in exact]) < 1e-12

    @pytest.mark.parametrize("s", [350.0, 640.0, -350.0, -640.0])
    @pytest.mark.parametrize("coords", [UNIT, AnnulusCoords(2, 0.7, 3, 0.4),
                                        AnnulusCoords(0.3, 5, 0.2, 7)])
    def test_agrees_with_p_form_at_large_twist(self, coords, s):
        # s > 300 takes p-form's shifted branch
        t = s / core_geodesic(coords)[0]
        assert max_rel(twist_oracle(coords, t), twist_p_form(coords, t)) < 1e-12

    @pytest.mark.parametrize("t", [0.1, -2.0, 5.0])
    @pytest.mark.parametrize("coords", [(1.0, 1e-17, 1.0, 1.0), (1.0, 1.0, 1e17, 1.0),
                                        (1.0, 1.0, 1.0, 1e17), (2.0, 3e-18, 1e18, 0.5)])
    def test_matches_mpmath_reference_where_endpoints_merge(self, coords, t):
        # valid quadruples whose endpoints round together: x2 = x1, x3 = x1 or x4 = 1
        exact = load_benchmark_module("reference").twist_reference(coords, t)
        assert max_rel(twist_oracle(AnnulusCoords(*coords), t), [float(v) for v in exact]) < 1e-12

    def test_range_error_beyond_cap(self):
        too_far = 651.0 / core_geodesic(UNIT)[0]
        with pytest.raises(TwistRangeError, match=rf"\(1\.0, 1\.0, 1\.0, 1\.0\), t = {too_far!r}"):
            twist_oracle(UNIT, too_far)

    def test_parabolic_limit_round_trips(self):
        # core_geodesic rejects this input as not hyperbolic; the oracle keeps the digits of tr - 2
        coords = AnnulusCoords(1e-12, 1e12, 1, 1)
        assert max_rel(twist_oracle(coords, 0.0), coords) < 1e-15

    def test_subnormal_product_matches_mpmath_reference(self):
        # core_geodesic rejects X1 X2 = 1e-310; at d = 1e155 only sqrt(d) sqrt(d + 4) stays finite
        coords = (1e-200, 1e-110, 1.0, 1.0)
        exact = load_benchmark_module("reference").twist_reference(coords, 0.1)
        assert max_rel(twist_oracle(AnnulusCoords(*coords), 0.1), [float(v) for v in exact]) < 1e-12

    def test_product_past_float_range_is_a_range_error(self):
        # X1 (X2 + 1) overflows, so tau is not finite while d stays finite; at
        # (1.5e308, 0.5) X1 X2 itself is finite
        for x1, x2 in [(1e300, 1e300), (1e200, 1e200), (1e300, 1e10), (1.5e308, 0.5)]:
            for twist in (twist_oracle, dehn_twist):
                with pytest.raises(TwistRangeError) as info:
                    twist(AnnulusCoords(x1, x2, 1, 1), 0)
                assert str(info.value) == TAU_OUT_OF_RANGE.format(repr(x1), repr(x2))

    @pytest.mark.parametrize("x1, x2", [(5e-324, 5e-324), (1e-320, 1e-300), (1e-310, 1e-308)])
    def test_core_length_past_float_range_is_a_range_error(self, x1, x2):
        # sqrt(X1 X2) is below about 5.6e-309, so (r - 1)/r and L overflow; at any t or m
        # the error names X1 and X2, not |t| * L = nan
        coords = AnnulusCoords(x1, x2, 1, 1)
        for twist, value in ((twist_oracle, 0.0), (twist_oracle, 1e-3), (dehn_twist, 0),
                             (dehn_twist, -2)):
            with pytest.raises(TwistRangeError) as info:
                twist(coords, value)
            assert str(info.value) == L_OUT_OF_RANGE.format(repr(x1), repr(x2))

    @pytest.mark.parametrize("twist, coords, value", [
        (twist_oracle, (1e-110, 1e55, 1.0, 1.0), 5.0),
        (dehn_twist, (1.8063148471158143e-191, 7.135000465923335e+72, 2.9683560644159535e+177,
                      1424.9646945282793), 2),
        (twist_oracle, (1e50, 1e150, 1.0, 1.0), -1.0),
    ], ids=["oracle-h-positive", "dehn-h-positive", "oracle-h-negative"])
    def test_twisted_x2_past_float_range_is_a_range_error(self, twist, coords, value):
        # mpmath gives X2' = 1.0e330, 4.3e308 and 1.0e350.  Once X2' = up * up overflows,
        # R = hypot(sinh h, sqrt(X2' + 1)) is inf, so sqrt(X1') came out 0 (and r / r'
        # divided by zero) for h >= 0, or nan for h < 0, where X1' is in fact 1e-150
        exact = load_benchmark_module("reference").twist_reference(coords, float(value))
        assert exact[1] > sys.float_info.max
        with pytest.raises(TwistRangeError) as info:
            twist(AnnulusCoords(*coords), value)
        name = "m" if twist is dehn_twist else "t"
        assert str(info.value) == X2_OUT_OF_RANGE.format(coords, name, value)

    def test_no_refusal_reports_nan(self):
        # seeded wide-range draws: each coordinate 10^u with u uniform in +/-w, w up to 300,
        # and |t L| and |m L| uniform to 700, past the cap.  Every refusal is typed (a
        # ZeroDivisionError would escape) and names no nan, by the translation, p-form or
        # the closed form; "discriminant" holds the letters, so nan is matched as a word
        rng, refused = random.Random(3232), []
        for i in range(4000):
            width = (1.0, 10.0, 100.0, 300.0)[i % 4]
            coords = AnnulusCoords(*[10.0 ** rng.uniform(-width, width) for _ in range(4)])
            try:
                length = _fenchel_nielsen(coords, 0.0, "t")[1]
            except TwistRangeError as exc:
                refused.append(str(exc))
                continue
            t = rng.uniform(-700.0, 700.0) / length
            for twist, value in ((twist_oracle, t), (dehn_twist, int(t))):
                try:
                    twist(coords, value)
                except TwistRangeError as exc:
                    refused.append(str(exc))
            for twist in (twist_p_form, twist_closed_form):
                try:
                    twist(coords, t)
                except (ValueError, ArithmeticError) as exc:
                    refused.append(str(exc))
        assert [text for text in refused if re.search(r"\bnan\b", text)] == []
        assert sum(text.startswith("twisted coordinate X2'") for text in refused) > 100
        assert sum(text.startswith("an intermediate overflowed") for text in refused) > 50

    @pytest.mark.parametrize("t", [1000.0, 400.0, -400.0])
    def test_stratum_map_shares_the_cap(self, t):
        # |t| L = 1925 and 770: past the cap, where the diagonal overflows or loses its determinant
        with pytest.raises(TwistRangeError, match=rf"\(1\.0, 1\.0, 1\.0, 1\.0\), t = {t!r}"):
            stratum_map(UNIT, t)


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
        # verify checks dehn_twist against a walk of the rational map that touches no
        # transcendental function; dehn_twist is stubbed with the exact map, so the
        # suite's error is the walk's own
        reference = load_benchmark_module("reference")
        coords = AnnulusCoords(2, 3, 0.5, 4)
        exact = {m: tuple(float(v) for v in reference.dehn_exact(coords, m)) for m in (1, 2, 3)}
        monkeypatch.setattr(fntwist.cli, "dehn_twist", lambda _coords, m: exact[m])

        def boom(*_args):
            raise AssertionError("transcendental call in the dehn-compatibility suite")

        for name in ("exp", "expm1", "cosh", "sinh", "tanh", "acosh", "asinh", "log", "log1p",
                     "sqrt", "hypot"):
            monkeypatch.setattr(math, name, boom)
        assert fntwist.cli._dehn_compatibility(coords, None) < 1e-15

    @pytest.mark.parametrize("m", [10, -10, 40, -40])
    def test_many_steps_match_exact_rational_map(self, m):
        # seeded draws in (0.1, 10)^4 with |m| L <= 300, against the Fraction iteration
        reference = load_benchmark_module("reference")
        rng, checked = Lcg(m), 0
        while checked < 12:
            coords = random_coords(rng)
            if abs(m) * core_geodesic(coords)[0] > 300.0:
                continue
            exact = reference.dehn_exact(coords, m)
            result = dehn_twist(coords, m)
            assert max(reference.rel_error(v, e) for v, e in zip(result, exact)) < 1e-12
            checked += 1

    @pytest.mark.parametrize("coords, m, why", [
        ((1e-10, 1e10, 1.0, 1.0), 10**8, "|m| * L = 1999.9999999916668 exceeds"),
        ((1e-10, 1e10, 1.0, 1.0), -10**8, "|m| * L = 1999.9999999916668 exceeds"),
        ((1e-11, 1e11, 1.0, 1.0), 10**400, "|m| is past float range, so |m| * L exceeds"),
        ((1e-11, 1e11, 1.0, 1.0), -10**400, "|m| is past float range, so |m| * L exceeds"),
        ((1.0, 1.0, 1.0, 1.0), 338, "|m| * L = 650.5983874805839 exceeds"),
        ((1.0, 1.0, 1.0, 1.0), -338, "|m| * L = 650.5983874805839 exceeds"),
    ], ids=["1e8", "-1e8", "1e400", "-1e400", "338", "-338"])
    def test_count_beyond_cap_fails_before_iterating(self, coords, m, why):
        # _growth checks m as it checks t, and names the count as given
        with pytest.raises(TwistRangeError) as info:
            dehn_twist(AnnulusCoords(*coords), m)
        assert str(info.value) == (f"{why} 650.0 for coords {coords}, m = {m}; "
                                   "result not representable")

    @pytest.mark.parametrize("sign", [1, -1])
    def test_count_past_digit_limit_gives_its_size(self, sign):
        # repr of 10**5000 exceeds the int-to-str digit limit, so the message gives its bits
        with pytest.raises(TwistRangeError, match=r"^\|m\| is past float range, so \|m\| \* L "
                                                  r"exceeds 650\.0 ") as info:
            dehn_twist(UNIT, sign * 10**5000)
        size = "<16610-bit int>" if sign > 0 else "-<16610-bit int>"
        assert f"for coords (1.0, 1.0, 1.0, 1.0), m = {size};" in str(info.value)

    def test_long_count_costs_one_step(self):
        # |m| L = 632, below the cap: a loop of 10**8 rational steps runs for seconds, then fails
        reference = load_benchmark_module("reference")
        coords, m = (1e-11, 1e11, 1.0, 1.0), 10**8
        start = time.perf_counter()
        result = dehn_twist(AnnulusCoords(*coords), m)
        assert time.perf_counter() - start < 1.0
        exact = [float(v) for v in reference.twist_reference(coords, float(m))]
        assert max_rel(result, exact) < 1e-10  # 3.2e-14 measured

    def test_documented_domain_matches_mpmath_reference(self):
        # log-uniform in [1e-12, 1e12]^4 with |m| L up to 649.9, against the flow at t = m;
        # worst 1.8e-13, median 1.5e-14 measured
        reference = load_benchmark_module("reference")
        rng, log_lo, log_hi, far = random.Random(2701), math.log(1e-12), math.log(1e12), []
        for _ in range(1000):
            coords = tuple(math.exp(rng.uniform(log_lo, log_hi)) for _ in range(4))
            m = int(rng.uniform(-649.9, 649.9) / reference.core_length(coords)) or 1
            exact = [float(v) for v in reference.twist_reference(coords, float(m))]
            err = max_rel(dehn_twist(AnnulusCoords(*coords), m), exact)
            if not err <= 1e-12:
                far.append((coords, m, err))
        assert far == []

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            dehn_twist(UNIT, 1.5)

    @pytest.mark.parametrize("m", [True, False])
    def test_rejects_bool(self, m):
        with pytest.raises(TypeError, match="twist count must be an integer, got bool"):
            dehn_twist(UNIT, m)


# |trace| = 2 + 1.0005e-12, just past the margin; one twist moves X1 * X2 so that the
# result's trace, recomputed in doubles, would fall within it
NEAR_MARGIN = (1.0001e-12, 999900000000.0, 1.0, 1.0)
# x1 = 1e-12 (1 + u), x2 = (1 + d)/x1: traces within a few ulps of the margin
near_margin_pairs = st.tuples(st.floats(0.0, 3e-3), st.floats(-1e-7, 1e-7)).map(
    lambda ud: (1e-12 * (1.0 + ud[0]), (1.0 + ud[1]) / (1e-12 * (1.0 + ud[0]))))
COUNTED = AnnulusCoords(2, 0.5, 3, 0.25)


class TestTraceCheck:
    def test_results_near_the_margin_are_returned(self):
        reference = load_benchmark_module("reference")
        coords = AnnulusCoords(*NEAR_MARGIN)
        # accuracy this close to the margin is limited by the core; 7.7e-11 measured
        result = twist_p_form(coords, 1.0)
        assert reference.max_rel_error(result, reference.twist_reference(coords, 1.0)) < 1e-9
        for m in (1, -1):
            result = dehn_twist(coords, m)
            assert reference.max_rel_error(result, reference.dehn_exact(coords, m)) < 1e-15

    def test_cli_twist_near_the_margin_exits_zero(self, capsys):
        assert fntwist.cli.main(["twist", "--coords", "1.0001e-12,999900000000,1,1",
                                 "--t", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["output"] == list(twist_oracle(AnnulusCoords(*NEAR_MARGIN), 1.0))

    @given(near_margin_pairs, st.floats(-5.0, 5.0))
    @example(NEAR_MARGIN[:2], 1.0)
    def test_accepted_input_is_never_rejected_by_its_result(self, pair, t):
        coords = AnnulusCoords(*pair, 1, 1)
        try:
            core_geodesic(coords)
        except ValueError:
            return  # rejected where L is first computed, before any kernel runs
        twist_p_form(coords, t)
        twist_closed_form(coords, t)
        for m in (1, -1, 2, -2):
            dehn_twist(coords, m)

    @pytest.mark.parametrize("call, checks", [
        (lambda: twist_p_form(COUNTED, 0.7), 1),
        (lambda: twist_closed_form(COUNTED, 0.7), 1),
        (lambda: twist_oracle(COUNTED, 0.7), 0),  # every positive quadruple has d > 0: no check
        (lambda: dehn_twist(COUNTED, 2), 0),  # the oracle's route
        # entries 2, 5, 1, 3 are COUNTED
        (lambda: apply_local_twist(SurfaceCoords((3.0, 2.0, 0.25, 7.0, 0.5)),
                                   AnnulusEmbedding(2, 5, 1, 3), 0.7), 1),
        # both commands run the translation and report its own L and trace
        (lambda: fntwist.cli.main(["twist", "--coords", "2,0.5,3,0.25", "--t", "0.7"]) == 0, 0),
        (lambda: fntwist.cli.main(["dehn", "--coords", "2,0.5,3,0.25", "--m", "2"]) == 0, 0),
    ], ids=["p-form", "closed-form", "oracle", "dehn", "local-twist", "cli-twist", "cli-dehn"])
    def test_trace_is_checked_once_per_call(self, monkeypatch, capsys, call, checks):
        # the margin is infinite except inside the counting wrapper, so a trace
        # check made anywhere but in the core geodesic's one body rejects every input
        calls, margin, core = [], fntwist.annulus.HYPERBOLICITY_MARGIN, fntwist.annulus._core

        def counted(x1, x2):
            calls.append((x1, x2))
            fntwist.annulus.HYPERBOLICITY_MARGIN = margin
            try:
                return core(x1, x2)
            finally:
                fntwist.annulus.HYPERBOLICITY_MARGIN = math.inf

        monkeypatch.setattr(fntwist.annulus, "HYPERBOLICITY_MARGIN", math.inf)
        for module in (fntwist.annulus, fntwist.twist, fntwist.cli):
            monkeypatch.setattr(module, "_core", counted)
        assert call()
        assert calls == [(2.0, 0.5)] * checks  # always the input's X1, X2, never the result's


# kernel-sweep's near-parabolic fixed inputs that p-form misses at 1e-10, as (X1, X2, t L)
NEAR_PARABOLIC = [
    (1e-12, 1e12, 0.5), (1e-12, 1e12, 400.0), (1e-13, 1e13, 0.5), (1e-13, 1e13, 400.0),
    (1e-12, 1000100000000.0, 0.5), (1e-12, 1000100000000.0, 400.0),
    (1e-13, 10001000000000.0, 0.5), (1e-13, 10001000000000.0, 400.0),
    (1e-12, 1010000000000.0, 400.0), (1e-13, 10100000000000.0, 400.0),
]
# X1 of (X1, 1, 1, 1) whose core geodesic discriminant overflows in p-form and the closed
# form, at t = 0.1
DISCRIMINANT_OVERFLOW = [1e200, 1e160]
# p-form's y2 = x2 * edge2_gap * edge2_gap / (axis_sq * ...): at (1, 1e103, 1, 1) and t = 0
# the product is 1e309 before axis_sq = (p1 - p2)^2 = 1e206 divides it back to 1e103.  The
# identity twist fails once X1 * X2 passes about 5.6e102 at X1 = 1, and 2.6e69 at X1 = 1e-100
LARGE_X2 = [
    ((1.0, 1e103, 1.0, 1.0), 0.0),
    ((1e-100, 1e170, 1.0, 1.0), 0.0),
    # mpmath gives (1.2676518658578455, 7.888601176185544e102, 1, 1) here
    ((1.0, 1e103, 1.0, 1.0), 0.001),
]
# p-form's top1 = x1 * axis_sq * moved * fixed: at (1e150, 1e-300, 1, 1) axis_sq = (p1 - p2)^2
# is 1e300, so x1 * axis_sq is 1e450 though mpmath gives X1' = 1e150 at t = 0 and
# 1.0000000000000057e195 at t = -0.1
LARGE_X1_AXIS = [((1e150, 1e-300, 1.0, 1.0), 0.0), ((1e150, 1e-300, 1.0, 1.0), -0.1)]


class TestDocumentedDomain:
    # every positive quadruple in [1e-12, 1e12]^4 and every |t L| below the 650 cap
    def test_p_form_matches_mpmath_reference(self):
        # and the oracle on every draw, at 1e-12
        reference = load_benchmark_module("reference")
        rng, log_lo, log_hi = random.Random(12345), math.log(1e-12), math.log(1e12)
        far = []
        for _ in range(2000):
            coords = tuple(math.exp(rng.uniform(log_lo, log_hi)) for _ in range(4))
            t = rng.uniform(-649.9, 649.9) / reference.core_length(coords)
            result = twist_p_form(AnnulusCoords(*coords), t)  # no draw may raise
            exact = [float(v) for v in reference.twist_reference(coords, t)]
            err = max_rel(twist_oracle(AnnulusCoords(*coords), t), exact)
            if not err <= 1e-12:
                far.append(("oracle", coords, t, err))
            # nearer the parabolic limit, rounding of the trace dominates p-form's L (the xfails)
            if core_geodesic(AnnulusCoords(*coords))[1] - 2.0 >= 1e-2:
                err = max_rel(result, exact)
                if not err <= 1e-10:
                    far.append(("p-form", coords, t, err))
        assert far == []

    def test_oracle_matches_mpmath_reference_in_near_parabolic_band(self):
        # X1 X2 = 1 + delta, X1 log-uniform in [1e-12, 1e2], delta log-uniform in [1e-12, 1]
        reference = load_benchmark_module("reference")
        rng, far = random.Random(7), []
        for _ in range(400):
            x1 = 10.0 ** rng.uniform(-12.0, 2.0)
            coords = (x1, (1.0 + 10.0 ** rng.uniform(-12.0, 0.0)) / x1, 1.0, 1.0)
            length = reference.core_length(coords)
            t = rng.choice([0.0, 5.0 * length, -5.0 * length, 400.0, -400.0]) / length
            exact = [float(v) for v in reference.twist_reference(coords, t)]
            err = max_rel(twist_oracle(AnnulusCoords(*coords), t), exact)
            if not err <= 1e-12:
                far.append((coords, t, err))
        assert far == []

    @pytest.mark.xfail(strict=True, reason="tr - 2 cancels in the core length, and the trace "
                                            "check rejects X1 X2 = 1 as not hyperbolic")
    @pytest.mark.parametrize("x1, x2, s", NEAR_PARABOLIC)
    def test_near_parabolic_matches_mpmath_reference(self, x1, x2, s):
        reference = load_benchmark_module("reference")
        coords = (x1, x2, 1.0, 1.0)
        t = s / reference.core_length(coords)
        exact = reference.twist_reference(coords, t)
        assert max_rel(twist_p_form(AnnulusCoords(*coords), t), [float(v) for v in exact]) < 1e-10

    # next to the band test's worst p-form draw, at t L = -400; the oracle is 2.9e-14 off here
    @pytest.mark.xfail(strict=True, reason="p-form returns a result 4.0e-2 off and raises nothing")
    def test_p_form_band_draw_matches_mpmath_reference(self):
        reference = load_benchmark_module("reference")
        coords = (2.4655406018552728e-12, 405590562818.1852, 1.0, 1.0)
        t = -400.0 / reference.core_length(coords)
        exact = reference.twist_reference(coords, t)
        assert max_rel(twist_p_form(AnnulusCoords(*coords), t), [float(v) for v in exact]) < 1e-10


class TestDoubleRange:
    # results mpmath gives as normal doubles that the kernels still refuse: an
    # intermediate leaves double range before the result does
    # a loop of rational steps underflows X1 forward and overflows (1 + X2)^2 backward here
    @pytest.mark.parametrize("m", [170, -170, 200, -200, 250, -250])
    def test_dehn_twist_matches_mpmath_reference(self, m):
        # the flow at t = m is the m-fold Dehn twist; mpmath takes ms where dehn_exact takes s
        coords = (1.3, 0.7, 2.0, 0.5)
        exact = load_benchmark_module("reference").twist_reference(coords, float(m))
        assert max_rel(dehn_twist(AnnulusCoords(*coords), m), [float(v) for v in exact]) < 1e-10

    # a loop's forward step took x1 * x1 subnormal before * x2 brought it back: (3.9e-162)^2
    # at step 7, so the loop was 4.5e-2 and 1.6e-2 off here
    @pytest.mark.parametrize("coords, m", [
        ((629044748.9276872, 2.2530370261036243e+29, 18985.46381885888, 5.933403443211474e-28), 7),
        ((4.0641168325449895e-14, 6.12385379256417e-17, 3.957453826540358e-09,
          8.253166321510764e-38), 6),
    ])
    def test_dehn_twist_matches_exact_rational_map(self, coords, m):
        reference = load_benchmark_module("reference")
        result = dehn_twist(AnnulusCoords(*coords), m)
        assert reference.max_rel_error(result, reference.dehn_exact(coords, m)) < 1e-10

    @pytest.mark.xfail(strict=True, reason="the core geodesic discriminant overflows")
    @pytest.mark.parametrize("x1", DISCRIMINANT_OVERFLOW)
    def test_p_form_matches_mpmath_reference(self, x1):
        coords = (x1, 1.0, 1.0, 1.0)
        exact = load_benchmark_module("reference").twist_reference(coords, 0.1)
        assert max_rel(twist_p_form(AnnulusCoords(*coords), 0.1), [float(v) for v in exact]) < 1e-10

    @pytest.mark.parametrize("twist", [twist_p_form, twist_closed_form])
    @pytest.mark.parametrize("x1", DISCRIMINANT_OVERFLOW)
    def test_discriminant_overflow_is_refused(self, x1, twist):
        with pytest.raises(OverflowError) as info:
            twist(AnnulusCoords(x1, 1.0, 1.0, 1.0), 0.1)
        assert type(info.value) is OverflowError
        assert str(info.value) == f"core geodesic discriminant overflows for X1 = {x1!r}, X2 = 1.0"

    @pytest.mark.xfail(strict=True, reason="p-form's x2 * edge2_gap * edge2_gap overflows")
    @pytest.mark.parametrize("coords, t", LARGE_X2)
    def test_p_form_large_x2_matches_mpmath_reference(self, coords, t):
        exact = load_benchmark_module("reference").twist_reference(coords, t)
        assert max_rel(twist_p_form(AnnulusCoords(*coords), t), [float(v) for v in exact]) < 1e-10

    @pytest.mark.xfail(strict=True, reason="p-form's x1 * axis_sq overflows")
    @pytest.mark.parametrize("coords, t", LARGE_X1_AXIS)
    def test_p_form_large_x1_axis_matches_mpmath_reference(self, coords, t):
        exact = load_benchmark_module("reference").twist_reference(coords, t)
        assert max_rel(twist_p_form(AnnulusCoords(*coords), t), [float(v) for v in exact]) < 1e-10

    def test_oracle_matches_mpmath_reference_where_p_form_xfails(self):
        reference = load_benchmark_module("reference")
        # the oracle is within 1.2e-14 and 5.0e-14 on LARGE_X1_AXIS
        cases = [((x1, 1.0, 1.0, 1.0), 0.1) for x1 in DISCRIMINANT_OVERFLOW] + LARGE_X2 + LARGE_X1_AXIS
        for x1, x2, s in NEAR_PARABOLIC:
            cases.append(((x1, x2, 1.0, 1.0), s / reference.core_length((x1, x2, 1.0, 1.0))))
        for coords, t in cases:
            exact = [float(v) for v in reference.twist_reference(coords, t)]
            assert max_rel(twist_oracle(AnnulusCoords(*coords), t), exact) < 1e-12, (coords, t)

    def test_p_form_returns_only_accurate_results(self):
        # coordinates 10^u, u uniform in [-300, 300], and |t L| below the cap: a result
        # that returns is within 1e-10 of mpmath; the rest raise a typed error
        reference = load_benchmark_module("reference")
        rng, far = random.Random(3), []
        for _ in range(1000):
            coords = tuple(10.0 ** rng.uniform(-300.0, 300.0) for _ in range(4))
            s = rng.uniform(-649.9, 649.9)
            length = reference.core_length(coords)
            if not length < 650.0:
                continue
            try:
                result = twist_p_form(AnnulusCoords(*coords), s / length)
            except (ValueError, ArithmeticError):
                continue
            err = max_rel(result, [float(v) for v in reference.twist_reference(coords, s / length)])
            if not err <= 1e-10:
                far.append((coords, s / length, err))
        assert far == []
