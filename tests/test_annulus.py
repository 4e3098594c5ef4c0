import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fntwist import (
    INFINITY,
    AnnulusCoords,
    EndpointConfig,
    Lcg,
    MobiusMap,
    ProjectivePoint,
    coords_from_endpoints,
    core_geodesic,
    endpoints,
    random_coords,
)
from util import exponential_fixed_points, holonomy_f2, max_rel, rel_err

coord_values = st.floats(0.1, 10.0)
coord_quadruples = st.builds(AnnulusCoords, coord_values, coord_values, coord_values, coord_values)


class TestAnnulusCoords:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            AnnulusCoords(1, -1, 1, 1)
        with pytest.raises(ValueError):
            AnnulusCoords(0, 1, 1, 1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AnnulusCoords(math.nan, 1, 1, 1)
        with pytest.raises(ValueError):
            AnnulusCoords(1, math.inf, 1, 1)

    def test_rejects_near_parabolic(self):
        # X2 = 1/X1 minimizes the trace at 2 + X1
        with pytest.raises(ValueError):
            AnnulusCoords(1e-13, 1e13, 1, 1)
        AnnulusCoords(1e-3, 1e3, 1, 1)  # comfortably hyperbolic

    def test_not_hyperbolic_message_names_x1_x2(self):
        with pytest.raises(ValueError, match=r"^holonomy is not hyperbolic: .* "
                                             r"for X1 = 1e-13, X2 = 10000000000000\.0$"):
            AnnulusCoords(1e-13, 1e13, 1, 1)

    def test_coerces_to_float(self):
        coords = AnnulusCoords(1, 2, 3, 4)
        assert all(isinstance(v, float) for v in coords.as_tuple())

    @pytest.mark.parametrize("value, expected", [(2, 2.0), ("2.5", 2.5), (True, 1.0)])
    def test_accepted_inputs_become_floats(self, value, expected):
        coords = AnnulusCoords(1.0, 1.0, value, 1.0)
        assert type(coords.x3) is float and coords.x3 == expected

    @pytest.mark.parametrize("value, message", [
        (math.nan, "coordinate X3 must be finite, got nan"),
        (math.inf, "coordinate X3 must be finite, got inf"),
        (0, "coordinate X3 must be strictly positive, got 0.0"),
        (-1, "coordinate X3 must be strictly positive, got -1.0"),
        ("abc", "coordinate X3 must be a number, got 'abc'"),
        (None, "coordinate X3 must be a number, got None"),
    ])
    def test_rejected_inputs_exact_message(self, value, message):
        with pytest.raises(ValueError) as info:
            AnnulusCoords(1.0, 1.0, value, 1.0)
        assert str(info.value) == message

    def test_first_invalid_coordinate_is_reported(self):
        with pytest.raises(ValueError, match=r"^coordinate X2 must be finite"):
            AnnulusCoords(1.0, math.inf, -1.0, None)


class TestEndpoints:
    def test_unit_coords(self):
        ends = endpoints(AnnulusCoords(1, 1, 1, 1))
        assert ends.x1 == pytest.approx(-1.0)
        assert ends.x2 == pytest.approx(-2.0)
        assert ends.x3 == pytest.approx(-0.5)
        assert ends.x4 == pytest.approx(2.0)

    def test_doubled_first_coord(self):
        ends = endpoints(AnnulusCoords(2, 1, 1, 1))
        assert (ends.x1, ends.x2, ends.x3, ends.x4) == pytest.approx((-2.0, -4.0, -1.0, 2.0))

    @given(coord_quadruples)
    def test_ordering_invariant(self, coords):
        ends = endpoints(coords)
        assert ends.x2 < ends.x1 < ends.x3 < 0.0 < 1.0 < ends.x4

    def test_ordering_violation_rejected(self):
        with pytest.raises(ValueError):
            EndpointConfig(x1=-2.0, x2=-1.0, x3=-0.5, x4=2.0)  # x1 and x2 swapped
        with pytest.raises(ValueError):
            EndpointConfig(x1=-1.0, x2=-2.0, x3=-0.5, x4=0.5)  # x4 inside (0, 1)


class TestHolonomy:
    def test_unit_matrix(self):
        assert holonomy_f2(AnnulusCoords(1, 1, 1, 1)) == MobiusMap(2.0, -1.0, -1.0, 1.0)

    @given(coord_quadruples)
    def test_pinned_point_images(self, coords):
        ends = endpoints(coords)
        m = holonomy_f2(coords)
        assert m.apply(0.0).isclose(ProjectivePoint(ends.x1), rel_tol=1e-9)
        assert m.apply(1.0) == INFINITY
        assert m.apply(INFINITY).isclose(ProjectivePoint(ends.x2), rel_tol=1e-9)

    @given(coord_quadruples)
    def test_trace_closed_form(self, coords):
        expected = (coords.x1 * (coords.x2 + 1.0) + 1.0) / math.sqrt(coords.x1 * coords.x2)
        assert rel_err(holonomy_f2(coords).trace_abs(), expected) < 1e-12


class TestCoreGeodesic:
    def test_unit_values(self):
        core = core_geodesic(AnnulusCoords(1, 1, 1, 1))
        assert core.trace_abs == pytest.approx(3.0, rel=1e-12)
        assert core.length == pytest.approx(1.9248473002, abs=1e-9)
        assert core.p1 == pytest.approx(0.6180339887, abs=1e-9)
        assert core.p2 == pytest.approx(-1.6180339887, abs=1e-9)

    @given(coord_quadruples)
    def test_root_identities(self, coords):
        core = core_geodesic(coords)
        assert rel_err(core.p1 * core.p2, -coords.x1) < 1e-10
        # the sum crosses zero on the surface X1 X2 + X1 = 1, so the
        # comparison needs an absolute floor alongside the relative one
        assert math.isclose(
            core.p1 + core.p2,
            1.0 - coords.x1 * coords.x2 - coords.x1,
            rel_tol=1e-10,
            abs_tol=1e-10,
        )

    @given(coord_quadruples)
    def test_signs(self, coords):
        core = core_geodesic(coords)
        assert 0.0 < core.p1 < 1.0
        assert core.p2 < 0.0
        assert core.trace_abs > 2.0
        assert core.length > 0.0

    def test_exponential_form_agrees_on_seeded_sweep(self):
        # two independent routes to the axis endpoints: quadratic roots
        # against 1 - sqrt(X1 X2) e^(-/+ L/2), on 1000 log-uniform samples
        rng = Lcg(20240601)
        for _ in range(1000):
            coords = random_coords(rng)
            core = core_geodesic(coords)
            q1, q2 = exponential_fixed_points(coords)
            assert rel_err(core.p1, q1) < 1e-10
            assert rel_err(core.p2, q2) < 1e-10

    @given(coord_quadruples)
    def test_half_length_cosh_identity(self, coords):
        core = core_geodesic(coords)
        lhs = math.cosh(core.length / 2.0) * 2.0 * math.sqrt(coords.x1 * coords.x2)
        rhs = coords.x1 * coords.x2 + coords.x1 + 1.0
        assert rel_err(lhs, rhs) < 1e-10

    @given(coord_quadruples)
    def test_matches_mobius_fixed_points(self, coords):
        # cross-module check: quadratic on the normalized matrix entries
        # against the closed form straight from the coordinates
        core = core_geodesic(coords)
        att, rep = holonomy_f2(coords).fixed_points()
        assert att.isclose(ProjectivePoint(core.p2), rel_tol=1e-9, abs_tol=1e-9)
        assert rep.isclose(ProjectivePoint(core.p1), rel_tol=1e-9, abs_tol=1e-9)

    @given(coord_quadruples)
    def test_length_matches_mobius_route(self, coords):
        assert rel_err(core_geodesic(coords).length,
                       holonomy_f2(coords).translation_length()) < 1e-10


class TestCoordsFromEndpoints:
    def test_unit_round_trip(self):
        coords = AnnulusCoords(1, 1, 1, 1)
        assert coords_from_endpoints(endpoints(coords)).as_tuple() == pytest.approx(
            coords.as_tuple(), rel=1e-12
        )

    def test_mixed_round_trip(self):
        coords = AnnulusCoords(2, 3, 0.5, 4)
        assert max_rel(coords_from_endpoints(endpoints(coords)), coords) < 1e-10

    @given(coord_quadruples)
    def test_round_trip_identity(self, coords):
        assert max_rel(coords_from_endpoints(endpoints(coords)), coords) < 1e-10
