import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fntwist import (
    AnnulusCoords,
    Lcg,
    coords_from_endpoints,
    core_geodesic,
    endpoints,
    random_coords,
)
from fntwist.annulus import _coordinate
from fntwist.mobius import MobiusMap
from util import (FloatSubclass, coords_from_endpoints_reference, exponential_fixed_points,
                  holonomy_f2, max_rel, rel_err)

coord_values = st.floats(0.1, 10.0)
coord_quadruples = st.builds(AnnulusCoords, coord_values, coord_values, coord_values, coord_values)
# valid and invalid entries of every kind a caller may pass to AnnulusCoords
mixed_entries = st.one_of(
    st.floats(1e-300, 1e300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 10**6),
    st.floats(0.1, 10.0).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(FloatSubclass),
    st.sampled_from([0, -1, 0.0, -0.0, math.nan, math.inf, -math.inf, None, "x", " 2.5 ",
                     "nan", "-inf", True, 10**400, -10**400]),
)


class Unconvertible:
    def __float__(self):
        raise RuntimeError("no float")


def by_fields(quadruple):
    """What four _coordinate calls in order X1..X4 give: the floats' bits, or the error."""
    try:
        return [_coordinate(f"X{k}", v).hex() for k, v in enumerate(quadruple, start=1)]
    except Exception as exc:
        return type(exc), str(exc)


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
            core_geodesic(AnnulusCoords(1e-13, 1e13, 1, 1))
        core_geodesic(AnnulusCoords(1e-3, 1e3, 1, 1))  # comfortably hyperbolic

    def test_near_parabolic_quadruple_constructs(self):
        # every positive quadruple is a point; only computing L checks the trace
        coords = AnnulusCoords(1e-13, 1e13, 1, 1)
        assert coords == (1e-13, 1e13, 1.0, 1.0)
        assert endpoints(coords) == (-1e-13, -1e-13 * (1e13 + 1.0), -0.5e-13, 2.0)

    def test_not_hyperbolic_message_names_x1_x2(self):
        with pytest.raises(ValueError, match=r"^holonomy is not hyperbolic: .* "
                                             r"for X1 = 1e-13, X2 = 10000000000000\.0$"):
            core_geodesic(AnnulusCoords(1e-13, 1e13, 1, 1))

    @pytest.mark.parametrize("x1, x2", [(1e200, 1e200), (1e300, 1e10), (1.5e308, 0.5),
                                        (1e-200, 1e-200), (3e-162, 1e-162)])
    def test_trace_out_of_range_names_x1_x2(self, x1, x2):
        # the CLI tests pin each full message
        with pytest.raises(ValueError, match=r"^holonomy trace is out of range: ") as info:
            core_geodesic(AnnulusCoords(x1, x2, 1, 1))
        assert str(info.value).endswith(f" for X1 = {x1!r}, X2 = {x2!r}")

    def test_discriminant_overflow_names_x1_x2(self):
        # the trace of (1e200, 1, 1, 1) is finite, but the discriminant's square is not
        coords = AnnulusCoords(1e200, 1, 1, 1)
        with pytest.raises(OverflowError, match=r"^core geodesic discriminant overflows "
                                                r"for X1 = 1e\+200, X2 = 1\.0$"):
            core_geodesic(coords)

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
        # past float range: float() overflows, and the field is named all the same
        pytest.param(10**400, f"coordinate X3 must be finite, got {10**400}", id="int-1e400"),
        pytest.param(-10**400, f"coordinate X3 must be finite, got {-10**400}", id="int--1e400"),
        pytest.param(Fraction(10**400), f"coordinate X3 must be finite, got Fraction({10**400}, 1)",
                     id="Fraction-1e400"),
        pytest.param(10**5000, "coordinate X3 must be finite, got <16610-bit int>",
                     id="int-1e5000"),  # past the int-to-str digit limit: its size is printed
        pytest.param(-Fraction(10**5000), "coordinate X3 must be finite, got -<16610-bit Fraction>",
                     id="Fraction--1e5000"),
    ])
    def test_rejected_inputs_exact_message(self, value, message):
        with pytest.raises(ValueError) as info:
            AnnulusCoords(1.0, 1.0, value, 1.0)
        assert str(info.value) == message

    @given(st.tuples(mixed_entries, mixed_entries, mixed_entries, mixed_entries))
    @example((-1, 10**400, 1, 1))  # X1's error, not the overflow of X2's float()
    @example((1, 10**400, -1, 1))
    @example((FloatSubclass(2.0), "3", 4, True))
    @example((-1, Unconvertible(), 1, 1))  # X1's error, not the later conversion's
    @example((1, Unconvertible(), 1, 1))
    def test_constructor_matches_per_field_checks(self, quadruple):
        try:
            coords = AnnulusCoords(*quadruple)
        except Exception as exc:
            assert by_fields(quadruple) == (type(exc), str(exc))
        else:
            assert type(coords) is AnnulusCoords and all(type(v) is float for v in coords)
            assert by_fields(quadruple) == [v.hex() for v in coords]

    def test_first_invalid_coordinate_is_reported(self):
        with pytest.raises(ValueError, match=r"^coordinate X2 must be finite"):
            AnnulusCoords(1.0, math.inf, -1.0, None)


class TestAnnulusCoordsTuple:
    COORDS = AnnulusCoords(2, 0.5, 3, 0.25)

    def test_is_a_four_tuple_of_floats(self):
        x1, x2, x3, x4 = self.COORDS
        assert isinstance(self.COORDS, tuple) and len(self.COORDS) == 4
        assert (x1, x2, x3, x4) == (2.0, 0.5, 3.0, 0.25)
        assert self.COORDS == (2.0, 0.5, 3.0, 0.25)
        assert (self.COORDS.x1, self.COORDS.x2, self.COORDS.x3, self.COORDS.x4) == self.COORDS
        assert self.COORDS.as_tuple() == self.COORDS and type(self.COORDS.as_tuple()) is tuple

    @pytest.mark.parametrize("name", ["x1", "x4", "other"])
    def test_attributes_cannot_be_set(self, name):
        with pytest.raises(AttributeError):
            setattr(self.COORDS, name, 1.0)
        assert self.COORDS == (2.0, 0.5, 3.0, 0.25)

    def test_repr(self):
        assert repr(self.COORDS) == "AnnulusCoords(x1=2.0, x2=0.5, x3=3.0, x4=0.25)"

    def test_keyword_construction(self):
        assert AnnulusCoords(x1=2, x2=0.5, x3=3, x4=0.25) == self.COORDS

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda c: pickle.loads(pickle.dumps(c))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle_round_trip(self, clone):
        twin = clone(self.COORDS)
        assert type(twin) is AnnulusCoords and twin == self.COORDS

    def test_no_unvalidated_constructor(self):
        assert not hasattr(AnnulusCoords, "_make") and not hasattr(AnnulusCoords, "_replace")


class TestEndpoints:
    def test_unit_coords(self):
        e1, e2, e3, e4 = endpoints(AnnulusCoords(1, 1, 1, 1))
        assert e1 == pytest.approx(-1.0)
        assert e2 == pytest.approx(-2.0)
        assert e3 == pytest.approx(-0.5)
        assert e4 == pytest.approx(2.0)

    def test_doubled_first_coord(self):
        assert endpoints(AnnulusCoords(2, 1, 1, 1)) == pytest.approx((-2.0, -4.0, -1.0, 2.0))

    @given(coord_quadruples)
    def test_ordering_invariant(self, coords):
        e1, e2, e3, e4 = endpoints(coords)
        assert e2 < e1 < e3 < 0.0 < 1.0 < e4

    @pytest.mark.parametrize("coords", [(1, 1e-17, 1, 1), (1, 1, 1e17, 1), (1, 1, 1, 1e17),
                                        (2, 3e-18, 1e18, 0.5)])
    def test_extreme_quadruples_keep_the_order_up_to_rounding(self, coords):
        # rounding merges x2 with x1, x3 with x1 or x4 with 1; nothing raises
        e1, e2, e3, e4 = endpoints(AnnulusCoords(*coords))
        assert e2 <= e1 <= e3 < 0.0 < 1.0 <= e4

    def test_ordering_violation_rejected(self):
        for ends in [
            (-2.0, -1.0, -0.5, 2.0),  # x1 and x2 swapped
            (-1.0, -2.0, -0.5, 0.5),  # x4 inside (0, 1)
            (0.0, -2.0, -0.5, 2.0),  # x1 = 0
            (-1.0, -2.0, -1.0, 2.0),  # x3 = x1
            (-1.0, -2.0, -0.5, 1.0),  # x4 = 1
            (-1.0, -math.inf, -0.5, 2.0),  # a non-finite entry
            (-1.0, -2.0, -0.5, math.nan),
        ]:
            with pytest.raises(ValueError) as info:
                coords_from_endpoints(ends)
            assert str(info.value) == (f"endpoints {ends} violate the order "
                                       "x2 < x1 < x3 < 0 < 1 < x4 of finite values")


class TestHolonomy:
    def test_unit_matrix(self):
        assert holonomy_f2(AnnulusCoords(1, 1, 1, 1)) == MobiusMap(2.0, -1.0, -1.0, 1.0)

    @given(coord_quadruples)
    def test_pinned_point_images(self, coords):
        e1, e2, _, _ = endpoints(coords)
        m = holonomy_f2(coords)
        assert math.isclose(m.apply(0.0), e1, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isinf(m.apply(1.0))
        assert math.isclose(m.apply(math.inf), e2, rel_tol=1e-9, abs_tol=1e-9)

    @given(coord_quadruples)
    def test_trace_closed_form(self, coords):
        expected = (coords.x1 * (coords.x2 + 1.0) + 1.0) / math.sqrt(coords.x1 * coords.x2)
        assert rel_err(holonomy_f2(coords).trace_abs(), expected) < 1e-12


class TestCoreGeodesic:
    def test_unit_values(self):
        length, trace, p1, p2 = core_geodesic(AnnulusCoords(1, 1, 1, 1))
        assert trace == pytest.approx(3.0, rel=1e-12)
        assert length == pytest.approx(1.9248473002, abs=1e-9)
        assert p1 == pytest.approx(0.6180339887, abs=1e-9)
        assert p2 == pytest.approx(-1.6180339887, abs=1e-9)

    @given(coord_quadruples)
    @example(AnnulusCoords(0.5, 1.0, 1.0, 1.0))  # X1 (X2 + 1) - 1 = 0, the smaller-root branch
    def test_root_identities(self, coords):
        _, _, p1, p2 = core_geodesic(coords)
        assert rel_err(p1 * p2, -coords.x1) < 1e-10
        # the sum crosses zero on the surface X1 X2 + X1 = 1, so the
        # comparison needs an absolute floor alongside the relative one
        assert math.isclose(
            p1 + p2,
            1.0 - coords.x1 * coords.x2 - coords.x1,
            rel_tol=1e-10,
            abs_tol=1e-10,
        )

    @given(coord_quadruples)
    def test_signs(self, coords):
        length, trace, p1, p2 = core_geodesic(coords)
        assert 0.0 < p1 < 1.0
        assert p2 < 0.0
        assert trace > 2.0
        assert length > 0.0

    def test_exponential_form_agrees_on_seeded_sweep(self):
        # two independent routes to the axis endpoints: quadratic roots
        # against 1 - sqrt(X1 X2) e^(-/+ L/2), on 1000 log-uniform samples
        rng = Lcg(20240601)
        for _ in range(1000):
            coords = random_coords(rng)
            _, _, p1, p2 = core_geodesic(coords)
            q1, q2 = exponential_fixed_points(coords)
            assert rel_err(p1, q1) < 1e-10
            assert rel_err(p2, q2) < 1e-10

    @given(coord_quadruples)
    def test_half_length_cosh_identity(self, coords):
        length = core_geodesic(coords)[0]
        lhs = math.cosh(length / 2.0) * 2.0 * math.sqrt(coords.x1 * coords.x2)
        rhs = coords.x1 * coords.x2 + coords.x1 + 1.0
        assert rel_err(lhs, rhs) < 1e-10

    @given(coord_quadruples)
    def test_matches_mobius_fixed_points(self, coords):
        # cross-module check: quadratic on the normalized matrix entries
        # against the closed form straight from the coordinates
        _, _, p1, p2 = core_geodesic(coords)
        att, rep = holonomy_f2(coords).fixed_points()
        assert math.isclose(att, p2, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(rep, p1, rel_tol=1e-9, abs_tol=1e-9)

    @given(coord_quadruples)
    def test_length_matches_mobius_route(self, coords):
        assert rel_err(core_geodesic(coords)[0],
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

    @given(st.builds(AnnulusCoords, *[st.floats(1e-8, 1e8)] * 4))
    def test_bit_identical_to_cross_ratio_route(self, coords):
        ends = endpoints(coords)
        assert coords_from_endpoints(ends) == coords_from_endpoints_reference(ends)


class TestLcg:
    @pytest.mark.parametrize("seed", [0, 1, 2**63, -1])
    def test_uniform_follows_readme_recurrence(self, seed):
        # README "Reproducible sampling": u_k = (state_k+1 >> 11) / 2^53, and
        # Lcg.uniform(lo, hi) = lo + (hi - lo) * u_k, bit for bit
        rng, state = Lcg(seed), seed % 2**64
        bounds = [(0.0, 3.0), (0.0, 2.0), (math.log(0.1), math.log(10.0)), (-5.0, 7.5)]
        for k in range(50):
            lo, hi = bounds[k % len(bounds)]
            state = (6364136223846793005 * state + 1442695040888963407) % 2**64
            assert rng.uniform(lo, hi).hex() == (lo + (hi - lo) * ((state >> 11) / 2.0**53)).hex()
            assert rng.state == state


class TestRandomCoords:
    # the uniform draws one verify sample takes after its coordinates, in suite order
    SUITE_DRAWS = [[(0.0, 3.0)], [(0.0, 2.0), (0.0, 2.0)], [(0.0, 3.0)], [], []]

    @pytest.mark.parametrize("seed", [0, 1, 5, 42, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("bounds", [(0.1, 10.0)])  # the one range random_coords draws in
    def test_four_log_uniform_draws_exactly(self, seed, bounds):
        rng, expected_rng = Lcg(seed), Lcg(seed)
        for k in range(60):
            drawn = random_coords(rng)
            expected = tuple(expected_rng.log_uniform(*bounds) for _ in range(4))
            assert drawn.as_tuple() == expected
            assert rng.state == expected_rng.state
            for draw in self.SUITE_DRAWS[k % len(self.SUITE_DRAWS)]:
                assert rng.uniform(*draw) == expected_rng.uniform(*draw)
                assert rng.state == expected_rng.state
