import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fntwist import (
    AnnulusCoords,
    AnnulusEmbedding,
    SurfaceCoords,
    TwistRangeError,
    apply_local_twist,
    twist_p_form,
)
from util import max_rel

VECTOR = SurfaceCoords((1.0, 1.0, 1.0, 1.0, 5.0, 7.0))
FRONT = AnnulusEmbedding(1, 2, 3, 4)


class TestValidation:
    def test_too_short_vector(self):
        with pytest.raises(ValueError):
            SurfaceCoords((1.0, 2.0, 3.0))

    def test_nonpositive_entry(self):
        with pytest.raises(ValueError):
            SurfaceCoords((1.0, -2.0, 3.0, 4.0))

    def test_repeated_embedding_index(self):
        with pytest.raises(ValueError):
            AnnulusEmbedding(1, 2, 2, 4)

    def test_nonpositive_embedding_index(self):
        with pytest.raises(ValueError):
            AnnulusEmbedding(0, 1, 2, 3)

    def test_bool_embedding_index(self):
        # bool subclasses int, but True is not index 1
        with pytest.raises(ValueError, match="embedding indices must be integers >= 1, got True"):
            AnnulusEmbedding(True, 2, 3, 4)

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            apply_local_twist(VECTOR, AnnulusEmbedding(1, 2, 3, 7), 1.0)

    def test_invalid_extracted_quadruple(self):
        # quadruple (X1, X2) with trace at the parabolic threshold is refused
        vec = SurfaceCoords((1e-13, 1e13, 1.0, 1.0, 5.0))
        with pytest.raises(ValueError):
            apply_local_twist(vec, FRONT, 1.0)

    @pytest.mark.parametrize("values, indices, t, error, cause", [
        ((1.0, 1.0, 1.0, 1.0, 5.0, 7.0), (1, 2, 3, 7), 1.0, ValueError,
         "embedding index 7 exceeds coordinate count 6"),
        ((5.0, 1e-13, 1e13, 1.0, 1.0), (2, 3, 4, 5), 1.0, ValueError,
         "holonomy is not hyperbolic"),
        ((1.0, 1.0, 1.0, 1.0, 5.0, 7.0), (1, 2, 3, 4), 400.0, TwistRangeError,
         "exceeds 650.0"),
    ], ids=["index-past-end", "not-hyperbolic", "beyond-cap"])
    def test_failure_names_embedding_and_leaves_input_alone(self, values, indices, t, error,
                                                            cause):
        vec = SurfaceCoords(values)
        with pytest.raises(error) as info:
            apply_local_twist(vec, AnnulusEmbedding(*indices), t)
        assert type(info.value) is error
        assert cause in str(info.value)
        assert str(info.value).endswith(f"; embedding indices {indices}")
        assert vec.values == values and vec == SurfaceCoords(values)


class TestApplyLocalTwist:
    def test_result_is_a_valid_frozen_surface_coords(self):
        out = apply_local_twist(VECTOR, AnnulusEmbedding(2, 5, 1, 6), 0.6)
        assert out == SurfaceCoords(out.values)
        assert type(out.values) is tuple and all(type(v) is float for v in out.values)
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.values = VECTOR.values

    def test_zero_twist_unchanged(self):
        assert apply_local_twist(VECTOR, FRONT, 0.0).values == pytest.approx(
            VECTOR.values, rel=1e-12
        )

    def test_unit_twist_front_block(self):
        out = apply_local_twist(VECTOR, FRONT, 1.0)
        assert out.values[:4] == pytest.approx((0.25, 1.0, 2.0, 2.0), rel=1e-12)
        assert out.values[4:] == (5.0, 7.0)

    def test_untouched_entries_bit_identical(self):
        vec = SurfaceCoords((2.0, 0.3, 1.7, 0.9, 0.1 + 0.2, 1e-7, 3.15e8))
        out = apply_local_twist(vec, AnnulusEmbedding(2, 4, 1, 3), 0.75)
        for i in (4, 5, 6):
            assert out.values[i] == vec.values[i]

    def test_matches_twist_on_quadruple_exactly(self):
        emb = AnnulusEmbedding(5, 1, 6, 2)
        vec = SurfaceCoords((0.5, 4.0, 9.9, 0.2, 2.0, 3.0, 7.0))
        out = apply_local_twist(vec, emb, 1.25)
        quad = AnnulusCoords(*(vec.values[i - 1] for i in emb.as_tuple()))
        expected = twist_p_form(quad, 1.25)
        for i, v in zip(emb.as_tuple(), expected.as_tuple()):
            assert out.values[i - 1] == v

    def test_commutes_with_permuting_untouched_indices(self):
        vec = SurfaceCoords((1.0, 2.0, 0.5, 4.0, 5.0, 6.0, 7.0))
        emb = AnnulusEmbedding(1, 2, 3, 4)
        twisted_then_swapped = list(apply_local_twist(vec, emb, 0.8).values)
        twisted_then_swapped[4], twisted_then_swapped[6] = (
            twisted_then_swapped[6],
            twisted_then_swapped[4],
        )
        swapped = list(vec.values)
        swapped[4], swapped[6] = swapped[6], swapped[4]
        swapped_then_twisted = apply_local_twist(SurfaceCoords(tuple(swapped)), emb, 0.8)
        assert tuple(twisted_then_swapped) == swapped_then_twisted.values

    @given(st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    def test_flow_additivity_entrywise(self, s, t):
        stepwise = apply_local_twist(apply_local_twist(VECTOR, FRONT, s), FRONT, t)
        direct = apply_local_twist(VECTOR, FRONT, s + t)
        assert max_rel(stepwise.values, direct.values) < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_seeded_word_and_inverse_touch_only_their_quadruples(seed):
    rng = random.Random(seed)
    start = SurfaceCoords(tuple(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(200)))
    word = [(AnnulusEmbedding(*rng.sample(range(1, 201), 4)), rng.uniform(-1.0, 1.0))
            for _ in range(50)]
    steps = word + [(emb, -t) for emb, t in reversed(word)]
    vec = start
    for emb, t in steps:
        out = apply_local_twist(vec, emb, t)
        written = set(emb.as_tuple())
        assert all(out.values[i - 1] == vec.values[i - 1]
                   for i in range(1, 201) if i not in written)
        vec = out
    assert max_rel(vec.values, start.values) < 1e-10
