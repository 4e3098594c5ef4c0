import copy
import math
import pickle
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
from fntwist.surface import _SHIFT
from util import FloatSubclass, max_rel

VECTOR = SurfaceCoords((1.0, 1.0, 1.0, 1.0, 5.0, 7.0))
FRONT = AnnulusEmbedding(1, 2, 3, 4)
# 150 entries are three blocks of 64, 64 and 22; the embedding writes all three
THREE_BLOCKS = tuple([1.0 + (k % 7) / 4.0 for k in range(150)])
TWISTED = apply_local_twist(SurfaceCoords(THREE_BLOCKS), AnnulusEmbedding(1, 64, 65, 150), 0.6)

# frozen float.hex of the four entries apply_local_twist writes into THREE_BLOCKS; at
# 10, 20, 30, 40 the core length is 2.09, so |t| L = 251 and 314 sit on both sides of 300
LOCAL_TWIST_BITS = [
    ((1, 64, 65, 150), 0.6,
     "0x1.eaeccb20079c6p-2 0x1.9d67db115c513p-1 0x1.0129d4705f103p+1 0x1.34989886d879ep+1"),
    ((150, 2, 99, 3), -1.25,
     "0x1.13fc777c11675p-1 0x1.928dabb643dc1p+3 0x1.0d3b25aa0b6c5p-1 0x1.93d8b87f11228p-1"),
    ((5, 6, 7, 8), 2,
     "0x1.ffffffffffffcp-4 0x1.0000000000004p+0 0x1.dffffffffffffp+3 0x1.7ffffffffffffp+2"),
    ((70, 71, 1, 140), FloatSubclass(-0.3),
     "0x1.427a0aa8ee166p+1 0x1.e38273a11a3c5p+0 0x1.731e77abb9cf9p-1 0x1.cfe61596a8437p+0"),
    ((10, 20, 30, 40), 120.0,
     "0x1.f6149e939726fp-360 0x1.01b99f3887e41p+356 0x1.a25f07804d544p+2 0x1.4eb26c66a4436p+3"),
    ((10, 20, 30, 40), -120.0,
     "0x1.cf90fc2b8a658p-361 0x1.1e673817226aap+363 0x1.9d07c3fd955eap-1 0x1.4a6c9ccadde55p+0"),
    ((10, 20, 30, 40), 150.0,
     "0x1.557d7a70c7f02p-450 0x1.7aec7f5e4c65ep+446 0x1.a25f07804d544p+2 0x1.4eb26c66a4436p+3"),
    ((10, 20, 30, 40), -150.0,
     "0x1.3b4b725645984p-451 0x1.a51694ac7278fp+453 0x1.9d07c3fd955eap-1 0x1.4a6c9ccadde55p+0"),
]


# the documented layout: blocks of 64 entries at every n
BLOCK_WIDTH = 64


def flat_twist(values, idx, t):
    """The tuple a flat vector holds after twisting the quadruple at idx by t."""
    patched = list(values)
    for i, v in zip(idx, twist_p_form(AnnulusCoords(*(values[i - 1] for i in idx)), t)):
        patched[i - 1] = v
    return tuple(patched)


def hex_floats(values):
    return [x.hex() for x in values]


class TestValidation:
    def test_too_short_vector(self):
        with pytest.raises(ValueError):
            SurfaceCoords((1.0, 2.0, 3.0))

    def test_nonpositive_entry(self):
        with pytest.raises(ValueError):
            SurfaceCoords((1.0, -2.0, 3.0, 4.0))

    @pytest.mark.parametrize("value, message", [
        (math.nan, "coordinate 3 must be finite, got nan"),
        (math.inf, "coordinate 3 must be finite, got inf"),
        (0, "coordinate 3 must be strictly positive, got 0.0"),
        (-1, "coordinate 3 must be strictly positive, got -1.0"),
        ("x", "coordinate 3 must be a number, got 'x'"),
        (None, "coordinate 3 must be a number, got None"),
        pytest.param(-10**400, f"coordinate 3 must be finite, got {-10**400}", id="int--1e400"),
        pytest.param(10**5000, "coordinate 3 must be finite, got <16610-bit int>", id="int-1e5000"),
    ])
    def test_rejected_entry_exact_message(self, value, message):
        with pytest.raises(ValueError) as info:
            SurfaceCoords((1.0, 1.0, value, 1.0, 5.0))
        assert str(info.value) == message

    @pytest.mark.parametrize("values, name", [
        ("1234", "str"),
        (b"\x01\x02\x03\x04", "bytes"),
        (bytearray(b"\x01\x02\x03\x04"), "bytearray"),
    ])
    def test_text_and_bytes_are_not_vectors(self, values, name):
        # they iterate as characters or small ints, which float() would accept one by one
        with pytest.raises(TypeError) as info:
            SurfaceCoords(values)
        assert str(info.value) == f"coordinates must be a sequence of numbers, got {name}"

    def test_numeric_strings_inside_a_sequence_are_entries(self):
        assert SurfaceCoords(["1", 2, 3.0, 4]).values == (1.0, 2.0, 3.0, 4.0)

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

    @pytest.mark.parametrize("indices, message", [
        ((1, 2, 2, 4), "embedding indices must be pairwise distinct, got (1, 2, 2, 4)"),
        ((0, 1, 2, 3), "embedding indices must be integers >= 1, got 0"),
        ((True, 2, 3, 4), "embedding indices must be integers >= 1, got True"),
        (([1], 2, 3, 4), "embedding indices must be integers >= 1, got [1]"),
        ((1, 1.0, 2, 3), "embedding indices must be integers >= 1, got 1.0"),
        ((1, True, 2, 3), "embedding indices must be integers >= 1, got True"),
    ])
    def test_embedding_index_exact_message(self, indices, message):
        # the integer check runs first: a list is unhashable, and 1 == 1.0 == True
        with pytest.raises(ValueError) as info:
            AnnulusEmbedding(*indices)
        assert str(info.value) == message

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
        (THREE_BLOCKS, (1, 2, 3, 151), 1.0, ValueError,
         "embedding index 151 exceeds coordinate count 150"),
        (THREE_BLOCKS, (1, 2, 3, 200), 1.0, ValueError,
         "embedding index 200 exceeds coordinate count 150"),
        ((1e200, 1.0, 1.0, 1.0, 5.0, 7.0), (1, 2, 3, 4), 0.1, OverflowError,
         "core geodesic discriminant overflows"),
    ], ids=["index-past-end", "not-hyperbolic", "beyond-cap", "index-past-short-last-block",
            "index-in-missing-block", "overflow"])
    def test_failure_names_embedding_and_leaves_input_alone(self, values, indices, t, error,
                                                            cause):
        vec = SurfaceCoords(values)
        with pytest.raises(error) as info:
            apply_local_twist(vec, AnnulusEmbedding(*indices), t)
        assert type(info.value) is error
        assert cause in str(info.value)
        assert str(info.value).endswith(f"; embedding indices {indices}")
        assert vec.values == values and vec == SurfaceCoords(values)


class TestValueSemantics:
    # plain __slots__ classes that behave as the frozen dataclasses they replaced
    def test_surface_coords_equality_hash_and_repr(self):
        a, b = SurfaceCoords((1, 2.5, 3, 4)), SurfaceCoords((1.0, 2.5, 3.0, 4.0))
        assert type(a.values) is tuple and all(type(v) is float for v in a.values)
        assert a == b and hash(a) == hash(b) == hash(((1.0, 2.5, 3.0, 4.0),))
        assert a != SurfaceCoords((1.0, 2.5, 3.0, 5.0))
        assert a != (1.0, 2.5, 3.0, 4.0) and a != FRONT
        assert repr(a) == "SurfaceCoords(values=(1.0, 2.5, 3.0, 4.0))"
        assert len({a, b}) == 1

    def test_annulus_embedding_equality_hash_and_repr(self):
        emb = AnnulusEmbedding(2, 5, 1, 6)
        assert emb == AnnulusEmbedding(i1=2, i2=5, i3=1, i4=6)
        assert emb != AnnulusEmbedding(2, 5, 6, 1) and emb != (2, 5, 1, 6)
        assert hash(emb) == hash((2, 5, 1, 6))
        assert repr(emb) == "AnnulusEmbedding(i1=2, i2=5, i3=1, i4=6)"
        assert emb.as_tuple() == (2, 5, 1, 6)

    @pytest.mark.parametrize("obj, name", [
        (VECTOR, "values"), (VECTOR, "extra"), (FRONT, "i1"), (FRONT, "extra"),
    ])
    def test_attributes_are_read_only(self, obj, name):
        before = repr(obj)
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert repr(obj) == before

    @pytest.mark.parametrize("obj", [VECTOR, FRONT, TWISTED])
    def test_copy_and_pickle_round_trip(self, obj):
        for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(clone) is type(obj) and clone == obj
            assert hash(clone) == hash(obj) and repr(clone) == repr(obj)

    def test_twisted_result_behaves_as_its_flat_rebuild(self):
        # the result's blocks are partly its input's; none of that shows through its value
        flat = SurfaceCoords(TWISTED.values)
        assert TWISTED == flat and flat == TWISTED and len({TWISTED, flat}) == 1
        assert hash(TWISTED) == hash(flat) == hash((TWISTED.values,))
        assert repr(TWISTED) == repr(flat) and len(TWISTED) == len(flat) == 150
        for clone in (copy.copy(TWISTED), copy.deepcopy(TWISTED),
                      pickle.loads(pickle.dumps(TWISTED))):
            assert clone == flat and hash(clone) == hash(flat) and repr(clone) == repr(flat)


class TestApplyLocalTwist:
    def test_result_is_a_valid_frozen_surface_coords(self):
        out = apply_local_twist(VECTOR, AnnulusEmbedding(2, 5, 1, 6), 0.6)
        assert out == SurfaceCoords(out.values)
        assert type(out.values) is tuple and all(type(v) is float for v in out.values)
        with pytest.raises(AttributeError):
            out.values = VECTOR.values

    def test_success_leaves_input_alone(self):
        # the result's entries are a copy: writing the four twisted ones never reaches the input
        vec = SurfaceCoords((0.5, 4.0, 9.9, 0.2, 2.0, 3.0, 7.0))
        before = vec.values
        out = apply_local_twist(vec, AnnulusEmbedding(5, 1, 6, 2), 1.25)
        assert out.values != before
        assert vec.values == before and vec == SurfaceCoords(before)

    @pytest.mark.parametrize("indices, t, expected", LOCAL_TWIST_BITS)
    def test_twisted_entries_keep_their_bits(self, indices, t, expected):
        out = apply_local_twist(SurfaceCoords(THREE_BLOCKS), AnnulusEmbedding(*indices), t)
        values = out.values
        assert type(out) is SurfaceCoords and len(values) == len(THREE_BLOCKS)
        assert " ".join([values[i - 1].hex() for i in indices]) == expected

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
        before, after = vec.values, out.values  # each read of .values builds a new tuple
        assert all(after[i - 1] == before[i - 1] for i in range(1, 201) if i not in written)
        vec = out
    assert max_rel(vec.values, start.values) < 1e-10


def test_seeded_word_matches_tuple_rebuild_bit_for_bit():
    # the reference rebuilds the vector the way a tuple-backed SurfaceCoords would
    rng = random.Random(20240601)
    start = tuple(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(300))
    vec, expected = SurfaceCoords(start), start
    for _ in range(200):
        emb, t = AnnulusEmbedding(*rng.sample(range(1, 301), 4)), rng.uniform(-1.0, 1.0)
        vec = apply_local_twist(vec, emb, t)
        idx = emb.as_tuple()
        patched = list(expected)
        for i, v in zip(idx, twist_p_form(AnnulusCoords(*(expected[i - 1] for i in idx)), t)):
            patched[i - 1] = v
        expected = tuple(patched)
    assert [x.hex() for x in vec.values] == [x.hex() for x in expected]


class TestSharedBlocks:
    # a result copies the blocks it writes and shares the rest with its input

    @pytest.mark.parametrize("n", [4, 5, 8, 9, 63, 64, 65, 1000, 1025, 8191, 8192, 40000])
    def test_block_edges_match_a_flat_rebuild(self, n):
        rng = random.Random(n)
        start = tuple(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(n))
        vec = SurfaceCoords(start)
        w = BLOCK_WIDTH
        assert 1 << _SHIFT == w and len(vec) == n
        assert [len(b) for b in vec._blocks] == [w] * ((n - 1) // w) + [n - (n - 1) // w * w]
        last_start = (n - 1) // w * w + 1  # the first slot of the last block, which may be short
        edges = sorted({1, 2, min(w, n), min(w + 1, n), last_start, n - 1, n})
        for k in range(len(edges) - 3):
            idx = tuple(edges[k:k + 4]) if k % 2 else tuple(reversed(edges[k:k + 4]))
            out = apply_local_twist(vec, AnnulusEmbedding(*idx), 0.4)
            assert hex_floats(out.values) == hex_floats(flat_twist(start, idx, 0.4))
            assert len(out) == n
        assert hex_floats(vec.values) == hex_floats(start)

    def test_siblings_writing_one_block_stay_apart(self):
        start = tuple(1.0 + (k % 11) / 5.0 for k in range(300))
        parent = SurfaceCoords(start)
        # blocks of 64: both write blocks 0, 1 and 4, and only one of them writes 2 or 3
        left, right = AnnulusEmbedding(3, 70, 140, 300), AnnulusEmbedding(5, 71, 200, 299)
        a = apply_local_twist(parent, left, 0.5)
        b = apply_local_twist(parent, right, -0.7)
        assert a._blocks[0] is not b._blocks[0] and a._blocks[1] is not b._blocks[1]
        assert hex_floats(parent.values) == hex_floats(start)
        assert hex_floats(a.values) == hex_floats(flat_twist(start, left.as_tuple(), 0.5))
        assert hex_floats(b.values) == hex_floats(flat_twist(start, right.as_tuple(), -0.7))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([8, 65, 300, 1000, 5000, 10000]))
    def test_untouched_blocks_are_shared(self, seed, n):
        rng = random.Random(seed)
        vec = SurfaceCoords([10.0 ** rng.uniform(-1.0, 1.0) for _ in range(n)])
        emb = AnnulusEmbedding(*rng.sample(range(1, n + 1), 4))
        out = apply_local_twist(vec, emb, rng.uniform(-1.0, 1.0))
        touched = {(i - 1) >> _SHIFT for i in emb.as_tuple()}
        assert len(out._blocks) == len(vec._blocks)
        for k, (old, new) in enumerate(zip(vec._blocks, out._blocks)):
            assert (old is not new) if k in touched else (old is new)
        assert len(touched) <= 4

