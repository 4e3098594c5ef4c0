"""Apply the twist inside a coordinate vector of a larger marked surface.

When a curve sits inside an embedded one-marked-point-per-boundary annulus,
the twist along it changes only the four coordinates of the annulus arcs;
everything else in the vector is untouched.  Whether the four chosen
indices really bound such an annulus in the user's triangulation is
topological information this module does not have, so the embedding is
taken on trust.
"""

from __future__ import annotations

import struct
from array import array

from .annulus import _coordinate
from .twist import _p_form

# Blocks hold 64 doubles, 512 bytes: the largest request CPython's small-object allocator
# serves.  A narrower block is no cheaper to copy; it only adds references to pass on.
_SHIFT, _MASK = 6, 63  # entry i sits in block (i - 1) >> 6 at slot (i - 1) & 63


class _Frozen:
    """Read-only fields named by _names, compared, hashed and shown as a frozen dataclass's."""

    __slots__ = ()
    _names = ()

    def _fields(self):
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._names])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through the validating constructor
        return type(self), self._fields()


class SurfaceCoords(_Frozen):
    """Positive cross-ratio coordinates of a labelled triangulation, indexed 1..n.

    The validated entries are stored as doubles in a tuple of `array('d')`
    blocks of 64, so a vector of at most 64 entries is one block.  Entry i
    sits in block (i - 1) >> 6 at slot (i - 1) & 63; only the last block may
    be shorter.  The results of `apply_local_twist` share blocks with their
    input, so no block is written after it is built.  `values` builds a new
    tuple of floats on each read, so a caller reading many entries should
    hold it in a local.
    """

    __slots__ = ("_blocks",)
    _names = ("values",)

    def __init__(self, values):
        if isinstance(values, (str, bytes, bytearray)):  # they iterate as characters or ints
            kind = type(values).__name__
            raise TypeError(f"coordinates must be a sequence of numbers, got {kind}")
        entries = array("d", [_coordinate(i, v) for i, v in enumerate(values, start=1)])
        if len(entries) < 4:
            raise ValueError(f"need at least 4 coordinates, got {len(entries)}")
        width = 1 << _SHIFT
        blocks = tuple([entries[k:k + width] for k in range(0, len(entries), width)])
        object.__setattr__(self, "_blocks", blocks)

    @property
    def values(self):
        data = b"".join(self._blocks)
        return struct.unpack(f"{len(data) >> 3}d", data)  # builds the tuple in one pass

    def __len__(self):
        return ((len(self._blocks) - 1) << _SHIFT) + len(self._blocks[-1])


_new_object, _set_blocks = object.__new__, SurfaceCoords._blocks.__set__  # apply_local_twist's


class AnnulusEmbedding(_Frozen):
    """1-based indices of the arcs playing the four annulus roles."""

    __slots__ = _names = ("i1", "i2", "i3", "i4")

    def __init__(self, i1, i2, i3, i4):
        idx = (i1, i2, i3, i4)
        for i in idx:  # before the distinctness test, which would hash lists and equate 1 == 1.0
            if not isinstance(i, int) or isinstance(i, bool) or i < 1:
                raise ValueError(f"embedding indices must be integers >= 1, got {i!r}")
        if len(set(idx)) != 4:
            raise ValueError(f"embedding indices must be pairwise distinct, got {idx}")
        for name, i in zip(self._names, idx):
            object.__setattr__(self, name, i)

    def as_tuple(self):
        return (self.i1, self.i2, self.i3, self.i4)


def apply_local_twist(coords: SurfaceCoords, embedding: AnnulusEmbedding, t) -> SurfaceCoords:
    """Twist the embedded annulus quadruple by t, leaving all other entries alone.

    The kernel is p-form's _p_form, which runs the point in two frames (with
    annulus._core): it checks only the quadruple's trace, once, and
    returns a plain 4-tuple, so no AnnulusCoords is built.  Every error names
    the embedding indices.  The result copies each block holding one of the
    four indices (at most four), writes the twisted values into those copies
    and shares every other block with `coords`, whose blocks are never
    written.  Beyond the twist a call copies at most four 512-byte blocks and
    passes on ceil(n / 64) block references.
    """
    blocks = coords._blocks
    i1, i2, i3, i4 = embedding.i1 - 1, embedding.i2 - 1, embedding.i3 - 1, embedding.i4 - 1
    k1, k2, k3, k4 = i1 >> _SHIFT, i2 >> _SHIFT, i3 >> _SHIFT, i4 >> _SHIFT  # block
    j1, j2, j3, j4 = i1 & _MASK, i2 & _MASK, i3 & _MASK, i4 & _MASK  # slot in the block
    try:
        quad = [blocks[k1][j1], blocks[k2][j2], blocks[k3][j3], blocks[k4][j4]]
    except IndexError:  # the indices are >= 1, so only one past the end gets here
        idx = embedding.as_tuple()
        raise ValueError(f"embedding index {max(idx)} exceeds coordinate count {len(coords)}"
                         f"; embedding indices {idx}") from None
    try:  # twist_p_form's kernel, without the AnnulusCoords it wraps the result in
        twisted = _p_form(quad, t)
    except (ValueError, OverflowError) as exc:  # TwistRangeError is an OverflowError
        raise type(exc)(f"{exc}; embedding indices {embedding.as_tuple()}") from None
    out = list(blocks)
    for k in {k1, k2, k3, k4}:  # each written block is copied once
        out[k] = blocks[k][:]
    out[k1][j1], out[k2][j2], out[k3][j3], out[k4][j4] = twisted
    result = _new_object(SurfaceCoords)  # its entries already pass __init__'s checks
    _set_blocks(result, tuple(out))
    return result
