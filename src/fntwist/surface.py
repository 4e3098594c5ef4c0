"""Apply the twist inside a coordinate vector of a larger marked surface.

When a curve sits inside an embedded one-marked-point-per-boundary annulus,
the twist along it changes only the four coordinates of the annulus arcs;
everything else in the vector is untouched.  Whether the four chosen
indices really bound such an annulus in the user's triangulation is
topological information this module does not have, so the embedding is
taken on trust.
"""

from __future__ import annotations

from array import array

from .annulus import _coordinate, _prevalidated
from .twist import TwistRangeError, twist_p_form


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

    The entries are stored as doubles in an array that nothing mutates after
    construction; `values` builds a new tuple of floats on each read, so a
    caller reading many entries should hold it in a local.
    """

    __slots__ = ("_entries",)
    _names = ("values",)

    def __init__(self, values):
        entries = array("d", [_coordinate(i, v) for i, v in enumerate(values, start=1)])
        object.__setattr__(self, "_entries", entries)
        if len(entries) < 4:
            raise ValueError(f"need at least 4 coordinates, got {len(entries)}")

    @property
    def values(self):
        return tuple(self._entries)

    def __len__(self):
        return len(self._entries)


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

    No entry is re-validated, only the quadruple's trace; errors name the embedding indices.
    """
    idx = embedding.as_tuple()
    entries = coords._entries
    try:
        if max(idx) > len(entries):
            raise ValueError(f"embedding index {max(idx)} exceeds coordinate count {len(entries)}")
        twisted = twist_p_form(_prevalidated([entries[i - 1] for i in idx]), t)
    except (ValueError, TwistRangeError) as exc:
        raise type(exc)(f"{exc}; embedding indices {idx}") from None
    out = entries[:]  # one copy of the doubles; the input's array is never written
    for i, v in zip(idx, twisted):
        out[i - 1] = v
    result = object.__new__(SurfaceCoords)  # its entries already pass __init__'s checks
    object.__setattr__(result, "_entries", out)
    return result
