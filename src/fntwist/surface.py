"""Apply the twist inside a coordinate vector of a larger marked surface.

When a curve sits inside an embedded one-marked-point-per-boundary annulus,
the twist along it changes only the four coordinates of the annulus arcs;
everything else in the vector is untouched.  Whether the four chosen
indices really bound such an annulus in the user's triangulation is
topological information this module does not have, so the embedding is
taken on trust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .annulus import AnnulusCoords
from .twist import TwistRangeError, twist_p_form


@dataclass(frozen=True)
class SurfaceCoords:
    """Positive cross-ratio coordinates of a labelled triangulation, indexed 1..n."""

    values: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) < 4:
            raise ValueError(f"need at least 4 coordinates, got {len(values)}")
        for i, v in enumerate(values, start=1):
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"coordinate {i} must be positive and finite, got {v}")

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class AnnulusEmbedding:
    """1-based indices of the arcs playing the four annulus roles."""

    i1: int
    i2: int
    i3: int
    i4: int

    def __post_init__(self):
        idx = self.as_tuple()
        if len(set(idx)) != 4:
            raise ValueError(f"embedding indices must be pairwise distinct, got {idx}")
        for i in idx:
            if not isinstance(i, int) or isinstance(i, bool) or i < 1:
                raise ValueError(f"embedding indices must be integers >= 1, got {i!r}")

    def as_tuple(self):
        return (self.i1, self.i2, self.i3, self.i4)


def _prevalidated(values: tuple) -> SurfaceCoords:
    coords = object.__new__(SurfaceCoords)  # the caller's entries already pass __post_init__
    object.__setattr__(coords, "values", values)
    return coords


def apply_local_twist(coords: SurfaceCoords, embedding: AnnulusEmbedding, t) -> SurfaceCoords:
    """Twist the embedded annulus quadruple by t, leaving all other entries alone.

    Untouched entries are copied bit for bit, unchecked; errors name the embedding indices.
    """
    idx = embedding.as_tuple()
    try:
        if max(idx) > len(coords):
            raise ValueError(f"embedding index {max(idx)} exceeds coordinate count {len(coords)}")
        twisted = twist_p_form(AnnulusCoords(*(coords.values[i - 1] for i in idx)), t)
    except (ValueError, TwistRangeError) as exc:
        raise type(exc)(f"{exc}; embedding indices {idx}") from None
    out = list(coords.values)
    for i, v in zip(idx, twisted.as_tuple()):
        out[i - 1] = v
    return _prevalidated(tuple(out))
