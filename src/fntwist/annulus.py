"""Coordinate model of the hyperbolic annulus with one marked point per boundary.

A point of the deformation space is a quadruple of positive cross-ratio
coordinates (X1, X2, X3, X4), one per arc of the standard triangulation.
From them we reconstruct the boundary endpoint configuration of a
fundamental domain and the core geodesic data (trace, length, axis
endpoints) of the gluing holonomy along arc 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mobius import INFINITY, ProjectivePoint, cross_ratio

# Constructor rejects coordinate quadruples whose holonomy trace is within
# this margin of the parabolic threshold 2.
HYPERBOLICITY_MARGIN = 1e-12

# Vertex quadruple, in cross-ratio argument order [x:y:z:w], whose cross
# ratio recovers each coordinate.  Vertices are labelled points of the
# fundamental domain: the four arc endpoints x1..x4 plus the pinned points
# 0, 1, infinity.  The first vertex of each row is an endpoint of the arc
# itself (the diagonal of the quadrilateral); the order is the
# counterclockwise order the quadrilateral induces on the circle.  Arc 2
# is read off across the lift with endpoints (x1, infinity), whose fourth
# vertex is the gluing image of infinity, namely x2.
ARC_QUADRUPLES = {
    1: ("zero", "one", "inf", "x1"),
    2: ("x1", "zero", "inf", "x2"),
    3: ("zero", "inf", "x1", "x3"),
    4: ("one", "x4", "inf", "zero"),
}


def _hyperbolic_trace(x1: float, x2: float) -> float:
    tr = (x1 * (x2 + 1.0) + 1.0) / math.sqrt(x1 * x2)
    if tr <= 2.0 + HYPERBOLICITY_MARGIN:
        raise ValueError(f"holonomy is not hyperbolic: |trace| = {tr} is too close to 2 "
                         f"for X1 = {x1!r}, X2 = {x2!r}")
    return tr


def _coordinate(field: str, v) -> float:
    try:
        v = float(v)
    except (TypeError, ValueError):
        raise ValueError(f"coordinate {field} must be a number, got {v!r}") from None
    if not 0.0 < v < math.inf:  # one test when v is valid; False for nan, inf, 0 and below
        why = "strictly positive" if math.isfinite(v) else "finite"
        raise ValueError(f"coordinate {field} must be {why}, got {v!r}")
    return v


def length_trace(x1: float, x2: float):
    """(L, |trace|) of the core curve from X1, X2; AnnulusCoords' ValueError if not hyperbolic."""
    tr = _hyperbolic_trace(x1, x2)
    return 2.0 * math.acosh(tr / 2.0), tr


@dataclass(frozen=True)
class AnnulusCoords:
    """Positive cross-ratio coordinates (X1, X2, X3, X4) of the annulus."""

    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self):
        # object.__setattr__ passes the frozen guard without giving the instance a full __dict__
        object.__setattr__(self, "x1", _coordinate("X1", self.x1))
        object.__setattr__(self, "x2", _coordinate("X2", self.x2))
        object.__setattr__(self, "x3", _coordinate("X3", self.x3))
        object.__setattr__(self, "x4", _coordinate("X4", self.x4))
        _hyperbolic_trace(self.x1, self.x2)

    def as_tuple(self):
        return (self.x1, self.x2, self.x3, self.x4)


@dataclass(frozen=True)
class EndpointConfig:
    """Boundary endpoints x1..x4 of the fundamental domain, 0, 1, inf pinned.

    The real-line order forced by positive coordinates is
    x2 < x1 < x3 < 0 < 1 < x4, with infinity closing the circle.
    """

    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self):
        for field in ("x1", "x2", "x3", "x4"):
            v = float(getattr(self, field))
            if not math.isfinite(v):
                raise ValueError(f"endpoint {field} must be finite, got {v!r}")
            object.__setattr__(self, field, v)
        if not (self.x2 < self.x1 < self.x3 < 0.0):
            raise ValueError(
                f"endpoint order violated: need x2 < x1 < x3 < 0, "
                f"got x1={self.x1}, x2={self.x2}, x3={self.x3}"
            )
        if not self.x4 > 1.0:
            raise ValueError(f"endpoint order violated: need x4 > 1, got x4={self.x4}")

    def point(self, label: str) -> ProjectivePoint:
        """The labelled vertex as a boundary point (labels of ARC_QUADRUPLES)."""
        if label == "zero":
            return ProjectivePoint(0.0)
        if label == "one":
            return ProjectivePoint(1.0)
        if label == "inf":
            return INFINITY
        return ProjectivePoint(getattr(self, label))


@dataclass(frozen=True)
class CoreGeodesic:
    """Derived data of the core curve: |tr|, length, and axis endpoints p1 > 0 > p2."""

    trace_abs: float
    length: float
    p1: float
    p2: float


def endpoints(coords: AnnulusCoords) -> EndpointConfig:
    """Boundary endpoint configuration determined by the coordinates."""
    x1, x2, x3, x4 = coords.as_tuple()
    return EndpointConfig(
        x1=-x1,
        x2=-x1 * (x2 + 1.0),
        x3=-x1 * x3 / (x3 + 1.0),
        x4=(x4 + 1.0) / x4,
    )


def core_geodesic(coords: AnnulusCoords) -> CoreGeodesic:
    """Trace, length and axis endpoints of the core geodesic.

    The axis endpoints are the roots of p^2 + (X1(X2+1) - 1) p - X1, taken
    larger-magnitude root first and the companion via the product of roots
    -X1, so no cancellation occurs.
    """
    x1, x2 = coords.x1, coords.x2
    length, tr = length_trace(x1, x2)
    lin = x1 * (x2 + 1.0) - 1.0
    disc = (x1 * (x2 + 1.0) + 1.0) ** 2 - 4.0 * x1 * x2
    sq = math.sqrt(disc)
    if lin > 0.0:
        p2 = (-lin - sq) / 2.0
        p1 = -x1 / p2
    else:
        p1 = (-lin + sq) / 2.0
        p2 = -x1 / p1
    return CoreGeodesic(trace_abs=tr, length=length, p1=p1, p2=p2)


def coords_from_endpoints(config: EndpointConfig) -> AnnulusCoords:
    """Recover the coordinate quadruple from an endpoint configuration.

    Inverse of endpoints(): evaluates the four frozen vertex quadruples of
    ARC_QUADRUPLES.  Round-trips to the identity on valid coordinates.
    """
    values = []
    for i in (1, 2, 3, 4):
        pts = [config.point(label) for label in ARC_QUADRUPLES[i]]
        values.append(cross_ratio(*pts))
    return AnnulusCoords(*values)
