"""Fenchel-Nielsen twist flow on cross-ratio coordinates of the marked annulus.

The flow along the core curve of a one-marked-point-per-boundary annulus
has a closed form in the four positive cross-ratio coordinates.  This
package samples the flow with the p-form, written in the axis endpoints of
the core geodesic, and twists one point with the Fenchel-Nielsen oracle,
which shares no algebra with the p-form; verify checks both and the closed
form against each other.  It also provides the Dehn twist, the oracle's
translation at an integer parameter in O(1), and the local application of
the twist inside coordinate vectors of larger surfaces.
"""

from .annulus import (
    AnnulusCoords,
    coords_from_endpoints,
    core_geodesic,
    endpoints,
)
from .sampling import Lcg, random_coords
from .surface import AnnulusEmbedding, SurfaceCoords, apply_local_twist
from .twist import (
    TwistRangeError,
    dehn_twist,
    twist_closed_form,
    twist_oracle,
    twist_p_form,
)

__version__ = "0.1.0"

__all__ = [
    "AnnulusCoords",
    "AnnulusEmbedding",
    "Lcg",
    "SurfaceCoords",
    "TwistRangeError",
    "apply_local_twist",
    "coords_from_endpoints",
    "core_geodesic",
    "dehn_twist",
    "endpoints",
    "random_coords",
    "twist_closed_form",
    "twist_oracle",
    "twist_p_form",
]
