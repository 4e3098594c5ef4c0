"""Seeded sampling for the verification suites.

The generator is a plain 64-bit linear congruential generator so that the
sequences behind a seed are reproducible from this description alone:

    state_0   = seed mod 2^64
    state_k+1 = (6364136223846793005 * state_k + 1442695040888963407) mod 2^64
    u_k       = (state_k+1 >> 11) / 2^53        (uniform in [0, 1))

Coordinates are drawn log-uniformly, one draw per coordinate in order.
"""

from __future__ import annotations

from math import exp, log

from .annulus import AnnulusCoords

_MULTIPLIER = 6364136223846793005
_INCREMENT = 1442695040888963407
_MASK = (1 << 64) - 1
_SCALE = 1.0 / (1 << 53)
_LOG_LO = log(0.1)  # random_coords draws in (0.1, 10)
_LOG_SPAN = log(10.0) - _LOG_LO  # Lcg.uniform's (hi - lo)


class Lcg:
    """64-bit linear congruential generator with 53-bit uniform output."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def uniform(self, lo: float, hi: float) -> float:  # lo + (hi - lo) * u_k, one step
        self.state = state = (_MULTIPLIER * self.state + _INCREMENT) & _MASK
        return lo + (hi - lo) * ((state >> 11) * _SCALE)

    def log_uniform(self, lo: float, hi: float) -> float:
        return exp(self.uniform(log(lo), log(hi)))


def random_coords(rng: Lcg) -> AnnulusCoords:
    """Four Lcg.log_uniform(0.1, 10.0) draws, in the same float operations, as coordinates."""
    s1 = (_MULTIPLIER * rng.state + _INCREMENT) & _MASK
    s2 = (_MULTIPLIER * s1 + _INCREMENT) & _MASK
    s3 = (_MULTIPLIER * s2 + _INCREMENT) & _MASK
    rng.state = s4 = (_MULTIPLIER * s3 + _INCREMENT) & _MASK
    # each is exp of a finite float: positive, finite
    return tuple.__new__(AnnulusCoords, (exp(_LOG_LO + _LOG_SPAN * ((s1 >> 11) * _SCALE)),
                                         exp(_LOG_LO + _LOG_SPAN * ((s2 >> 11) * _SCALE)),
                                         exp(_LOG_LO + _LOG_SPAN * ((s3 >> 11) * _SCALE)),
                                         exp(_LOG_LO + _LOG_SPAN * ((s4 >> 11) * _SCALE))))
