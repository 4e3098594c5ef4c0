"""Seeded sampling for the verification suites.

The generator is a plain 64-bit linear congruential generator so that the
sequences behind a seed are reproducible from this description alone:

    state_0   = seed mod 2^64
    state_k+1 = (6364136223846793005 * state_k + 1442695040888963407) mod 2^64
    u_k       = (state_k+1 >> 11) / 2^53        (uniform in [0, 1))

Coordinates are drawn log-uniformly, one draw per coordinate in order.
"""

from __future__ import annotations

import math

from .annulus import AnnulusCoords

_MULTIPLIER = 6364136223846793005
_INCREMENT = 1442695040888963407
_MASK = (1 << 64) - 1
_SCALE = 1.0 / (1 << 53)
_LOG_LO, _LOG_HI = math.log(0.1), math.log(10.0)  # random_coords draws in (0.1, 10)


class Lcg:
    """64-bit linear congruential generator with 53-bit uniform output."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_float(self) -> float:
        self.state = (_MULTIPLIER * self.state + _INCREMENT) & _MASK
        return (self.state >> 11) * _SCALE

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def log_uniform(self, lo: float, hi: float) -> float:
        return math.exp(self.uniform(math.log(lo), math.log(hi)))


def random_coords(rng: Lcg) -> AnnulusCoords:
    """Four Lcg.log_uniform(0.1, 10.0) draws, in the same float operations, as coordinates."""
    state, values = rng.state, []
    for _ in range(4):
        state = (_MULTIPLIER * state + _INCREMENT) & _MASK
        values.append(math.exp(_LOG_LO + (_LOG_HI - _LOG_LO) * ((state >> 11) * _SCALE)))
    rng.state = state
    return tuple.__new__(AnnulusCoords, values)  # each is exp of a finite float: positive, finite
