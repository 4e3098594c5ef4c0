"""The seeded generator of the project README, rebuilt from its published constants.

    state_0   = seed mod 2^64
    state_k+1 = (6364136223846793005 * state_k + 1442695040888963407) mod 2^64
    u_k       = (state_k+1 >> 11) / 2^53

Kept apart from ``reference`` so that building inputs imports no mpmath.
"""

from __future__ import annotations

import math

_MULTIPLIER = 6364136223846793005
_INCREMENT = 1442695040888963407


class Lcg:
    def __init__(self, seed: int):
        self.state = seed % (1 << 64)

    def next_float(self) -> float:
        self.state = (_MULTIPLIER * self.state + _INCREMENT) % (1 << 64)
        return (self.state >> 11) / float(1 << 53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def log_uniform(self, lo: float, hi: float) -> float:
        return math.exp(self.uniform(math.log(lo), math.log(hi)))

    def below(self, n: int) -> int:
        """An integer in [0, n)."""
        return min(int(self.next_float() * n), n - 1)
