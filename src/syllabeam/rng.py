"""Seedable, portable random number generator for reproducible pipelines.

SplitMix64 (Steele, Lea & Flood, 2014). State is a single 64-bit integer;
each draw advances the state by the odd constant 0x9E3779B97F4A7C15 and
mixes it through two xor-shift-multiply rounds:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

all arithmetic mod 2**64. Every derived draw below is defined exactly in
terms of next_uint64, so any implementation of the same recurrence
reproduces identical streams.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_UNIT = 2.0 ** -53  # a draw's top 53 bits times _UNIT is uniform in [0, 1)


def _mix(z: int) -> int:
    """The two xor-shift-multiply rounds and final xor-shift of one draw."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit generator; never uses global state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1): the top 53 bits of one draw / 2**53."""
        return (self.next_uint64() >> 11) * _UNIT

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n): one draw reduced mod n."""
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        return self.next_uint64() % n

    def bernoulli(self, p: float) -> bool:
        """True with probability p; consumes exactly one draw."""
        return self.random() < p


def substream(seed: int, index: int) -> SplitMix64:
    """Independent child stream for item `index` of a run seeded with `seed`.

    The child seed is the SplitMix64 mix of (seed XOR (index + 1) * gamma),
    so substreams are reproducible and order-independent.
    """
    return SplitMix64(_mix((seed ^ (((index + 1) * _GAMMA) & _MASK)) & _MASK))
