"""Seeded 64-bit PRNG (splitmix64) for reproducible adversary sampling.

The generator is ~15 lines and fully specified by its seed, so golden tests
can be reproduced in any language: state advances by the 64-bit golden-ratio
constant and the output is a mix of xor-shifts and two multiplications
(Steele, Lea & Flood 2014).  Doubles are formed from the top 53 bits.

Because the state is linear (the j-th draw after state ``s`` mixes
``s + j * GOLDEN mod 2**64``), a block of draws is computed at once over
``uint64`` arrays; it equals the same draws made one at a time, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z):
    """The output mix of one state: a Python int, or a ``uint64`` array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo, hi):
        """``lo + (hi - lo) * random()``.

        Scalars give one float.  If ``lo`` or ``hi`` is an array, the result
        has their broadcast shape, filled in C order: it is bit for bit the
        list of scalar calls made entry by entry, and the stream moves past
        all of them.
        """
        shape = np.broadcast_shapes(np.shape(lo), np.shape(hi))
        if not shape:
            return lo + (hi - lo) * self.random()
        count = math.prod(shape)
        states = (np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
                  + np.uint64(self._state))
        self.skip(count)
        unit = ((_mix(states) >> 11) * 2.0 ** -53).reshape(shape)
        lo = np.asarray(lo, dtype=float)
        return lo + (np.asarray(hi, dtype=float) - lo) * unit

    def skip(self, count: int) -> None:
        """Move the stream ``count`` draws forward (back, if negative)."""
        self._state = (self._state + int(count) * _GOLDEN) & _MASK

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (unbiased)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = _MASK - (_MASK + 1) % n
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % n

    def spawn(self, index: int) -> "SplitMix64":
        """Independent child stream derived from (seed, index)."""
        return SplitMix64(_mix(self._state ^ ((index + 1) * _GOLDEN & _MASK)))
