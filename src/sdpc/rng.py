"""Seeded randomness that draws whole 32-bit words."""

from __future__ import annotations

import random


class CountingRng:
    """Deterministic random source over a seeded Mersenne Twister stream.

    Every draw consumes exactly one 32-bit word of the stream. randrange()
    uses top-bits rejection sampling, so the words consumed, and with them
    every result, are a pure function of the seed and the call sequence.
    """

    def __init__(self, seed: int):
        self._rand = random.Random(seed)

    def _word(self) -> int:
        return self._rand.getrandbits(32)

    def bit(self) -> int:
        """One uniform bit."""
        return self._word() & 1

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n). n must fit in 32 bits."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"randrange bound out of range: {n}")
        if n == 1:
            return 0
        k = (n - 1).bit_length()
        while True:
            v = self._word() >> (32 - k)
            if v < n:
                return v
