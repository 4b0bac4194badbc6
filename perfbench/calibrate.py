"""A fixed reference computation that tracks the machine's current speed.

On a shared cloud machine the speed of one core moves by a third or more,
and within a second, as other tenants load the host; a quiet minute and a
busy one give timings that differ by more than any bound worth setting.
The end-to-end timings of operations are therefore scaled to a reference
speed. The reference computation is timed in a few passes right before
and right after each timed part of an operation, and the part's seconds
are multiplied by

    NOMINAL_S / (median seconds of those reference passes).

A value reads as the seconds the part would take on this machine while a
reference pass takes NOMINAL_S. A slowdown of the whole machine cancels
out. A change to sdpc, which the reference never calls, moves the value
by the same share as it moves the raw seconds. Each run's report also
holds the raw seconds and the reference passes.

The reference is made of what sdpc's time is made of: a Python loop of
small integer arithmetic and NumPy strided slice assignments into a
boolean array, the shape of the sieve kernel.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Seconds one reference pass takes at the reference speed: about its median
# on a shared 2-vCPU Intel Xeon (Sapphire Rapids) cloud machine with
# Python 3.11 and NumPy 2.4.
NOMINAL_S = 0.021
_PASSES = 3

_PRIMES = tuple(p for p in range(3, 20_000) if all(p % d for d in range(2, int(p**0.5) + 1)))


def _reference() -> int:
    # Imported here, not at the top: sdpc's set-up time includes importing
    # NumPy, so the benchmark must not import it before sdpc.
    import numpy as np

    alive = np.ones(1 << 16, dtype=bool)
    acc = 0
    for _ in range(5):
        for p in _PRIMES:
            alive[acc % p :: p] = False
            acc += pow(7, p, 1_000_003) + 31 * p
    return acc + int(np.count_nonzero(alive))


class Reference:
    """Times the reference computation; the first pass only warms up."""

    def __init__(self):
        _reference()

    def sample(self, seconds: float = 0.0) -> list[float]:
        """Seconds of each of at least a few reference passes, repeated
        until `seconds` have passed."""
        times = []
        begin = perf_counter()
        while len(times) < _PASSES or perf_counter() - begin < seconds:
            t0 = perf_counter()
            _reference()
            times.append(perf_counter() - t0)
        return times


def scale(samples: list[float]) -> float:
    """The factor that takes seconds measured among these reference
    passes to seconds at the reference speed."""
    return NOMINAL_S / statistics.median(samples)
