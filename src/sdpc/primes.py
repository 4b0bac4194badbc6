"""Prime plumbing: sieves, exact 64-bit primality, signed primality verdicts, factoring."""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

# Miller-Rabin base sets, each deterministic below its bound: the smallest
# strong pseudoprime to all of its bases. Below 3215031751 the first four
# prime bases suffice, below 341550071728321 the first seven (Jaeschke
# 1993), and the first twelve cover 2**64 (Sorenson and Webster 2015).
_MR_TIERS = (
    (3_215_031_751, (2, 3, 5, 7)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (1 << 64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

CERTIFIED_LIMIT = 1 << 64

_SMALL_TRIAL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# From 2**64 on: strong tests to the first 24 primes, a fixed set, so a
# probable-prime verdict is the same in every run.
_PROBABLE_BASES = _SMALL_TRIAL + (53, 59, 61, 67, 71, 73, 79, 83, 89)


@lru_cache(maxsize=64)
def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes p <= limit, ascending."""
    if limit < 2:
        return ()
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[0:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return tuple(np.flatnonzero(sieve).tolist())


def primes_in_range(lo: int, hi: int) -> tuple[int, ...]:
    """Primes p with lo <= p < hi."""
    if hi <= 2 or hi <= lo:
        return ()
    ps = primes_up_to(hi - 1)
    return ps[bisect_left(ps, lo):]


def _strong_probable_prime(n: int, base: int) -> bool:
    # n odd, n > 2
    if base % n == 0:
        return True
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime_exact(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2**64."""
    if n < 2:
        return False
    for p in _SMALL_TRIAL:
        if n == p:
            return True
        if n % p == 0:
            return False
    for bound, bases in _MR_TIERS:
        if n < bound:
            break
    return all(_strong_probable_prime(n, b) for b in bases)


class PrimalityStatus(Enum):
    CERTIFIED = "certified-prime"
    PROBABLE = "probable-prime"
    COMPOSITE = "composite"
    UNIT_OR_SMALL = "unit-or-small"

    @property
    def accepted(self) -> bool:
        return self in (PrimalityStatus.CERTIFIED, PrimalityStatus.PROBABLE)


def is_prime(n: int) -> PrimalityStatus:
    """Primality of |n| for a signed integer.

    Certified (deterministic) below 2**64. From 2**64 on, trial division
    by the primes to 47 and strong tests to the first 24 prime bases give
    a probable-prime verdict.
    """
    v = abs(n)
    if v <= 1:
        return PrimalityStatus.UNIT_OR_SMALL
    if v < CERTIFIED_LIMIT:
        return PrimalityStatus.CERTIFIED if is_prime_exact(v) else PrimalityStatus.COMPOSITE
    if all(v % p for p in _SMALL_TRIAL) and all(_strong_probable_prime(v, b) for b in _PROBABLE_BASES):
        return PrimalityStatus.PROBABLE
    return PrimalityStatus.COMPOSITE


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = seed, seed + 1, 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of |n|, ascending. |n| must fit the exact range."""
    n = abs(n)
    if n >= CERTIFIED_LIMIT:
        raise ValueError("prime_factors requires |n| < 2**64")
    found: set[int] = set()
    for p in primes_up_to(10_000):
        if p * p > n:
            break
        while n % p == 0:
            found.add(p)
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime_exact(m):
            found.add(m)
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(found))
