"""Prime plumbing: sieves, exact 64-bit primality, probable-prime tests, factoring."""

from __future__ import annotations

from bisect import bisect_left
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


def is_probable_prime(n: int, rounds: int = 24) -> bool:
    """Miller-Rabin against the first `rounds` prime bases.

    Exact below 2**64; above that the verdict is probabilistic but
    deterministic for a given round count, which keeps runs replayable.
    """
    if n < CERTIFIED_LIMIT:
        return is_prime_exact(n)
    for p in _SMALL_TRIAL:
        if n % p == 0:
            return False
    bound = max(rounds, 1)
    bases = primes_up_to(200)[:bound]
    if len(bases) < bound:
        # first `bound` primes past the cached table
        extra = bound
        while len(bases) < bound:
            extra *= 2
            bases = primes_up_to(extra * 20)[:bound]
    return all(_strong_probable_prime(n, b) for b in bases)


def is_prime_int(n: int, rounds: int = 24) -> bool:
    """Boolean primality of |n|; exact below 2**64, probable above."""
    return is_probable_prime(abs(n), rounds)


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
