"""Prime plumbing: sieves, exact 64-bit primality, signed primality verdicts, factoring."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt
from operator import itemgetter

# Miller-Rabin base sets, each deterministic below its bound: the smallest
# strong pseudoprime to all of its bases. Most are the first k prime bases:
# Jaeschke's bounds (Math. Comp. 61, 1993) for k = 1 to 3 and 5 to 7, and
# Jiang and Deng's (Math. Comp. 83, 2014) for k = 9; the first twelve cover
# 2**64 (Sorenson and Webster 2015). 8 bases would end where 7 do, as would
# 10 or 11 where 9 do. Two shorter sets, also Jaeschke's, take the place
# of the first four prime bases and reach further: {2, 7, 61} and
# {2, 13, 23, 1662803}. Every set leads with base 2, which a screened value
# has passed (is_prime).
_MR_TIERS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
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
    # odd numbers only: byte i stands for 2i + 1
    n = (limit + 1) // 2
    sieve = bytearray([1]) * n
    sieve[0] = 0
    for i in range(1, (isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes((n - 1 - start) // p + 1)
    return (2, *compress(range(1, limit + 1, 2), sieve))


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


def may_be_prime(n: int) -> bool:
    """False only when |n| is not prime: even and above 2, below 2, or
    failing a base-2 strong probable-prime test. One modular
    exponentiation, so that the values of a candidate can all be screened
    before is_prime decides any of them."""
    v = abs(n)
    if v < 4:
        return v > 1
    return v % 2 == 1 and _strong_probable_prime(v, 2)


def _passes_tests(n: int, screened: bool) -> bool:
    """Whether n >= 2 passes trial division by the primes to 47 and the
    strong tests to its base set: its tier below 2**64, the first 24 primes
    from there on. A screened n (odd, past base 2) skips both: the other
    bases reject any odd composite below the bound or with a factor among them."""
    if not screened:
        for p in _SMALL_TRIAL:
            if n % p == 0:
                return n == p
    bases = _MR_TIERS[bisect_right(_MR_TIERS, n, key=itemgetter(0))][1] if n < CERTIFIED_LIMIT else _PROBABLE_BASES
    for b in bases[screened:]:
        if not _strong_probable_prime(n, b):
            return False
    return True


def is_prime_exact(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2**64."""
    if n >= CERTIFIED_LIMIT:
        raise ValueError("is_prime_exact requires n < 2**64")
    return n >= 2 and _passes_tests(n, False)


class PrimalityStatus(Enum):
    CERTIFIED = "certified-prime"
    PROBABLE = "probable-prime"
    COMPOSITE = "composite"
    UNIT_OR_SMALL = "unit-or-small"

    @property
    def accepted(self) -> bool:
        return self in (PrimalityStatus.CERTIFIED, PrimalityStatus.PROBABLE)


def is_prime(n: int, *, _screened: bool = False) -> PrimalityStatus:
    """Primality of |n| for a signed integer.

    Certified (deterministic) below 2**64. From 2**64 on, trial division
    by the primes to 47 and strong tests to the first 24 prime bases give
    a probable-prime verdict. _screened, for the search only, says that
    may_be_prime(n) held: base 2, which leads every base set, is not run
    again, and the other bases decide without trial division.
    """
    v = abs(n)
    if v <= 1:
        return PrimalityStatus.UNIT_OR_SMALL
    if not _passes_tests(v, _screened):
        return PrimalityStatus.COMPOSITE
    return PrimalityStatus.CERTIFIED if v < CERTIFIED_LIMIT else PrimalityStatus.PROBABLE


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
