"""Primality and factorization layer, cross-checked against sympy."""

import random
from math import isqrt

import numpy as np
import pytest
import sympy
from sympy.ntheory.primetest import mr

from sdpc.primes import (
    _MR_TIERS,
    CERTIFIED_LIMIT,
    PrimalityStatus,
    is_prime,
    is_prime_exact,
    may_be_prime,
    prime_factors,
    primes_in_range,
    primes_up_to,
)


def test_sieve_small_window_exact():
    assert primes_up_to(1) == ()
    assert primes_up_to(2) == (2,)
    assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def test_sieve_matches_sympy_up_to_10000():
    assert list(primes_up_to(10_000)) == list(sympy.primerange(2, 10_001))


def numpy_primes(limit):
    # the oracle: a plain sieve of Eratosthenes over every integer
    sieve = np.ones(max(limit + 1, 2), bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve[: limit + 1]).tolist()


SIEVE_LIMITS = sorted(
    {0, 1, 2, 3, 4, 9, 25, 10**5}
    | {2**k + e for k in range(1, 21) for e in (-1, 0, 1)}
)


def test_sieve_matches_a_numpy_sieve_at_every_edge():
    # around every power of two to 2**20, the tables a search fetches,
    # and at the squares and small limits where the odd-only sieve turns
    for limit in SIEVE_LIMITS:
        got = primes_up_to(limit)
        assert type(got) is tuple and all(type(p) is int for p in got), limit
        assert list(got) == numpy_primes(limit), limit


def test_primes_in_range_is_half_open():
    assert primes_in_range(7, 7) == ()
    assert primes_in_range(7, 8) == (7,)
    assert primes_in_range(7, 30) == (7, 11, 13, 17, 19, 23, 29)
    # lower bound included, upper excluded
    assert primes_in_range(11, 13) == (11,)


def test_exact_primality_agrees_with_sympy_on_randoms():
    rng = random.Random(20240817)
    for _ in range(2000):
        n = rng.randrange(2, 10**7)
        assert is_prime_exact(n) == sympy.isprime(n), n


def test_exact_primality_on_adversarial_values():
    # Carmichael numbers, prime squares, and the 64-bit boundary region.
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
        assert not is_prime_exact(n)
    for p in (2, 3, 5, 7, 101, 65537):
        assert is_prime_exact(p)
        assert not is_prime_exact(p * p)
    assert not is_prime_exact(0)
    assert not is_prime_exact(1)
    near_boundary = CERTIFIED_LIMIT - 59  # = 2**64 - 59, a known prime
    assert is_prime_exact(near_boundary) == sympy.isprime(near_boundary)


# Strong pseudoprimes to every base of a smaller set: the first to the
# first four prime bases, inside the {2, 7, 61} tier, which must still
# reject it; the second the bound of the 7-base tier; the third passes every
# prime base below 37, so only the last base of the 12-base tier rejects it.
TIER_PSEUDOPRIMES = (3215031751, 341550071728321, 3825123056546413051)


@pytest.mark.parametrize("n", TIER_PSEUDOPRIMES)
def test_strong_pseudoprime_at_each_tier_threshold_is_composite(n):
    assert not sympy.isprime(n)
    assert not is_prime_exact(n)


# Each tier below the 12-base one: the smallest strong pseudoprime to all of
# its bases, and those bases. Jaeschke (Math. Comp. 61, 1993) gives every
# bound but the 9-base one, which is Jiang and Deng's (Math. Comp. 83, 2014).
TIERS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
)


def test_each_tier_ends_at_the_smallest_pseudoprime_to_its_bases():
    assert _MR_TIERS == TIERS + ((CERTIFIED_LIMIT, tuple(sympy.primerange(2, 38))),)
    for bound, bases in TIERS:
        assert not sympy.isprime(bound)
        assert mr(bound, list(bases)), bound


# every tier bound, and the first of TIER_PSEUDOPRIMES, inside a tier
@pytest.mark.parametrize("bound", [bound for bound, _ in TIERS] + [TIER_PSEUDOPRIMES[0]])
def test_exact_primality_agrees_with_sympy_next_to_each_tier_bound(bound):
    # the bound is odd, so these are the odd n within 1,000 of it
    for n in range(bound - 1000, bound + 1001, 2):
        assert is_prime(n).accepted == sympy.isprime(n), n


def test_exact_primality_agrees_with_sympy_around_tier_thresholds():
    # on each side of each threshold: random values, the next prime after
    # each, and semiprimes without small factors, where Miller-Rabin decides
    rng = random.Random(1993)
    for threshold in TIER_PSEUDOPRIMES[:2] + (CERTIFIED_LIMIT,):
        for side in (-1, 1):
            for _ in range(40):
                n = threshold + side * rng.randrange(1, 10**9)
                p = sympy.nextprime(isqrt(n) - rng.randrange(10**4))
                for m in (n, sympy.nextprime(n), p * sympy.nextprime(p)):
                    if m < CERTIFIED_LIMIT:
                        assert is_prime_exact(m) == sympy.isprime(m), m


def test_probable_prime_above_certified_range():
    p = sympy.nextprime(CERTIFIED_LIMIT)
    assert is_prime(p).accepted
    assert not is_prime(p + 1).accepted
    # below the boundary the answer is exact, and certified
    assert is_prime(2**61 - 1) is PrimalityStatus.CERTIFIED


def test_signed_verdict_agrees_with_sympy_across_the_certified_limit():
    # random values, the next prime after each, and semiprimes without
    # small factors, on both sides of 2**64 and further out, with either
    # sign; only values below 2**64 are certified
    rng = random.Random(2064)
    values = []
    for side in (-1, 1):
        for _ in range(40):
            n = CERTIFIED_LIMIT + side * rng.randrange(1, 10**12)
            p = sympy.nextprime(isqrt(n) - rng.randrange(10**4))
            values += [n, sympy.nextprime(n), p * sympy.nextprime(p)]
    for bits in (65, 89, 128):
        for _ in range(20):
            n = rng.getrandbits(bits) | 1 << (bits - 1)
            p = sympy.nextprime(rng.getrandbits(bits // 2))
            values += [n, sympy.nextprime(n), p * sympy.nextprime(p)]
    for m in values:
        prime = sympy.isprime(m)
        for n in (m, -m):
            verdict = is_prime(n)
            assert verdict.accepted == prime, n
            assert (verdict is PrimalityStatus.CERTIFIED) == (prime and m < CERTIFIED_LIMIT), n


def test_prescreen_never_rejects_a_prime():
    # primes of either sign below and above 2**64, the small values and
    # the even ones; the screen may pass a composite, never fail a prime
    rng = random.Random(1750)
    primes = list(sympy.primerange(2, 2000))
    for bits in (20, 40, 63, 64, 65, 89, 128):
        primes += [sympy.nextprime(rng.getrandbits(bits)) for _ in range(40)]
    primes += [sympy.prevprime(CERTIFIED_LIMIT), sympy.nextprime(CERTIFIED_LIMIT)]
    for p in primes:
        assert may_be_prime(p) and may_be_prime(-p), p
    for n in range(-3, 4):
        assert may_be_prime(n) == sympy.isprime(abs(n)), n
    for n in (4, 6, 100, 2**64, 2**64 + 2, 2**89):
        assert not may_be_prime(n) and not may_be_prime(-n), n
    # composites it screens out, and base-2 strong pseudoprimes it cannot:
    # 2047 = 23 * 89 and the Fermat number 2**64 + 1
    assert not any(may_be_prime(n) for n in (9, 91, 561, 1105, (2**61 - 1) * (2**31 - 1)))
    assert may_be_prime(2047) and may_be_prime(2**64 + 1)


def test_a_screened_verdict_equals_the_full_one():
    # is_prime(n, _screened=True) skips base 2, which may_be_prime ran:
    # primes and composites on both sides of 2**64, small values and the
    # base-2 strong pseudoprimes, which a later base must still reject
    rng = random.Random(1751)
    values = list(range(2, 1000))
    for bits in (11, 20, 31, 40, 63, 64, 65, 89):
        values += [rng.getrandbits(bits) | 1 for _ in range(100)]
        values += [sympy.nextprime(rng.getrandbits(bits)) for _ in range(10)]
    values += [2047, 3277, 4033, 4681, 8321, 3215031751, 2**64 + 1]
    screened = [v for v in values if may_be_prime(v)]
    assert sum(not sympy.isprime(v) for v in screened) >= 7
    for v in screened:
        for n in (v, -v):
            assert is_prime(n, _screened=True) is is_prime(n), n


def test_a_screened_verdict_needs_no_trial_division():
    # a screened value skips trial division as well as base 2: the other
    # bases of its tier alone decide every odd n below 10**5 that base 2
    # passes, every base prime and the base-2 strong pseudoprimes
    values = [n for n in range(3, 10**5, 2) if may_be_prime(n)]
    values += sorted({b for _, bases in _MR_TIERS for b in bases})
    values += [2047, 3277, 4033, 4681, 8321, 3215031751]
    for n in values:
        assert is_prime(n, _screened=True).accepted == is_prime_exact(n), n


def test_prime_factors_distinct_sorted():
    assert prime_factors(2 * 3 * 5 * 7) == (2, 3, 5, 7)
    assert prime_factors(2**10) == (2,)
    assert prime_factors(-30) == (2, 3, 5)
    assert prime_factors(1) == ()
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 10**9)
        got = prime_factors(n)
        assert got == tuple(sorted(sympy.factorint(n)))
        assert all(is_prime_exact(p) for p in got)


def test_prime_factors_refuses_uncertified_range():
    with pytest.raises(ValueError):
        prime_factors(CERTIFIED_LIMIT + 1)


def test_exact_primality_refuses_uncertified_range():
    # 2**64 + 13 is prime, but no base set decides it exactly
    assert is_prime(CERTIFIED_LIMIT + 13) is PrimalityStatus.PROBABLE
    assert is_prime_exact(CERTIFIED_LIMIT - 59)
    for n in (CERTIFIED_LIMIT, CERTIFIED_LIMIT + 13):
        with pytest.raises(ValueError):
            is_prime_exact(n)
