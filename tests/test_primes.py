"""Primality and factorization layer, cross-checked against sympy."""

import random
from math import isqrt

import pytest
import sympy

from sdpc.primes import (
    CERTIFIED_LIMIT,
    PrimalityStatus,
    is_prime,
    is_prime_exact,
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


# Strong pseudoprimes to every base of a smaller set: the first two are the
# bounds of the 4- and 7-base tiers, and the third passes every prime base
# below 37, so only the last base of the 12-base tier rejects it.
TIER_PSEUDOPRIMES = (3215031751, 341550071728321, 3825123056546413051)


@pytest.mark.parametrize("n", TIER_PSEUDOPRIMES)
def test_strong_pseudoprime_at_each_tier_threshold_is_composite(n):
    assert not sympy.isprime(n)
    assert not is_prime_exact(n)


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
