"""Admissibility of a residue class plus offset tuple.

Oracle: direct residue enumeration. A prime p dividing q obstructs when
some t + d is 0 mod p (the whole class then shares that divisor); any
other small prime obstructs when the offsets occupy all p residue
classes, since every candidate then has some offset value divisible by p.
"""

import random

import pytest

from sdpc.admissible import (
    COMPLETE_RESIDUE_SYSTEM,
    FIXED_PRIME_DIVIDES,
    InadmissibleSystemError,
    Obstruction,
    TupleSystem,
    is_admissible,
)
from sdpc.modular import CrtClass
from sdpc.primes import primes_up_to


def brute_obstruction(q, t, offsets, q_factors):
    checked = sorted(set(q_factors) | set(primes_up_to(len(offsets))))
    for p in checked:
        if q % p == 0:
            for i, d in enumerate(offsets):
                if (t + d) % p == 0:
                    return p, FIXED_PRIME_DIVIDES, i
        elif len({d % p for d in offsets}) == p:
            return p, COMPLETE_RESIDUE_SYSTEM, None
    return None


FACTORS = {2: (2,), 6: (2, 3), 30: (2, 3, 5)}


def test_matches_brute_force_oracle():
    rng = random.Random(1234)
    seen_bad = 0
    for _ in range(4000):
        q = rng.choice((2, 6, 30))
        t = rng.randrange(q)
        k = rng.randrange(1, 5)
        offsets = tuple(sorted(rng.sample(range(-20, 21), k)))
        system = TupleSystem(CrtClass(q, t, FACTORS[q]), offsets)
        got = is_admissible(system)
        want = brute_obstruction(q, t, offsets, FACTORS[q])
        if want is None:
            assert got is None, (q, t, offsets)
        else:
            assert got is not None, (q, t, offsets)
            assert (got.p, got.kind, got.index) == want
            seen_bad += 1
    assert seen_bad > 0


def test_fixed_prime_obstruction_reports_offset_index():
    # 25-6=19 and 25-8=17 clear 2 and 3; 25+10=35 trips the divisor 5
    system = TupleSystem(CrtClass(30, 25, (2, 3, 5)), (-8, -6, 10))
    got = is_admissible(system)
    assert got == Obstruction(5, FIXED_PRIME_DIVIDES, 2)
    assert "5" in got.describe()


def test_complete_cover_obstruction():
    # offsets hit every class mod 3; no candidate in 1 mod 2 escapes
    system = TupleSystem(CrtClass(2, 1, (2,)), (0, 2, 4))
    got = is_admissible(system)
    assert got == Obstruction(3, COMPLETE_RESIDUE_SYSTEM, None)


def test_admissible_returns_none():
    system = TupleSystem(CrtClass(30, 25, (2, 3, 5)), (-18, -8, -6))
    assert is_admissible(system) is None


def test_factor_source_chain():
    # the twin class 5 mod 6 is clean: t and t+2 avoid 0 mod 2 and mod 3
    # factors provided on the class itself
    assert is_admissible(TupleSystem(CrtClass(6, 5, (2, 3)), (0, 2))) is None
    # in any order
    assert is_admissible(TupleSystem(CrtClass(6, 5, (3, 2)), (0, 2))) is None
    # factors derived internally for machine-scale q
    assert is_admissible(TupleSystem(CrtClass(6, 5), (0, 2))) is None
    # wrong factor list is rejected
    with pytest.raises(ValueError, match="product"):
        CrtClass(6, 5, (2,))


def test_huge_modulus_requires_explicit_factors():
    q = 1
    for p in primes_up_to(200):
        q *= p
    # t = q - 1 sits at -1 mod every factor, so t and t+2 dodge 0
    system = TupleSystem(CrtClass(q, q - 1), (0, 2))
    with pytest.raises(ValueError, match="factor"):
        is_admissible(system)
    system = TupleSystem(CrtClass(q, q - 1, primes_up_to(200)), (0, 2))
    assert is_admissible(system) is None


def test_offsets_must_be_distinct():
    with pytest.raises(ValueError):
        TupleSystem(CrtClass(2, 1, (2,)), (0, 0))


def test_error_wrapper_carries_obstruction():
    obstruction = Obstruction(3, COMPLETE_RESIDUE_SYSTEM, None)
    err = InadmissibleSystemError(obstruction)
    assert err.obstruction is obstruction
    assert "3" in str(err)
