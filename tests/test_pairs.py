"""Compatible residue pairs: cover property, closed-form and randomized builders.

The independent oracle throughout is the definition itself, evaluated the
slow way: collect every difference (u - v) mod p over the exclusive parts
and compare with the full set of nonzero residues.
"""

import random

import pytest

from sdpc import pairs
from sdpc.modular import ResidueSet
from sdpc.pairs import (
    MINUS,
    PLUS,
    PrimeCompatiblePair,
    capacity_bound,
    explicit_pair,
    is_prime_compatible,
    randomized_extend_with_stats,
)


def naive_cover(p, u_members, v_members):
    u, v = set(u_members), set(v_members)
    diffs = {(a - b) % p for a in u - v for b in v - u}
    return diffs == set(range(1, p))


def test_compatibility_fixed_cases():
    assert is_prime_compatible(
        ResidueSet.from_members(2, (1,)), ResidueSet.from_members(2, (0,))
    )
    assert is_prime_compatible(
        ResidueSet.from_members(5, (0, 1, 2)), ResidueSet.from_members(5, (1, 3, 4))
    )
    # identical sets have empty exclusive parts, nothing is covered
    s = ResidueSet.from_members(3, (0, 1))
    assert not is_prime_compatible(s, s)


def test_compatibility_matches_naive_oracle():
    rng = random.Random(424242)
    agree = 0
    for _ in range(3000):
        p = rng.choice((3, 5, 7, 11, 13))
        u = {rng.randrange(p) for _ in range(rng.randrange(1, p + 1))}
        v = {rng.randrange(p) for _ in range(rng.randrange(1, p + 1))}
        got = is_prime_compatible(
            ResidueSet.from_members(p, u), ResidueSet.from_members(p, v)
        )
        assert got == naive_cover(p, u, v), (p, sorted(u), sorted(v))
        agree += got
    assert agree > 0  # the sample hits both outcomes


def test_compatibility_rejects_mixed_moduli():
    with pytest.raises(ValueError):
        is_prime_compatible(
            ResidueSet.from_members(5, (1,)), ResidueSet.from_members(7, (1,))
        )


def test_explicit_pair_quoted_small_cases():
    pair7 = explicit_pair(7)
    assert pair7.u.members == (1, 2, 3, 4)
    assert pair7.v.members == (0, 2, 3, 5, 6)
    assert pair7.reserved == (2, 3)
    pair11 = explicit_pair(11)
    assert pair11.u.members == (0, 1, 4, 8)
    assert pair11.v.members == (2, 3, 4, 5, 6, 7, 8, 9, 10)
    assert pair11.reserved == (4, 8)
    with pytest.raises(ValueError):
        explicit_pair(5)


def explicit_pair_postconditions(p):
    pair = explicit_pair(p)
    u_only = set(pair.u) - set(pair.v)
    v_only = set(pair.v) - set(pair.u)
    common = set(pair.u) & set(pair.v)
    assert 1 % p in u_only
    assert 11 % p in u_only
    assert 6 % p in v_only
    assert len(common) == 2
    assert set(pair.reserved) == common
    assert pair.assigned == ()
    assert naive_cover(p, set(pair.u), set(pair.v))


def test_explicit_pair_postconditions_first_primes():
    # unit-scale sweep; the acceptance suite pushes the same check to 2000
    from sdpc.primes import primes_in_range

    for p in primes_in_range(7, 200):
        explicit_pair_postconditions(p)


def test_capacity_bound_arithmetic():
    assert capacity_bound(2) < 0
    assert capacity_bound(7) < 0
    assert capacity_bound(101) == 33
    # independent recomputation
    import math

    for p in (7, 101, 499, 1009):
        bound = (p - 1) / 2 - math.log(p) / math.log(4 / 3)
        expect = math.ceil(bound) - 1
        assert capacity_bound(p) == expect


def test_randomized_extend_postconditions():
    rng = random.Random(1)
    pair, _ = randomized_extend_with_stats(ResidueSet.from_members(103, (0,)), 103, 2, rng)
    common = set(pair.u) & set(pair.v)
    assert 0 in common
    assert common == {0} | set(pair.reserved)
    assert len(pair.reserved) == 2
    assert 0 not in pair.reserved
    assert naive_cover(103, set(pair.u), set(pair.v))
    # every residue outside the common core sits in exactly one side
    for z in range(103):
        if z not in common:
            assert (z in pair.u) != (z in pair.v)


def test_randomized_extend_reproducible_from_seed():
    w = ResidueSet.from_members(101, tuple(range(0, 40, 2)))
    a, _ = randomized_extend_with_stats(w, 101, 2, random.Random(9))
    b, _ = randomized_extend_with_stats(w, 101, 2, random.Random(9))
    assert a == b
    c, _ = randomized_extend_with_stats(w, 101, 2, random.Random(10))
    assert c != a  # overwhelmingly likely under any healthy draw scheme


def test_randomized_extend_draw_order():
    # a randrange per reserve, from the residues outside W left so far, then
    # per attempt one bit per remaining residue, ascending: 1 sends it to V
    w = ResidueSet.from_members(101, tuple(range(0, 40, 2)))
    pair, attempts = randomized_extend_with_stats(w, 101, 2, random.Random(5))
    replay = random.Random(5)
    rest = [z for z in range(101) if z not in w]
    reserves = [rest.pop(replay.randrange(len(rest))) for _ in range(2)]
    for _ in range(attempts):
        to_v = {z for z in rest if replay.getrandbits(1)}
    assert pair.reserved == tuple(sorted(reserves))
    assert set(pair.v) == set(w) | set(reserves) | to_v
    assert set(pair.u) == set(w) | set(reserves) | (set(rest) - to_v)


def test_randomized_extend_gives_up_at_the_retry_cap(monkeypatch):
    # the draw that takes `attempts` assignments succeeds at a cap of that
    # many and raises, naming the cap, at one fewer
    w = ResidueSet.from_members(101, tuple(range(0, 40, 2)))
    want, attempts = randomized_extend_with_stats(w, 101, 2, random.Random(5))
    monkeypatch.setattr(pairs, "RETRY_CAP", attempts)
    assert randomized_extend_with_stats(w, 101, 2, random.Random(5)) == (want, attempts)
    monkeypatch.setattr(pairs, "RETRY_CAP", attempts - 1)
    with pytest.raises(ValueError, match=f"no compatible assignment mod 101 within the retry cap of {attempts - 1}$"):
        randomized_extend_with_stats(w, 101, 2, random.Random(5))


def test_randomized_extend_capacity_errors():
    w40 = ResidueSet.from_members(101, tuple(range(40)))
    with pytest.raises(ValueError, match="W too large"):
        randomized_extend_with_stats(w40, 101, 0, random.Random(0))
    with pytest.raises(ValueError, match="W too large"):
        randomized_extend_with_stats(ResidueSet.from_members(7, (0,)), 7, 0, random.Random(0))


def test_randomized_extend_accepts_plain_iterables():
    pair, attempts = randomized_extend_with_stats({0, 1}, 103, 0, random.Random(3))
    assert attempts >= 1
    assert {0, 1} <= set(pair.u) & set(pair.v)


def test_pair_reserve_assignment_lifecycle():
    pair = explicit_pair(13)
    first, second = pair.reserved
    taken = pair.with_assigned(PLUS, first)
    assert taken.assigned_map[PLUS] == first
    assert taken.unused_reserves() == (second,)
    both = taken.with_assigned(MINUS, second)
    assert both.unused_reserves() == ()
    with pytest.raises(ValueError):
        taken.with_assigned(PLUS, second)  # sign already consumed
    bad = next(r for r in range(13) if r not in pair.reserved)
    with pytest.raises(ValueError):
        PrimeCompatiblePair(
            13, pair.u, pair.v, pair.reserved, ((PLUS, bad),)
        )  # assigned value must come from reserved


def test_pair_validation_rejects_broken_cover():
    u = ResidueSet.from_members(5, (0, 1))
    v = ResidueSet.from_members(5, (0, 1))
    with pytest.raises(ValueError):
        PrimeCompatiblePair(5, u, v)
