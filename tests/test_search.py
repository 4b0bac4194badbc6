"""Constellation search: sieve soundness, witness agreement, determinism.

The naive oracle walks the residue class one candidate at a time and
trial-divides every shifted value; the production path must return the
same witness or the same exhaustion.
"""

import math
import random

import numpy as np
import pytest

from sdpc.admissible import InadmissibleSystemError, TupleSystem
from sdpc.modular import CrtClass
from sdpc.primes import PrimalityStatus, primes_up_to
from sdpc.search import (
    DEFAULT_SIEVE_LIMIT,
    FIRST_WINDOW,
    PATTERN_PERIOD,
    PRESIEVE_DENSITY,
    SCATTER_HITS,
    ConstellationTask,
    _hit_classes,
    _SievePlan,
    is_prime,
    search_with_count,
    sieve_segment,
)


def trial_prime(n):
    n = abs(n)
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_witness(task):
    q, t = task.system.crt.modulus, task.system.crt.residue
    k = 0 if t >= task.start else -((t - task.start) // q)
    for i in range(task.budget):
        x = t + (k + i) * q
        if x in task.exclusions:
            continue
        values = [x + d for d in task.system.offsets]
        if all(abs(v) > 3 and trial_prime(v) for v in values):
            return x
    return None


def small_task(rng):
    q = rng.choice((2, 6, 30))
    factors = {2: (2,), 6: (2, 3), 30: (2, 3, 5)}[q]
    while True:
        t = rng.randrange(q)
        offsets = tuple(sorted(rng.sample(range(-25, 26), rng.randrange(1, 5))))
        task = ConstellationTask(
            TupleSystem(CrtClass(q, t, factors), offsets),
            start=rng.randrange(0, 50),
            budget=3000,
            sieve_limit=rng.choice((50, 1000, 100_000)),
        )
        from sdpc.admissible import is_admissible

        if is_admissible(task.system) is None:
            return task


def test_agrees_with_naive_oracle_on_random_tasks():
    rng = random.Random(31337)
    found = exhausted = 0
    for _ in range(60):
        task = small_task(rng)
        want = naive_witness(task)
        got, examined = search_with_count(task, segment_size=256)
        assert got == want, (task.system.crt, task.system.offsets, task.start)
        if want is None:
            exhausted += 1
            assert examined == task.budget
        else:
            found += 1
    assert found > 0 and exhausted >= 0


def test_quoted_first_step_anchor():
    task = ConstellationTask(
        TupleSystem(CrtClass(30, 25, (2, 3, 5)), (-18, -8, -6)), start=19
    )
    assert search_with_count(task)[0] == 25


def test_forgiveness_keeps_small_prime_values_alive():
    # x=5 with offset 0 gives the value 5, equal to a sieving prime;
    # striking it would wrongly discard the witness.
    task = ConstellationTask(
        TupleSystem(CrtClass(2, 1, (2,)), (0, 2, 6)), start=4, budget=50
    )
    assert search_with_count(task)[0] == 5
    # negative side: value -7 must survive the mod-7 pass
    task2 = ConstellationTask(
        TupleSystem(CrtClass(2, 1, (2,)), (-12,)), start=5, budget=50
    )
    assert search_with_count(task2)[0] == naive_witness(task2) == 5


def test_values_at_most_three_are_rejected():
    # x=3 gives values 1 and 3, x=5 gives 3 and 5; 3 is prime but too
    # small to qualify, so the first witness is 7 (values 5 and 7)
    task = ConstellationTask(
        TupleSystem(CrtClass(2, 1, (2,)), (-2, 0)), start=3, budget=200
    )
    assert search_with_count(task)[0] == naive_witness(task) == 7


def test_budget_counts_candidates_not_survivors():
    # candidates 1 and 31: the first is rejected (value 1 too small)
    # yet still consumes budget, so the witness arrives at count 2
    task = ConstellationTask(
        TupleSystem(CrtClass(30, 1, (2, 3, 5)), (0, 28)), start=1, budget=17
    )
    got, examined = search_with_count(task)
    assert got == naive_witness(task) == 31
    assert examined == 2


def test_exhaustion_raises_with_count():
    # every candidate in [1000038, 1000038 + 5*30) of class 17 mod 30
    # fails the twin condition, so a budget of 5 is exhausted exactly
    task = ConstellationTask(
        TupleSystem(CrtClass(30, 17, (2, 3, 5)), (0, 2)),
        start=1000038, budget=5,
    )
    assert naive_witness(task) is None
    assert search_with_count(task) == (None, 5)


def test_exclusions_skip_named_witnesses():
    base = ConstellationTask(
        TupleSystem(CrtClass(30, 25, (2, 3, 5)), (-18, -8, -6)), start=19
    )
    first, _ = search_with_count(base)
    skipped = ConstellationTask(
        base.system, start=19, exclusions=frozenset({first})
    )
    second, _ = search_with_count(skipped)
    assert second > first
    assert second == naive_witness(
        ConstellationTask(base.system, start=19, budget=10**5,
                          exclusions=frozenset({first}))
    )


def test_inadmissible_task_is_an_error_not_exhaustion():
    task = ConstellationTask(TupleSystem(CrtClass(2, 1, (2,)), (0, 2, 4)))
    with pytest.raises(InadmissibleSystemError) as info:
        search_with_count(task)
    assert info.value.obstruction.p == 3


def test_sieve_survivors_contain_all_true_witness_positions():
    rng = random.Random(5150)
    for _ in range(25):
        task = small_task(rng)
        q, t = task.system.crt.modulus, task.system.crt.residue
        survivors = set(sieve_segment(task, 0, 2000))
        for k in range(2000):
            x = t + k * q
            values = [x + d for d in task.system.offsets]
            if all(abs(v) > 3 and trial_prime(v) for v in values):
                assert x in survivors, (task.system.crt, task.system.offsets, x)


def test_sieve_survivors_below_limit_squared_are_prime():
    # survivors under sieve_limit**2 need no further testing; check the
    # sieve is not letting composites through in that zone
    task = ConstellationTask(
        TupleSystem(CrtClass(30, 11, (2, 3, 5)), (0, 2, 6)), sieve_limit=1000
    )
    for x in sieve_segment(task, 0, 30_000):
        for d in task.system.offsets:
            v = abs(x + d)
            if 3 < v < 1000 * 1000:
                assert trial_prime(v), (x, d)


def test_primality_verdict_statuses():
    assert is_prime(97) is PrimalityStatus.CERTIFIED
    assert is_prime(-97) is PrimalityStatus.CERTIFIED
    assert is_prime(91) is PrimalityStatus.COMPOSITE
    assert is_prime(1) is PrimalityStatus.UNIT_OR_SMALL
    assert is_prime(0) is PrimalityStatus.UNIT_OR_SMALL
    assert is_prime(-1) is PrimalityStatus.UNIT_OR_SMALL
    big = 2**89 - 1  # Mersenne prime, beyond the certified range
    verdict = is_prime(big)
    assert verdict is PrimalityStatus.PROBABLE
    assert verdict.accepted
    assert not is_prime(2**89 - 3).accepted


def test_task_validation():
    system = TupleSystem(CrtClass(2, 1, (2,)), (0,))
    with pytest.raises(ValueError):
        ConstellationTask(system, start=-1)
    with pytest.raises(ValueError):
        ConstellationTask(system, budget=0)
    with pytest.raises(ValueError):
        ConstellationTask(system, sieve_limit=1)
    with pytest.raises(ValueError):
        ConstellationTask(system, sieve_limit=1 << 31)
    ConstellationTask(system, sieve_limit=(1 << 31) - 1)


# ---------------------------------------------------------------------------
# growing windows
# ---------------------------------------------------------------------------

# Prime quintuplets x, x+2, x+6, x+8, x+12 in the class 0 mod 1, so k = x:
# 55331 and 144161 are consecutive ones (checked below), so a search from
# 144161 - (depth - 1) finds 144161 at exactly that depth, for any depth up
# to 88830.
QUINTUPLET = TupleSystem(CrtClass(1, 0, ()), (0, 2, 6, 8, 12))
DEEP_WITNESS, PREVIOUS_WITNESS = 144161, 55331
LARGEST = 1 << 16


def window_ends(segment_size):
    """Depths at which the windows of a search grow, while they grow."""
    ends, end, size = [], 0, min(FIRST_WINDOW, segment_size)
    while size < segment_size:
        end += size
        ends.append(end)
        size *= 2
    return ends


def quintuplet_task(depth, budget=10**6):
    return ConstellationTask(QUINTUPLET, start=DEEP_WITNESS - (depth - 1), budget=budget)


def test_quintuplet_witnesses_are_consecutive():
    primes = set(primes_up_to(DEEP_WITNESS + 12))
    found = [
        x for x in range(PREVIOUS_WITNESS, DEEP_WITNESS + 1)
        if all(x + d in primes for d in QUINTUPLET.offsets)
    ]
    assert found == [PREVIOUS_WITNESS, DEEP_WITNESS]
    assert window_ends(LARGEST)[-1] < DEEP_WITNESS - PREVIOUS_WITNESS


@pytest.mark.parametrize(
    "segment_size", (1, 3, FIRST_WINDOW - 1, FIRST_WINDOW, FIRST_WINDOW + 1, LARGEST)
)
def test_witness_and_depth_do_not_depend_on_the_window_schedule(segment_size):
    # witnesses just before, on and just after each end of a growing window;
    # windows of 1 or 3 never grow, so they get the first end only
    ends = window_ends(LARGEST)[: 1 if segment_size < 4 else None]
    for depth in sorted({1} | {e + i for e in ends for i in (-1, 0, 1)}):
        got = search_with_count(quintuplet_task(depth), segment_size)
        assert got == (DEEP_WITNESS, depth), (segment_size, depth)


def record_windows(monkeypatch):
    windows = []
    sieve = _SievePlan.window

    def window(plan, lo, hi):
        windows.append((lo, hi))
        return sieve(plan, lo, hi)

    monkeypatch.setattr(_SievePlan, "window", window)
    return windows


def test_exhaustion_mid_growth_covers_exactly_the_budget(monkeypatch):
    windows = record_windows(monkeypatch)
    budget = 5000
    task = ConstellationTask(QUINTUPLET, start=PREVIOUS_WITNESS + 1, budget=budget)
    assert search_with_count(task, LARGEST) == (None, budget)
    ends = [hi for _, hi in windows]
    assert [lo for lo, _ in windows] == [task.start] + ends[:-1]
    assert ends[-1] - task.start == budget
    assert ends[:-1] == [task.start + e for e in window_ends(LARGEST) if e < budget]
    # past its growth a search keeps to windows of segment_size
    windows.clear()
    assert search_with_count(task, FIRST_WINDOW + 1) == (None, budget)
    sizes = [hi - lo for lo, hi in windows]
    assert sum(sizes) == budget and sizes[:2] == [FIRST_WINDOW, FIRST_WINDOW + 1]
    assert max(sizes) == FIRST_WINDOW + 1


def test_a_shallow_witness_sieves_one_first_window(monkeypatch):
    # the witness is 100 candidates in: neither the standalone default
    # segment nor the construction's 2**20 may be sieved whole
    windows = record_windows(monkeypatch)
    for segment_size in (LARGEST, 1 << 20):
        windows.clear()
        assert search_with_count(quintuplet_task(100), segment_size) == (DEEP_WITNESS, 100)
        assert sum(hi - lo for lo, hi in windows) <= FIRST_WINDOW


# ---------------------------------------------------------------------------
# the sieve against its definition
# ---------------------------------------------------------------------------

def brute_survivors(task, lo, hi):
    """x = t + k*q, k in [lo, hi), with no prime p <= sieve_limit such
    that p | x + d and |x + d| != p."""
    q, t = task.system.crt.modulus, task.system.crt.residue
    primes = primes_up_to(task.sieve_limit)
    out = []
    for k in range(lo, hi):
        x = t + k * q
        if not any(
            (x + d) % p == 0 and abs(x + d) != p
            for d in task.system.offsets
            for p in primes
        ):
            out.append(x)
    return out


def admissible_task(rng, primes_of_q, offsets, limit):
    """A task whose class t mod q keeps every t + d off 0 mod each p | q,
    or None when the offsets cover every class mod some p | q."""
    q = 1
    t = 0
    for p in primes_of_q:
        free = [r for r in range(p) if all((r + d) % p for d in offsets)]
        if not free:
            return None
        r = rng.choice(free)
        # t := the class that is t mod q and r mod p
        t = t + q * ((r - t) * pow(q, -1, p) % p)
        q *= p
    return ConstellationTask(
        TupleSystem(CrtClass(q, t, tuple(primes_of_q)), tuple(sorted(offsets))),
        sieve_limit=limit,
    )


# Limits below, across and above each tier boundary, for windows of
# WINDOW candidates: a prime with m distinct classes is pre-sieved up to
# PRESIEVE_DENSITY * m if it fits a period of WINDOW / 8, and the other
# primes are scattered from WINDOW / SCATTER_HITS on.
WINDOW = 2048
TIER_LIMITS = (
    2, 10, 11, WINDOW // SCATTER_HITS - 1, WINDOW // SCATTER_HITS + 1,
    PRESIEVE_DENSITY * 3, WINDOW // 8 + 1, 1000, DEFAULT_SIEVE_LIMIT,
)


@pytest.mark.parametrize("limit", TIER_LIMITS)
def test_sieve_matches_its_definition_from_zero(limit):
    # small q and k from 0: |x + d| runs through the sieving primes, the
    # zone where striking p at x + d = +-p would be wrong
    rng = random.Random(limit)
    tasks = 0
    while tasks < 5:
        q_primes = rng.choice(((), (2,), (2, 3), (2, 3, 5), (3,), (5, 7)))
        offsets = {rng.randrange(-80, 81) for _ in range(rng.randrange(1, 6))}
        task = admissible_task(rng, q_primes, offsets, limit)
        if task is None:
            continue
        tasks += 1
        assert sieve_segment(task, 0, WINDOW) == brute_survivors(task, 0, WINDOW), task


@pytest.mark.parametrize("limit", (DEFAULT_SIEVE_LIMIT, 1000))
def test_sieve_matches_its_definition_on_a_long_window(limit):
    # a long window sends the primes that are not pre-sieved to strided
    # writes up to 2**15 / SCATTER_HITS = 1024
    rng = random.Random(limit + 2)
    task = admissible_task(rng, (2, 3), {0, 2, 6}, limit)
    lo = rng.randrange(10**6, 10**7)
    hi = lo + (1 << 15)
    assert sieve_segment(task, lo, hi) == brute_survivors(task, lo, hi)


@pytest.mark.parametrize("limit", (13, PRESIEVE_DENSITY * 6, 4296))
def test_sieve_matches_its_definition_above_2_63(limit):
    rng = random.Random(limit + 1)
    big_q = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    # q above 2**63 (53# is about 3.3e19), offsets small
    task = admissible_task(rng, big_q, {0, 2, 6, 8}, limit)
    assert task.system.crt.modulus > 1 << 63
    lo = rng.randrange(1 << 70)
    assert sieve_segment(task, lo, lo + 300) == brute_survivors(task, lo, lo + 300)
    # offsets above 2**63; k near where x + d = +-p for the negative one
    huge = (1 << 64) + 14
    task = admissible_task(rng, (2, 3), {0, huge, -huge}, limit)
    q, t = task.system.crt.modulus, task.system.crt.residue
    lo = max(0, (huge - limit - t) // q - 50)
    hi = lo + 2 * limit // q + 100
    assert sieve_segment(task, lo, hi) == brute_survivors(task, lo, hi)


def test_sieve_strikes_a_zero_value():
    # x = 7 gives the values 0 and 3: 3 is itself a sieving prime, but 0
    # is a multiple of every sieving prime, so 7 must not survive
    task = ConstellationTask(TupleSystem(CrtClass(1, 0, ()), (-7, -4)), sieve_limit=50)
    assert sieve_segment(task, 0, 100) == brute_survivors(task, 0, 100)
    assert 7 not in sieve_segment(task, 0, 100)


def test_tier_limits_reach_every_tier():
    rng = random.Random(99)
    task = admissible_task(rng, (2, 3), {0}, 1000)
    plan = _SievePlan(task, WINDOW)
    scatter_from = WINDOW // SCATTER_HITS
    assert plan.patterns
    assert plan.rest_p.min() < scatter_from < plan.rest_p.max()
    assert _SievePlan(task, 32).patterns == []  # periods would be <= 4


def test_windows_of_a_long_plan_match_the_definition():
    # a search's first windows are shorter than its plan's pattern periods:
    # they lie inside one period, or straddle the end of one
    rng = random.Random(1618)
    for limit in (PRESIEVE_DENSITY * 6, 1000):
        task = admissible_task(rng, (2, 3), {0, 2, 6, 12, 14}, limit)
        plan = _SievePlan(task, 1 << 16)
        q, t = task.system.crt.modulus, task.system.crt.residue
        period = max(len(pattern) for pattern in plan.patterns)
        assert period > 1000
        for _ in range(6):
            lo = rng.randrange(3 * period)
            hi = lo + rng.choice((1, 37, 1000))
            got = [t + (lo + j) * q for j in plan.window(lo, hi).tolist()]
            assert got == brute_survivors(task, lo, hi), (limit, lo, hi)
        for lo in (2 * period - 10, 2 * period - 9):  # ends on, one past a period
            got = [t + (lo + j) * q for j in plan.window(lo, lo + 10).tolist()]
            assert got == brute_survivors(task, lo, lo + 10)


def test_sieve_segments_split_anywhere_agree():
    rng = random.Random(2718)
    for limit in (50, PRESIEVE_DENSITY * 6, 4296):
        task = admissible_task(rng, (2, 3), {0, 2, 6, 12, 14}, limit)
        whole = sieve_segment(task, 0, 3000)
        cuts = sorted(rng.sample(range(1, 3000), 7))
        pieces = []
        for lo, hi in zip([0] + cuts, cuts + [3000]):
            pieces += sieve_segment(task, lo, hi)
        assert pieces == whole


# ---------------------------------------------------------------------------
# windows that gather their survivors from the sparse patterns
# ---------------------------------------------------------------------------

# The construction's step-9 system (target +17): 15 offsets in the class
# 155 mod 210, searched from x = 136184770601.
STEP_9 = TupleSystem(CrtClass(210, 155, (2, 3, 5, 7)), (
    -68092385302, -68092385298, -1655127474, -1655127444, -2132484, -2132478,
    -42322, -42294, -3604, -3594, -642, -618, -28, -18, -6,
))
STEP_9_K = 136184770601 // 210
# the densest prime 12-tuple, for a system whose zone starts at k = 0
TUPLE_12 = {0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42}


def numpy_survivors(task, lo, hi):
    """Indices j of the x = t + (lo + j)*q, k in [lo, hi), that no prime
    p <= sieve_limit divides at any offset d unless |x + d| = p: the
    definition, vectorized over primes and window; where some |x + d| is
    at most sieve_limit, brute force decides."""
    q, t = task.system.crt.modulus, task.system.crt.residue
    limit, n = task.sieve_limit, hi - lo
    primes = np.array(primes_up_to(limit), np.int64)[:, None]
    j = np.arange(n)
    alive = np.ones(n, bool)
    for d in task.system.offsets:
        base = np.array([(t + d + lo * q) % p for p in primes.ravel().tolist()])[:, None]
        alive &= ~((base + j * (q % primes)) % primes == 0).any(axis=0)
    for d in task.system.offsets:
        for i in range(max(0, -((limit + t + d) // q) - lo), min(n, (limit - t - d) // q - lo + 1)):
            alive[i] = bool(brute_survivors(task, lo + i, lo + i + 1))
    return np.flatnonzero(alive)


class FlatSpy:
    """Stands in for a plan's array of patterns and counts the reads of a
    gather."""

    def __init__(self, flat):
        self.flat, self.reads = flat, 0

    def __getitem__(self, index):
        self.reads += 1
        return self.flat[index]


def gathers(plan, lo, hi):
    """A window's survivors, and whether it gathered them."""
    spy = plan.flat = FlatSpy(plan.flat)
    try:
        return plan.window(lo, hi), spy.reads > 0
    finally:
        plan.flat = spy.flat


def all_anded(plan, lo, hi, monkeypatch):
    """The window's survivors when every pattern is ANDed."""
    with monkeypatch.context() as m:
        m.setattr(plan, "gathered", 0)
        return plan.window(lo, hi)


def test_long_and_first_step_9_windows_both_gather(monkeypatch):
    task = ConstellationTask(STEP_9, start=STEP_9_K * 210 + 155)
    plan = _SievePlan(task, 1 << 20)
    assert 0 < plan.gathered < len(plan.patterns)
    lo = STEP_9_K
    got, gathered = gathers(plan, lo, lo + (1 << 20))
    assert gathered
    assert np.array_equal(got, all_anded(plan, lo, lo + (1 << 20), monkeypatch))
    got, gathered = gathers(plan, lo, lo + FIRST_WINDOW)
    assert gathered
    assert np.array_equal(got, numpy_survivors(task, lo, lo + FIRST_WINDOW))
    assert np.array_equal(got, all_anded(plan, lo, lo + FIRST_WINDOW, monkeypatch))


@pytest.mark.parametrize("span", (1 << 20, 1 << 15))
def test_gathering_step_9_windows_match_the_definition(span, monkeypatch):
    # a plan for 2**20 windows has periods of up to 2**17, so a window of
    # 2**15 starts and ends inside one; for 2**15 windows the periods are
    # at most 4096, and a window spans several of each
    task = ConstellationTask(STEP_9, start=STEP_9_K * 210 + 155)
    plan = _SievePlan(task, span)
    rng = random.Random(span)
    periods = [len(pattern) for pattern in plan.patterns]
    assert (span == 1 << 20) == (max(periods) > 1 << 15)
    n = 1 << 15
    for lo in (STEP_9_K + rng.randrange(1 << 20), (1 << 64) + rng.randrange(1 << 20)):
        got, gathered = gathers(plan, lo, lo + n)
        assert gathered
        assert np.array_equal(got, numpy_survivors(task, lo, lo + n)), lo
        assert np.array_equal(got, all_anded(plan, lo, lo + n, monkeypatch))


@pytest.mark.parametrize("n", (700, 1 << 14))
def test_gathering_windows_with_every_tier_match_the_definition(n):
    # limit 1000 leaves primes to strided writes and scatters, and in a
    # window of 700 some hit at most once
    rng = random.Random(n)
    task = admissible_task(rng, (2, 3, 5, 7), TUPLE_12, 1000)
    plan = _SievePlan(task, 1 << 16)
    assert plan.gathered
    tiers = {
        "strided" if p < -(-n // SCATTER_HITS) else "scattered" if p < n else "once"
        for p in plan.rest_p.tolist()
    }
    assert tiers == ({"scattered", "once"} if n == 700 else {"strided", "scattered"})
    for lo in (rng.randrange(10**9), (1 << 63) + rng.randrange(10**9)):
        got, gathered = gathers(plan, lo, lo + n)
        assert gathered
        assert np.array_equal(got, numpy_survivors(task, lo, lo + n)), lo


def test_a_window_over_a_forgiveness_zone_gathers():
    # from k = 0, x + d runs through the sieving primes: the window
    # gathers and re-decides the zone's struck k on its survivors; the
    # window after the zone gathers too
    task = admissible_task(random.Random(7), (2, 3, 5, 7), TUPLE_12, DEFAULT_SIEVE_LIMIT)
    plan = _SievePlan(task, 1 << 20)
    n = 1 << 15
    assert plan.gathered and plan.zones
    assert 0 < max(z_hi for _, _, z_hi in plan.zones) < n
    got, gathered = gathers(plan, 0, n)
    assert gathered
    assert np.array_equal(got, numpy_survivors(task, 0, n))
    assert got[:1].tolist() == [0]  # x = 11: every x + d is a sieving prime
    got, gathered = gathers(plan, n, 2 * n)
    assert gathered
    assert np.array_equal(got, numpy_survivors(task, n, 2 * n))


# ---------------------------------------------------------------------------
# the classes a plan sieves with, against brute force
# ---------------------------------------------------------------------------

# primes just below and just above 2**31, one far above, and an offset
# beyond int64
BELOW_2_31, ABOVE_2_31, M61 = (1 << 31) - 1, 2_147_483_659, (1 << 61) - 1
HUGE = (1 << 64) + 14
# 2 * 3 * ... * 53, above 2**64: too large to factor without its primes
PRIMORIAL_53 = math.prod(primes_up_to(53))

# (the factors q carries, or None to leave them to the sieve; q; offsets)
CLASS_CASES = (
    ((), 1, (0, 2, 6)),
    ((2,), 2, (-7, 1, 13)),
    ((2, 3, 5, 7), 210, (-60, 0, 30, 150, 210)),  # coincide mod 2, 3, 5, 7
    ((3, BELOW_2_31), 3 * BELOW_2_31, (1, 5, 11)),
    ((2, ABOVE_2_31), 2 * ABOVE_2_31, (1, 3, 7)),
    ((5, BELOW_2_31, ABOVE_2_31), 5 * BELOW_2_31 * ABOVE_2_31, (0, 4)),
    ((3, M61), 3 * M61, (2, 8)),
    (None, 6 * BELOW_2_31, (1, 7, 13)),
    (None, 2 * M61, (1, 3)),
    (None, 30 * ABOVE_2_31, (-1, 1)),
    (None, PRIMORIAL_53, (0, 2)),
    ((2, 3), 6, (1, HUGE, -HUGE, -(1 << 63), (1 << 63) - 1)),
)


@pytest.mark.parametrize("limit", (2, 50, 1000))
@pytest.mark.parametrize("factors, q, offsets", CLASS_CASES)
def test_hit_classes_match_brute_force(factors, q, offsets, limit):
    rng = random.Random(q + limit)
    t = rng.randrange(q)
    task = ConstellationTask(TupleSystem(CrtClass(q, t, factors), offsets), sieve_limit=limit)
    primes, k0 = _hit_classes(task)
    assert primes.tolist() == [p for p in primes_up_to(limit) if q % p]
    assert k0.shape == (len(offsets), len(primes))
    for d, row in zip(offsets, k0.tolist()):
        for p, k in zip(primes.tolist(), row):
            assert 0 <= k < p and (t + k * q + d) % p == 0, (p, d, k)


def naive_entries(task):
    """Every distinct (p, k0) of the plan, by trying each k0 below p."""
    q, t = task.system.crt.modulus, task.system.crt.residue
    return {
        (p, k)
        for p in primes_up_to(task.sieve_limit)
        if q % p
        for d in task.system.offsets
        for k in range(p)
        if (t + k * q + d) % p == 0
    }


def plan_entries(plan):
    """The (p, k0) a plan strikes, in a list: its other tiers' entries,
    and the classes its patterns strike, read back per member prime."""
    entries = list(zip(plan.rest_p.tolist(), plan.rest_k0.tolist()))
    for pattern in plan.patterns:
        for p in plan.primes.tolist():
            # a pattern's period is the product of its primes; every one
            # of them leaves some class free, so a class is struck by p
            # exactly when the whole column is
            if len(pattern) % p == 0:
                struck = ~pattern.reshape(-1, p).any(axis=0)
                entries += [(p, k) for k in np.flatnonzero(struck).tolist()]
    return entries


@pytest.mark.parametrize("offsets", (
    {0, 2, 6, 12, 14},  # spread 14, below the pre-sieve bound
    {0, 210, 19594},  # coincide mod 2, 3, 5, 7 and 97 * 101, spread above it
    {-9, 21, 51, 81},  # coincide mod 2, 3 and 5
    {0, HUGE, -HUGE},  # coincide mod every prime dividing HUGE
))
@pytest.mark.parametrize("span", (2048, 1 << 16))
def test_plan_entries_are_the_distinct_classes(offsets, span):
    rng = random.Random(len(offsets) + span)
    for q_primes in ((), (2, 3), (11, 13)):
        task = admissible_task(rng, q_primes, offsets, 600)
        assert task is not None
        plan = _SievePlan(task, span)
        entries = plan_entries(plan)
        assert len(entries) == len(set(entries))
        assert set(entries) == naive_entries(task)
        assert plan.rest_p.tolist() == sorted(plan.rest_p.tolist())
        # the pre-sieved primes: those whose distinct classes cover at least
        # 1/PRESIEVE_DENSITY of all k and that fit a pattern period
        period = min(PATTERN_PERIOD, span // 8)
        counts = {}
        for p, _ in naive_entries(task):
            counts[p] = counts.get(p, 0) + 1
        dense = {p for p, c in counts.items() if c * PRESIEVE_DENSITY >= p and p <= period}
        assert {p for p, _ in entries} - set(plan.rest_p.tolist()) == dense
