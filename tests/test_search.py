"""Constellation search: sieve soundness, witness agreement, determinism.

The naive oracle walks the residue class one candidate at a time and
trial-divides every shifted value; the production path must return the
same witness or the same exhaustion.

One window grid, test_windows_match_the_definition, checks both sieve
tiers (the comb; the tables: ANDed patterns and gathers in one stage or
two) and both scans (unpacked bits, nonzero words) against one vectorised
definition of the sieve, `definition`:
each case is a plan and the windows, segments and search it sieves, and
test_random_windows_match_the_definition draws more over the same axes.
`pytest -k definition` runs them alone.
"""

import math
import random
import tracemalloc
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
import sympy

from sdpc import construction, search
from sdpc.admissible import InadmissibleSystemError, TupleSystem, is_admissible
from sdpc.construction import Config, initial_state, run
from sdpc.modular import CrtClass
from sdpc.primes import PrimalityStatus, primes_up_to
from sdpc.search import (
    DEFAULT_SIEVE_LIMIT,
    FIRST_WINDOW,
    GATHER_COST,
    PATTERN_PERIOD,
    PRESIEVE_AFTER,
    SCREEN_LIMIT,
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
        if is_admissible(task.system) is None:
            return task


def windows_up_to(monkeypatch, largest):
    """Make the searches from now on grow their windows to `largest`, and
    start them there if that is below FIRST_WINDOW."""
    monkeypatch.setattr(search, "LARGEST_WINDOW", largest)
    monkeypatch.setattr(search, "FIRST_WINDOW", min(FIRST_WINDOW, largest))


def test_agrees_with_naive_oracle_on_random_tasks(monkeypatch):
    windows_up_to(monkeypatch, 256)
    rng = random.Random(31337)
    cut_short = 0
    for _ in range(60):
        task = small_task(rng)
        want = naive_witness(task)
        got, examined = search_with_count(task)
        assert got == want, (task.system.crt, task.system.offsets, task.start)
        if want is None:
            assert examined == task.budget
        elif examined > 1:
            # a budget one short of the witness exhausts, examining it all
            short = replace(task, budget=examined - 1)
            assert search_with_count(short) == (None, examined - 1), (task.system.crt, task.system.offsets)
            cut_short += 1
    assert cut_short > 0


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


def naive_count(task):
    """(witness, candidates examined) of naive_witness, or (None, budget)."""
    x, q, t = naive_witness(task), task.system.crt.modulus, task.system.crt.residue
    return (None, task.budget) if x is None else (x, (x - max(t, task.start)) // q + 1)


# q = 1 systems whose values run through +-2, +-3 and +-5 near k = 0, and
# q = 2 ones, whose values are odd, through +-3 and +-5
ZONE_SYSTEMS = (
    TupleSystem(CrtClass(1, 0, ()), (0, 2)),
    TupleSystem(CrtClass(1, 0, ()), (-10, -8)),
    TupleSystem(CrtClass(1, 0, ()), (-8, -6, -2)),
    TupleSystem(CrtClass(2, 1, (2,)), (-8, -2)),
    TupleSystem(CrtClass(2, 1, (2,)), (-12, -6, 0)),
)


@pytest.mark.parametrize("system", ZONE_SYSTEMS, ids=[f"q{s.crt.modulus}_" + "_".join(map(str, s.offsets)) for s in ZONE_SYSTEMS])
def test_a_search_started_in_a_zone_matches_a_naive_scan(system):
    # a window keeps every zone k, where some |x + d| <= the plan limit, and
    # certification decides it: searches from each start near 0 and near
    # the end of the zone, at several limits
    assert is_admissible(system) is None
    for limit in (5, 50, DEFAULT_SIEVE_LIMIT):
        for start in {*range(40), *range(limit - 20, limit + 20)}:
            task = ConstellationTask(system, start=max(start, 0), budget=30, sieve_limit=limit)
            assert search_with_count(task) == naive_count(task), (limit, start)


def test_a_search_certifies_each_zone_candidate_once(monkeypatch):
    # 16 offsets -30030 * i (one class mod each prime up to 13, 16 of the
    # 17 or more of a larger one: admissible), whose zones, |x + d| <= 400,
    # are disjoint, 801 candidates each. A search from 0 through them all
    # certifies each zone candidate once, and here nothing else.
    offsets = tuple(-30030 * i for i in range(16, 0, -1))
    task = ConstellationTask(TupleSystem(CrtClass(1, 0, ()), offsets), budget=16 * 30030 + 401)
    certified = []
    witness_ok = search._witness_ok

    def counted(task, x):
        certified.append(x)
        return witness_ok(task, x)

    monkeypatch.setattr(search, "_witness_ok", counted)
    assert search_with_count(task) == (None, task.budget)
    zones = [x for d in reversed(offsets) for x in range(-d - DEFAULT_SIEVE_LIMIT, DEFAULT_SIEVE_LIMIT + 1 - d)]
    assert certified == zones and len(zones) == 16 * 801


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


def test_a_system_with_no_offsets_ends_at_its_first_candidate():
    assert search_with_count(ConstellationTask(TupleSystem(CrtClass(1, 0), ()), start=2000)) == (2000, 1)


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
    # survivors under the plan limit squared need no further testing; check
    # the sieve is not letting composites through there. In the zone, where
    # some |x + d| <= limit, the sieve keeps every x (13 of them, up to
    # x = 371) and the search decides them, as a search from x over one
    # candidate tells
    task = ConstellationTask(
        TupleSystem(CrtClass(30, 11, (2, 3, 5)), (0, 2, 6)), sieve_limit=1000
    )
    limit = _SievePlan(task).limit
    assert limit == DEFAULT_SIEVE_LIMIT
    zone = []
    for x in sieve_segment(task, 0, 30_000):
        values = [abs(x + d) for d in task.system.offsets]
        if min(values) <= limit:
            zone.append(x)
            want = (x, 1) if all(v > 3 and trial_prime(v) for v in values) else (None, 1)
            assert search_with_count(replace(task, start=x, budget=1)) == want, x
            continue
        for v in values:
            if v < limit * limit:
                assert trial_prime(v), (x, v)
    assert zone == list(range(11, 372, 30))


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


def window_lengths(largest, wide=False):
    """The lengths of a search's windows, without end, for windows of up to
    `largest` and a budget of at least `largest`: from FIRST_WINDOW (or
    `largest` if smaller) they double to `largest`; a wide plan's windows
    are packed, 8 candidates to a byte, and after the first double from one
    period of its patterns, 8 * min(PATTERN_PERIOD, largest // 8), to
    8 * largest."""
    size = min(FIRST_WINDOW, largest)
    yield size
    if wide:
        size, largest = 8 * min(PATTERN_PERIOD, largest // 8), 8 * largest
        yield size
    while True:
        size = min(2 * size, largest)
        yield size


def window_ends(largest, wide=False):
    """Depths at which the windows of a search grow, while they grow."""
    ends = [0]
    for size in window_lengths(largest, wide):
        if size == (8 if wide else 1) * largest:
            return ends[1:]
        ends.append(ends[-1] + size)


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
def test_witness_and_depth_do_not_depend_on_the_window_schedule(segment_size, monkeypatch):
    # witnesses just before, on and just after each end of a growing window;
    # windows of 1 or 3 never grow, so they get the first end only
    windows_up_to(monkeypatch, segment_size)
    ends = window_ends(LARGEST)[: 1 if segment_size < 4 else None]
    for depth in sorted({1} | {e + i for e in ends for i in (-1, 0, 1)}):
        got = search_with_count(quintuplet_task(depth))
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
    # the windows of a plan that is not wide: at a gather cost of 2**62
    # it gathers nothing
    monkeypatch.setattr(search, "GATHER_COST", 1 << 62)
    windows = record_windows(monkeypatch)
    budget = 5000
    task = ConstellationTask(QUINTUPLET, start=PREVIOUS_WITNESS + 1, budget=budget)
    windows_up_to(monkeypatch, LARGEST)
    assert search_with_count(task) == (None, budget)
    ends = [hi for _, hi in windows]
    assert [lo for lo, _ in windows] == [task.start] + ends[:-1]
    assert ends[-1] - task.start == budget
    assert ends[:-1] == [task.start + e for e in window_ends(LARGEST) if e < budget]
    # past its growth a search keeps to windows of LARGEST_WINDOW
    windows.clear()
    windows_up_to(monkeypatch, FIRST_WINDOW + 1)
    assert search_with_count(task) == (None, budget)
    sizes = [hi - lo for lo, hi in windows]
    assert sum(sizes) == budget and sizes[:2] == [FIRST_WINDOW, FIRST_WINDOW + 1]
    assert max(sizes) == FIRST_WINDOW + 1


def test_a_shallow_witness_sieves_one_first_window(monkeypatch):
    # the witness is 100 candidates in: neither a largest window of 2**16
    # nor one of 2**20 may be sieved whole, only the first window, and the
    # plan, wide, is neither built wide nor asked whether it is: it forms
    # no groups and builds no tables and no screen
    windows = record_windows(monkeypatch)
    plans = []
    build = _SievePlan.__init__

    def init(plan, *args):
        build(plan, *args)
        plans.append(plan)

    monkeypatch.setattr(_SievePlan, "__init__", init)
    task = quintuplet_task(100)
    for largest in (LARGEST, 1 << 20):
        windows.clear()
        windows_up_to(monkeypatch, largest)
        assert search_with_count(task) == (DEEP_WITNESS, 100)
        assert windows == [(task.start, task.start + FIRST_WINDOW)], largest
        assert plans[-1].good is None and "wide" not in vars(plans[-1])
        assert "_grouping" not in vars(plans[-1]) and "_screen" not in vars(plans[-1])
        assert plans[-1].wide


def record_tables(monkeypatch):
    """The sizes of the prime tables that searches ask for from now on."""
    sizes = []
    table = search.primes_up_to

    def primes_up_to(n):
        sizes.append(n)
        return table(n)

    search._sieving_primes.cache_clear()
    monkeypatch.setattr(search, "primes_up_to", primes_up_to)
    return sizes


def test_a_shallow_search_with_a_large_limit_fetches_only_its_depth(monkeypatch):
    # at limit 1e7 the search's two windows, 3 * FIRST_WINDOW candidates,
    # sieve with the primes up to DEFAULT_SIEVE_LIMIT and screen by those
    # up to SCREEN_LIMIT, both cut from the one table up to SCREEN_LIMIT
    sizes = record_tables(monkeypatch)
    task = replace(quintuplet_task(5000), sieve_limit=10**7)
    assert search_with_count(task) == (DEEP_WITNESS, 5000)
    assert sizes and max(sizes) == SCREEN_LIMIT


def test_a_search_past_its_limit_fetches_no_table_beyond_it(monkeypatch):
    # 25,000 candidates deep, past 4 * 5,000, at limit 5,000: the plan
    # holds the primes up to DEFAULT_SIEVE_LIMIT from its first window and
    # never fetches the primes up to the limit
    sizes = record_tables(monkeypatch)
    task = replace(quintuplet_task(25000), sieve_limit=5000)
    assert search_with_count(task) == (DEEP_WITNESS, 25000)
    assert max(sizes) == SCREEN_LIMIT


def test_an_empty_segment_fetches_no_table_above_the_cap(monkeypatch):
    # sieve_segment sieves what a search sieves, with the primes up to
    # DEFAULT_SIEVE_LIMIT: a segment, empty, all struck or with a survivor,
    # fetches no table above SCREEN_LIMIT at any limit
    # x = 1000 is struck; x = 1 lies in the zone, kept for the search to reject
    sizes = record_tables(monkeypatch)
    task = replace(quintuplet_task(1), sieve_limit=10**7)
    assert sieve_segment(task, 0, 0) == sieve_segment(task, 1000, 1001) == []
    assert sieve_segment(task, 1, 2) == [1]
    assert search_with_count(replace(task, start=1, budget=1)) == (None, 1)
    assert sieve_segment(task, DEEP_WITNESS, DEEP_WITNESS + 1) == [DEEP_WITNESS]
    assert max(sizes) <= SCREEN_LIMIT


# ---------------------------------------------------------------------------
# the windows of a wide plan
# ---------------------------------------------------------------------------

# The construction's step-9 system (target +17): 15 offsets in the class
# 155 mod 210, searched from x = 136184770601.
STEP_9 = TupleSystem(CrtClass(210, 155, (2, 3, 5, 7)), (
    -68092385302, -68092385298, -1655127474, -1655127444, -2132484, -2132478,
    -42322, -42294, -3604, -3594, -642, -618, -28, -18, -6,
))
STEP_9_K = 136184770601 // 210

# The construction's step-8 system (target -13): its witness is the first
# of its class from x = 3310254909, 308,486,336 candidates deep, so a search
# from STEP_8_WITNESS - (depth - 1) * 210 finds it at exactly that depth.
STEP_8 = TupleSystem(CrtClass(210, 155, (2, 3, 5, 7)), (
    -1655127444, -2132478, -2132454, -42294, -42292, -3594, -3574, -618, -612, -6, 2, 12,
))
STEP_8_WITNESS = 68092385285
WIDE = 1 << 20
WIDE_ENDS = window_ends(WIDE, wide=True)


def step_8_task(depth):
    return ConstellationTask(STEP_8, start=STEP_8_WITNESS - (depth - 1) * 210, budget=10**9)


def step_9_task(budget=10**9):
    # no witness for about 5.3e13 candidates: every search exhausts
    return ConstellationTask(STEP_9, start=STEP_9_K * 210 + 155, budget=budget)


def test_the_wide_examples_are_wide():
    # a plan that gathers is wide at any budget, also at budgets below the
    # bytes of its tables, 8 per unit of p (110,960 for step 9)
    for task in (quintuplet_task(1), step_8_task(1), step_9_task()):
        for budget in (1 << 15, LARGEST, task.budget):
            assert _SievePlan(replace(task, budget=budget)).wide, budget


def test_certifying_a_screened_witness_runs_base_2_once(monkeypatch):
    # the step-8 witness's 12 values, each below 1.12e12: the base-2
    # screen, then the certifying bases 13, 23 and 1662803 of its tier
    from sdpc import primes

    bases = []
    strong = primes._strong_probable_prime

    def counted(n, base):
        bases.append(base)
        return strong(n, base)

    monkeypatch.setattr(primes, "_strong_probable_prime", counted)
    assert search._witness_ok(step_8_task(1), STEP_8_WITNESS)
    assert len(bases) == 48 and bases.count(2) == 12


def test_a_wide_plan_sieves_windows_8_times_as_long(monkeypatch):
    # after a first window of FIRST_WINDOW, from one period of the
    # patterns, 8 * PATTERN_PERIOD candidates, doubling to
    # 8 * LARGEST_WINDOW, then steady
    windows = record_windows(monkeypatch)
    budget = WIDE_ENDS[-1] + 3 * 8 * WIDE + 5000
    task = step_9_task(budget)
    windows_up_to(monkeypatch, WIDE)
    assert search_with_count(task) == (None, budget)
    sizes = [hi - lo for lo, hi in windows]
    assert sizes[0] == FIRST_WINDOW and max(sizes) == 8 * WIDE
    growing = [FIRST_WINDOW] + [8 * PATTERN_PERIOD << i for i in range(len(WIDE_ENDS) - 1)]
    assert sizes == growing + [8 * WIDE] * 3 + [5000]


def test_wide_witnesses_around_each_growth_end_match_the_byte_path(monkeypatch):
    # the witness and depth just before, on and just after each end of a
    # growing wide window, against the narrow plan with every group ANDed,
    # as at a gather cost of 2**62, which gathers nothing
    def search_both(task):
        got = [search_with_count(task)]
        with monkeypatch.context() as m:
            m.setattr(search, "GATHER_COST", 1 << 62)
            got.append(search_with_count(task))
        return got

    for end in WIDE_ENDS:
        for depth in (end - 1, end, end + 1):
            assert search_both(step_8_task(depth)) == [(STEP_8_WITNESS, depth)] * 2, depth
    # the quintuplet's witnesses lie in its first two windows
    first = FIRST_WINDOW
    for depth in (1, first - 1, first, first + 1, DEEP_WITNESS - PREVIOUS_WITNESS):
        wide, narrow = search_both(quintuplet_task(depth))
        assert wide == narrow, depth


# the step-9 plan is wide at every budget, also at 2**15 and 2**16, below
# the 110,960 bytes of its tables; below WIDE its second window, one period
# of its patterns, 8 * (budget // 8) candidates, reaches the budget; past
# WIDE the budget ends a growing window, falls inside one, or ends one
# past the last
@pytest.mark.parametrize("budget", (1 << 15, 1 << 16, 200_000, 245_760, 8_372_225, WIDE_ENDS[3], WIDE_ENDS[-1] + 1))
def test_wide_exhaustion_mid_growth_covers_exactly_the_budget(budget, monkeypatch):
    windows = record_windows(monkeypatch)
    task = step_9_task(budget)
    windows_up_to(monkeypatch, WIDE)
    assert search_with_count(task) == (None, budget)
    ends = [hi for _, hi in windows]
    assert [lo for lo, _ in windows] == [STEP_9_K] + ends[:-1]
    assert ends == [STEP_9_K + e for e in WIDE_ENDS if e < budget] + [STEP_9_K + budget]


# ---------------------------------------------------------------------------
# the sieve against its definition
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def sieving_primes(q, limit):
    """The primes up to limit that do not divide q, as a list and an array,
    and q**-1 mod each."""
    primes = [p for p in primes_up_to(limit) if q % p]
    return primes, np.array(primes, np.int64), np.array([pow(q, -1, p) for p in primes], np.int64)


def definition(task, lo, hi, limit):
    """Indices j, ascending, of the x = t + (lo + j)*q, k in [lo, hi), that
    no prime p <= limit, p not dividing q, divides at any offset d, and of
    every x with some |x + d| <= limit, the zones, which certification
    decides: the sieve's definition, struck per prime and offset over the
    window. Exact for any q, t, d and lo: each residue mod p is taken of a
    Python int."""
    q, t, n = task.system.crt.modulus, task.system.crt.residue, hi - lo
    primes, ps, inverses = sieving_primes(q, limit)
    alive = np.ones(n, bool)
    for d in task.system.offsets:
        v = t + d + lo * q  # x + d at j = 0
        # p divides v + j*q exactly where j = -v / q mod p
        first = -np.array([v % p for p in primes], np.int64) * inverses % ps
        alive[first[first < n]] = False
        for j, p in zip(first.tolist(), primes[: int(np.searchsorted(ps, n))]):
            alive[j::p] = False
    for d in task.system.offsets:
        v = t + d + lo * q
        alive[max(0, -((limit + v) // q)) : max(0, (limit - v) // q + 1)] = True
    return np.flatnonzero(alive)


def segment_definition(task, lo, hi):
    """The x that sieve_segment(task, lo, hi) keeps by the definition at
    the plan limit, min(sieve_limit, DEFAULT_SIEVE_LIMIT)."""
    q, t, limit = task.system.crt.modulus, task.system.crt.residue, min(task.sieve_limit, DEFAULT_SIEVE_LIMIT)
    return [t + (lo + j) * q for j in definition(task, lo, hi, limit).tolist()]


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


def presieved(plan):
    """The plan with its tables built, as its first window longer than
    PRESIEVE_AFTER builds it."""
    if plan.good is None:
        plan._presieve()
    return plan


# The sieve limits of the zero-* grid cases, each sieve_segment windows of
# WINDOW candidates from k = 0, where |x + d| runs through the sieving
# primes. Such a window never pre-sieves, so the comb strikes every prime
# and no limit here is a tier boundary; the values name the cases.
WINDOW = 2048
TIER_LIMITS = (
    2, 10, 11, 63, 65,
    96, WINDOW // 8 + 1, 1000, DEFAULT_SIEVE_LIMIT,
)


def test_sieve_strikes_a_zero_value():
    # x = 7 gives the values 0 and 3: 0 is a multiple of every sieving
    # prime, but a zero value lies in its zone, |x + d| <= 50, which the
    # sieve keeps whole (x <= 57 here), so certification must reject 7
    task = ConstellationTask(TupleSystem(CrtClass(1, 0, ()), (-7, -4)), sieve_limit=50)
    kept = sieve_segment(task, 0, 100)
    assert kept == segment_definition(task, 0, 100)
    assert kept[:58] == list(range(58))
    # the system is inadmissible mod 2, so certification stands for the search
    assert not search._witness_ok(task, 7)


@pytest.mark.parametrize("limit", (1009, 3000))
def test_sieve_keeps_a_value_that_is_a_prime_above_the_plan_limit(limit):
    # sieve_segment sieves with the primes up to DEFAULT_SIEVE_LIMIT at any
    # limit above it, as a search does: x = r survives where its values -r
    # and r are primes above it, 401 or 1009, and so do x = 401 * 401,
    # 401 * 409 and 1009 * 1009, whose least prime factor is above it; a
    # search rejects those
    odd = CrtClass(2, 1, (2,))
    for r in (401, 1009):
        task = ConstellationTask(TupleSystem(odd, (-2 * r, 0)), sieve_limit=limit)
        assert sieve_segment(task, r // 2, r // 2 + 1) == [r]
        assert sieve_segment(task, r // 2 - 10, r // 2 + 10) == segment_definition(task, r // 2 - 10, r // 2 + 10)
    task = ConstellationTask(TupleSystem(odd, (0,)), sieve_limit=limit)
    for x in (401 * 401, 401 * 409, 1009 * 1009):
        assert sieve_segment(task, x // 2, x // 2 + 1) == [x]
        assert sieve_segment(task, x // 2 - 10, x // 2 + 10) == segment_definition(task, x // 2 - 10, x // 2 + 10)
        assert search_with_count(replace(task, start=x, budget=1)) == (None, 1)
    # 401 divides q = 802, so it is no sieving prime: x = 401 * 1013 survives
    task = ConstellationTask(TupleSystem(CrtClass(802, 401, (2, 401)), (0,)), sieve_limit=limit)
    k = 1013 // 2
    assert sieve_segment(task, k, k + 1) == segment_definition(task, k, k + 1) == [401 * 1013]


def test_a_held_prime_above_the_root_strikes_beside_a_factor_of_q():
    # x + 3 = 2m for m in [127, 136]: 2 divides q and is not held, so where
    # m is a prime above isqrt(x + 3) only m itself strikes. The system is
    # inadmissible (x + 3 is always even), which sieve_segment accepts. For
    # m in [97, 106] the x lie in the zone, x <= 250, which the sieve keeps
    # and certification rejects.
    task = ConstellationTask(TupleSystem(CrtClass(2, 1, (2,)), (0, 3)), sieve_limit=250)
    assert sieve_segment(task, 125, 135) == segment_definition(task, 125, 135) == []
    zone = sieve_segment(task, 95, 105)
    assert zone == segment_definition(task, 95, 105) == list(range(191, 210, 2))
    assert not any(search._witness_ok(task, x) for x in zone)


@pytest.mark.parametrize("lengths", ((7,), (3, 5), (2, 5, 7), (5, 7, 8)))
def test_periodic_and_matches_a_brute_force_and(lengths):
    # byte i of the pattern is the AND of row[i mod len(row)] over the rows
    rng = np.random.default_rng(sum(lengths))
    rows = [rng.integers(0, 256, n, dtype=np.uint8) for n in lengths]
    size = math.prod(lengths)
    # np.resize repeats a row to the pattern's length
    want = np.bitwise_and.reduce([np.resize(row, size) for row in rows])
    pattern = np.full(size + 3, 0x5A, np.uint8)
    assert search._periodic_and(rows, pattern[:size]).tolist() == want.tolist()
    assert pattern[size:].tolist() == [0x5A] * 3  # nothing written past its length


# ---------------------------------------------------------------------------
# the comb's rows, a window's residues and the tables of inverses
# ---------------------------------------------------------------------------

def test_comb_rows_are_their_definition():
    # for each prime p up to DEFAULT_SIEVE_LIMIT, every prime a plan holds, the _CHUNK
    # bits of the row of multiples of p from any bit s < p on are the
    # read-only row of bytes from at[p, s & 7] + (s >> 3): every shift
    at, rows = search._COMB_ROW_AT, search._COMB_ROWS
    assert not rows.flags.writeable
    primes = primes_up_to(DEFAULT_SIEVE_LIMIT)
    assert at.shape == (primes[-1] + 1, 8)
    chunk = search._CHUNK
    for p in primes:
        s = np.arange(p)
        got = np.unpackbits(rows[at[p, s & 7] + (s >> 3)].view(np.uint8).reshape(p, -1), axis=1, bitorder="little")
        assert np.array_equal(got, (np.arange(chunk) + s[:, None]) % p == 0), p


@pytest.mark.parametrize("n", (0, 1, (1 << 62) - 1, 1 << 62, 1 << 63, (1 << 64) + 14))
def test_residues_match_python_mod_on_both_sides_of_the_one_op_switch(n):
    moduli = np.array([2, 3, 61, 1_000_003, (1 << 31) - 1], np.int64)
    for v in (n, -n):
        assert search._residues(v, moduli).tolist() == [v % m for m in moduli.tolist()], v


def test_searches_over_many_limits_share_one_inverse_table():
    # the inverses of q are cached per q and table, not per prime range: 70
    # limits all cut theirs from the table up to SCREEN_LIMIT, so a second
    # pass over their searches inverts nothing again
    system = TupleSystem(CrtClass(6, 5, (2, 3)), (0, 2))
    tasks = [ConstellationTask(system, start=10**6, sieve_limit=limit) for limit in range(100, 170)]
    search._sieving_primes.cache_clear()
    first = [search_with_count(task) for task in tasks]
    misses = search._sieving_primes.cache_info().misses
    assert [search_with_count(task) for task in tasks] == first
    assert search._sieving_primes.cache_info().misses == misses


def test_a_search_at_a_large_limit_inverts_only_the_primes_it_screens_by(monkeypatch):
    # a plan's primes and its screen's are cut from one table up to
    # SCREEN_LIMIT: a step-9 search at sieve limit 10**5 that screens past
    # its first window inverts q mod each of them once, and no prime above
    moduli = []

    def counting_pow(base, exp, mod):
        moduli.append(mod)
        return pow(base, exp, mod)

    monkeypatch.setattr(search, "pow", counting_pow, raising=False)
    search._sieving_primes.cache_clear()
    task = replace(step_9_task(1 << 16), sieve_limit=10**5)
    assert search_with_count(task) == (None, 1 << 16)
    primes = [p for p in primes_up_to(SCREEN_LIMIT) if 210 % p]
    assert sorted(moduli) == primes
    held, neg_inv = search._sieving_primes(210, SCREEN_LIMIT)
    assert held.tolist() == primes and (210 * neg_inv % held == held - 1).all()


# ---------------------------------------------------------------------------
# the classes a plan sieves with, against brute force
# ---------------------------------------------------------------------------

# primes just below and just above 2**31, one far above, and an offset
# beyond int64
BELOW_2_31, ABOVE_2_31, M61 = (1 << 31) - 1, 2_147_483_659, (1 << 61) - 1
HUGE = (1 << 64) + 14
# 2 * 3 * ... * 53, above 2**64: too large to factor without its primes
PRIMORIAL_53 = math.prod(primes_up_to(53))

# (the factors q carries, or None; q; offsets): the sieve never factors q
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
    (None, ABOVE_2_31 * 2_147_483_693, (0, 2)),  # two primes above 2**31, q below 2**64
)


@pytest.mark.parametrize("limit", (2, 50, 1000))
@pytest.mark.parametrize("factors, q, offsets", CLASS_CASES)
def test_hit_classes_match_brute_force(factors, q, offsets, limit):
    rng = random.Random(q + limit)
    t = rng.randrange(q)
    task = ConstellationTask(TupleSystem(CrtClass(q, t, factors), offsets), sieve_limit=limit)
    primes, k0 = _hit_classes(task, 2, limit)
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


def offset_entries(task):
    """(p, k0) per sieving prime and offset, coinciding classes repeated."""
    q, t = task.system.crt.modulus, task.system.crt.residue
    return [
        (p, -(t + d) * pow(q, -1, p) % p)
        for p in primes_up_to(task.sieve_limit)
        if q % p
        for d in task.system.offsets
    ]


def comb_entries(plan):
    """The (p, k0) the comb strikes, per prime in its offsets' order."""
    return [(p, k) for p, ks in zip(plan.primes.tolist(), plan.classes.T.tolist()) for k in ks]


def plan_entries(plan):
    """The (p, k0) a plan strikes, in a list: its comb's entries, the
    classes its ANDed patterns strike, read back per member prime, and the
    classes its gathered primes' tables strike."""
    entries = comb_entries(plan)
    for pattern in plan.patterns:
        # one period of k, from the first of the 8 packed into the bytes
        alive = np.unpackbits(pattern, bitorder="little")[: len(pattern)]
        for p in plan.primes.tolist():
            # a pattern's period is the product of its primes; every one
            # of them leaves some class free, so a class is struck by p
            # exactly when the whole column is
            if len(pattern) % p == 0:
                struck = ~alive.reshape(-1, p).any(axis=0)
                entries += [(p, k) for k in np.flatnonzero(struck).tolist()]
    for p, at in zip(plan.gather_p.ravel().tolist(), plan.gather_at.ravel().tolist()):
        entries += [(p, k) for k in np.flatnonzero(~plan.good[at : at + p]).tolist()]
    return entries


@pytest.mark.parametrize("offsets", (
    {0, 2, 6, 12, 14},  # spread 14
    {0, 210, 19594},  # coincide mod 2, 3, 5, 7 and 97 * 101, spread 19,594
    {-9, 21, 51, 81},  # coincide mod 2, 3 and 5
    {0, HUGE, -HUGE},  # coincide mod every prime dividing HUGE
    {0, 6, 210, 19594},  # coincide mod 97 and 101
))
@pytest.mark.parametrize("budget", (2048, 1 << 16))
def test_plan_entries_are_the_classes_per_offset_until_tabled(offsets, budget, monkeypatch):
    rng = random.Random(len(offsets) + budget)
    for q_primes in ((), (2, 3), (11, 13)):
        task = admissible_task(rng, q_primes, offsets, 600)
        assert task is not None
        task = replace(task, budget=budget)
        # before its pre-sieve every prime up to DEFAULT_SIEVE_LIMIT strikes
        # its classes per offset, coinciding ones repeated, ascending in p
        plan = _SievePlan(task)
        task = replace(task, sieve_limit=DEFAULT_SIEVE_LIMIT)
        every = offset_entries(task)
        assert plan.good is None and not plan.patterns and not len(plan.gather_p)
        entries = plan_entries(plan)
        assert entries == every and set(entries) == naive_entries(task)
        # after it the comb has no entries, and each prime strikes its
        # distinct classes once: from patterns alone in a plan that gathers
        # nothing, as at a gather cost of 2**62, and so is narrow; from
        # patterns and gathered tables at a gather cost of 2, which is wide
        for cost, wide in ((1 << 62, False), (2, True)):
            with monkeypatch.context() as m:
                m.setattr(search, "GATHER_COST", cost)
                tabled = presieved(_SievePlan(task))
            assert tabled.wide == wide and tabled.classes.size == 0 and not comb_entries(tabled)
            assert bool(len(tabled.gather_p)) == wide
            entries = plan_entries(tabled)
            assert sorted(entries) == sorted(set(every)) and set(entries) == naive_entries(task)


# ---------------------------------------------------------------------------
# a plan at a sieve limit above DEFAULT_SIEVE_LIMIT
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gather_cost", (search.GATHER_COST, 2))
@pytest.mark.parametrize("limit", (600, 5000, 100_000))
def test_a_plan_at_any_limit_equals_one_built_at_the_cap(limit, gather_cost, monkeypatch):
    # whatever the limit above it, a plan holds the primes up to
    # DEFAULT_SIEVE_LIMIT from its construction, and before and after its
    # pre-sieve is the plan at that limit array for array. A plan is wide
    # exactly when it gathers, at any budget
    monkeypatch.setattr(search, "GATHER_COST", gather_cost)
    rng = random.Random(limit + gather_cost)
    for budget in (1 << 11, 1 << 16, 1 << 20):
        task = None
        while task is None:
            q_primes = rng.choice(((), (2, 3), (2, 3, 5, 7), (11, 13)))
            offsets = {rng.randrange(-300, 301) for _ in range(rng.randrange(1, 13))}
            task = admissible_task(rng, q_primes, offsets, limit)
        task = replace(task, budget=budget)
        q, t = task.system.crt.modulus, task.system.crt.residue
        plan = _SievePlan(task)
        capped = _SievePlan(replace(task, sieve_limit=DEFAULT_SIEVE_LIMIT))
        period = min(PATTERN_PERIOD, budget // 8)
        ps = np.array([p for p in primes_up_to(DEFAULT_SIEVE_LIMIT) if q % p])
        counts = np.array([len({(t + d) % p for d in task.system.offsets}) for p in ps.tolist()])
        groups, anded = search._groups(ps, counts, period)
        assert plan.wide == capped.wide == (anded < len(groups))
        assert plan.limit == capped.limit == DEFAULT_SIEVE_LIMIT and plan.primes.tolist() == ps.tolist()
        for _ in ("before", "after"):  # the pre-sieve
            for name in ("primes", "classes", "gather_p", "gather_at"):
                got, want = getattr(plan, name), getattr(capped, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), (budget, name)
            plan, capped = presieved(plan), presieved(capped)


# (E, z, x): with q = 1 and start 0 (so k = x), the offsets e - (x + z)
# for e in E put the first witness at x, whose values -(z - e) are primes
# above DEFAULT_SIEVE_LIMIT (no larger z up to x + z has every z - e
# prime). At sieve limit 10**5 sieve_segment and a search sieve with the
# primes up to DEFAULT_SIEVE_LIMIT and leave those to certification.
GROWN_ZONE_CASES = (
    ((0, 2, 6, 18, 20), 829, FIRST_WINDOW),  # the first k of the second window
    ((0, 2, 6, 18, 20), 829, 4000),
    ((0, 2, 6, 8, 32), 1879, 14335),  # the last of the third
    ((0, 2, 8, 26, 32), 7549, 20000),
)


@pytest.mark.parametrize("pattern, z, x", GROWN_ZONE_CASES)
def test_searches_from_zero_through_grown_primes_match_a_naive_scan(pattern, z, x):
    system = TupleSystem(CrtClass(1, 0, ()), tuple(e - x - z for e in pattern))
    witness = next(
        k for k in range(10**5)
        if all(abs(k + d) > 3 and sympy.isprime(abs(k + d)) for d in system.offsets)
    )
    depth = witness + 1
    assert witness == x and z - pattern[-1] > DEFAULT_SIEVE_LIMIT
    task = ConstellationTask(system, sieve_limit=100_000)
    assert sieve_segment(task, x, x + 1) == [x]
    # budgets ending before, at and after each window up to x's and the witness
    ends = window_ends(LARGEST)
    end = min(e for e in ends if e > x)
    for budget in sorted({e + i for e in ends[: ends.index(end) + 1] + [depth] for i in (-1, 0, 1)}):
        want = (witness, depth) if budget >= depth else (None, budget)
        assert search_with_count(replace(task, budget=budget)) == want, (pattern, x, budget)


# The construction's -11 system. 45395827 is its first witness after
# 15612787, 141824 candidates on, so a search from 45395827 - (depth - 1) * 210
# finds it at that depth, for any depth up to 141824.
MINUS_11 = TupleSystem(
    CrtClass(210, 127, (2, 3, 5, 7)), (-42294, -3594, -3576, -618, -614, -6, 0, 10)
)
MINUS_11_WITNESS, MINUS_11_GAP = 45395827, 141824


def sympy_scan(system, start, count):
    """(x, depth) of the first of `count` class members from start whose
    |x + d| are all primes above 3: small factors screened, sympy decides."""
    q, t = system.crt.modulus, system.crt.residue
    xs = t + (max(0, -((t - start) // q)) + np.arange(count)) * q
    keep = np.ones(count, bool)
    for d in system.offsets:
        v = np.abs(xs + d)
        keep &= v > 3
        for p in primes_up_to(50):
            keep &= (v % p != 0) | (v == p)
    for i in np.flatnonzero(keep).tolist():
        if all(sympy.isprime(abs(int(xs[i]) + d)) for d in system.offsets):
            return int(xs[i]), i + 1
    return None, count


@pytest.mark.parametrize("depth", (20000, 30720, 30721, 50000, 63488, 63489, MINUS_11_GAP))
def test_witnesses_around_the_first_presieved_window_match_a_sympy_scan(depth, monkeypatch):
    # windows of up to 2**16 end at 30720 and 63488 candidates; the window
    # between them is the first longer than PRESIEVE_AFTER, which builds
    # the plan's pre-sieve: witnesses before it, in it and after it
    ends = window_ends(LARGEST)
    assert ends[3:5] == [30720, 63488] and ends[4] - ends[3] > PRESIEVE_AFTER >= ends[3] - ends[2]
    windows = []
    sieve = _SievePlan.window

    def window(plan, lo, hi):
        got = sieve(plan, lo, hi)
        windows.append((hi - lo, plan.good is not None))
        return got

    monkeypatch.setattr(_SievePlan, "window", window)
    start = MINUS_11_WITNESS - (depth - 1) * 210
    assert sympy_scan(MINUS_11, start, depth) == (MINUS_11_WITNESS, depth)
    task = ConstellationTask(MINUS_11, start=start)
    windows_up_to(monkeypatch, LARGEST)
    assert search_with_count(task) == (MINUS_11_WITNESS, depth)
    assert [presieved for _, presieved in windows] == [n > PRESIEVE_AFTER for n, _ in windows]
    assert windows[-1][1] == (depth > ends[3])


@pytest.mark.parametrize("budget", (1 << 15, 1 << 16))
def test_plans_at_budgets_below_their_tables_bytes(budget, sieved):
    # at budgets below the bytes of a plan's tables, 8 per unit of p
    # (110,960 for step 9), a plan that gathers is wide all the same: its
    # search pre-sieves at its second window, one period of its patterns,
    # which keeps no entry for the comb, reads words and gathers. The -11
    # plan gathers nothing: it ANDs every group, every prime's among them,
    # and reads words. Each search keeps its witness and depth.
    for task, want in (
        (step_9_task(budget), (None, budget)),
        (quintuplet_task(20000, budget), (DEEP_WITNESS, 20000)),
    ):
        start = len(sieved)
        assert search_with_count(task) == want
        windows = sieved[start:]
        plan = windows[0][0]
        assert [hi - lo for _, lo, hi, *_ in windows] == [FIRST_WINDOW, budget - FIRST_WINDOW]
        assert plan.wide and len(plan.gather_p) and not plan.classes.size
        if want[0]:  # the quintuplet's second window keeps survivors
            assert "word-scan" in windows[1][-1] and windows[1][-1] & {"gathered", "two-stage"}
    task = ConstellationTask(MINUS_11, start=MINUS_11_WITNESS - (30720 - 1) * 210, budget=budget)
    plan = presieved(_SievePlan(task))
    groups, anded = plan._grouping
    assert not plan.wide and anded == len(groups) and not len(plan.gather_p) and not plan.classes.size
    lo, hi = 10**9 + 7, 10**9 + 8 + PRESIEVE_AFTER
    assert np.array_equal(plan.window(lo, hi), definition(task, lo, hi, plan.limit))
    assert sieved[-1][-1] == {"anded", "word-scan"}
    assert search_with_count(task) == (MINUS_11_WITNESS, 30720)


def test_a_wide_spread_search_holds_only_the_primes_up_to_the_cap(monkeypatch):
    # the quintuplet 55331 with a far offset, 55331 - 70914 = -15583 prime.
    # At sieve limit 10**5 the offsets' spread of 70,926 does not bound the
    # plan: every window sieves with the primes up to DEFAULT_SIEVE_LIMIT.
    largest = []
    sieve = _SievePlan.window

    def window(plan, lo, hi):
        largest.append(plan.primes[-1])
        return sieve(plan, lo, hi)

    monkeypatch.setattr(_SievePlan, "window", window)
    system = TupleSystem(CrtClass(1, 0, ()), (-70914, 0, 2, 6, 8, 12))
    assert sympy_scan(system, 0, 10**5) == (PREVIOUS_WITNESS, PREVIOUS_WITNESS + 1)
    task = ConstellationTask(system, sieve_limit=100_000)
    assert search_with_count(task) == (PREVIOUS_WITNESS, PREVIOUS_WITNESS + 1)
    assert largest and set(largest) == {primes_up_to(DEFAULT_SIEVE_LIMIT)[-1]}


# ---------------------------------------------------------------------------
# the survivor screen
# ---------------------------------------------------------------------------

def screen_oracle(task, lo, js):
    """The j in js whose x = t + (lo + j)*q has no x + d that a prime p in
    (min(sieve_limit, DEFAULT_SIEVE_LIMIT), SCREEN_LIMIT], p not dividing
    q, divides."""
    q, t = task.system.crt.modulus, task.system.crt.residue
    limit = min(task.sieve_limit, DEFAULT_SIEVE_LIMIT)
    primes = [p for p in primes_up_to(SCREEN_LIMIT) if p > limit and q % p]
    return [
        j for j in js
        if all((t + (lo + j) * q + d) % p for d in task.system.offsets for p in primes)
    ]


def test_screened_survivors_are_those_no_screening_prime_divides():
    # random systems and limits, windows from the screen's start, from
    # random k and from k above 2**62; before the start nothing is dropped
    rng = random.Random(1024)
    dropped = systems = 0
    while systems < 16:
        q_primes = rng.choice(((), (2,), (2, 3), (2, 3, 5), (5, 7)))
        offsets = {2 * rng.randrange(-450, 451) for _ in range(rng.randrange(2, 7))}
        task = admissible_task(rng, q_primes, offsets, rng.choice((30, 100, 400, 1000)))
        if task is None or is_admissible(task.system) is not None:
            continue
        systems += 1
        q, t = task.system.crt.modulus, task.system.crt.residue
        plan = _SievePlan(task)
        start = plan._screen[0]
        # the first k from which every |x + d| exceeds SCREEN_LIMIT
        beyond = [all(abs(t + k * q + d) > SCREEN_LIMIT for d in offsets) for k in range(2100)]
        assert start == beyond.index(True) and all(beyond[start:])
        for lo in (start, rng.randrange(10**9), rng.randrange(1 << 62, 1 << 64)):
            lo = max(lo, start)
            js = plan.window(lo, lo + WINDOW)
            got = plan.screen(js, lo).tolist()
            assert got == screen_oracle(task, lo, js.tolist()), (task, lo)
            dropped += len(js) - len(got)
        if start:
            js = plan.window(start - 1, start + 99)
            assert plan.screen(js, start - 1).tolist() == js.tolist()
    assert dropped > 500, dropped


@pytest.mark.parametrize("value", (401, 1009, -1009))
def test_a_witness_with_a_value_the_screen_would_divide_matches_a_naive_scan(value):
    # the quintuplet 144161 with one more offset, which takes it to a prime
    # in (sieve_limit, SCREEN_LIMIT]. Its window, the second, starts before
    # the screen's start, where a screening prime can be a value itself.
    system = TupleSystem(CrtClass(1, 0, ()), (value - DEEP_WITNESS, 0, 2, 6, 8, 12))
    task = ConstellationTask(system, start=DEEP_WITNESS - 4999, budget=10**4)
    assert DEFAULT_SIEVE_LIMIT < abs(value) <= SCREEN_LIMIT
    assert naive_witness(task) == DEEP_WITNESS
    assert search_with_count(task) == (DEEP_WITNESS, 5000)


# The construction's step-7 system (target +13): 11 offsets in the class
# 67 mod 210; its witness is 7,861,250 candidates deep from x = 4264959.
STEP_7 = TupleSystem(CrtClass(210, 67, (2, 3, 5, 7)), (
    -2132480, -2132478, -42318, -42294, -3600, -3594, -638, -618, -24, -14, -6,
))


def test_the_step_7_search_certifies_few_survivors(monkeypatch):
    # the sieve to 400 leaves 152 survivors up to the step-7 witness; the
    # screen leaves 36 of them to the primality tests. Each search of the
    # run to coverage 8 certifies exactly so many survivors; step 3's
    # certifies its zone's candidates, 205 and 415, before its witness 625
    certified = []
    witness_ok, searched = search._witness_ok, construction.search_with_count

    def counted(task, x):
        certified[-1] += 1
        return witness_ok(task, x)

    def search_in_run(task):
        certified.append(0)
        return searched(task)

    monkeypatch.setattr(search, "_witness_ok", counted)
    monkeypatch.setattr(construction, "search_with_count", search_in_run)
    res = run(initial_state(Config()), 8)
    assert [step.witness for step in res.steps] == [625, 3587, 42305, 2132467, 1655127457, 68092385285]
    assert certified == [3, 1, 1, 3, 36, 712]


def test_a_search_that_strikes_nothing_screens_in_bounded_memory():
    # at sieve limit 2 no prime sieves the step-7 system, as 2 divides
    # q = 210, so every candidate past the first window reaches the screen,
    # which reads them in slices: its (primes x survivors) arrays stay
    # small, and the peak of traced memory over 2**16 candidates with them
    task = ConstellationTask(STEP_7, start=4264959, budget=1 << 16, sieve_limit=2)
    tracemalloc.start()
    try:
        got = search_with_count(task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (None, 65536)
    assert peak < 32 << 20


def test_comb_windows_hold_one_gather_at_a_time():
    # the step-9 plan's comb windows of 6, 7 and 8 chunks take more than one
    # gather of at most 1 MiB; each is dropped before the next, so the
    # traced peak of a window stays near one gather, once the shared buffer
    # has grown to the longest
    plan = _SievePlan(step_9_task())
    plan.window(STEP_9_K, STEP_9_K + PRESIEVE_AFTER)
    for n in (12_288, 14_336, PRESIEVE_AFTER):
        tracemalloc.start()
        try:
            plan.window(STEP_9_K, STEP_9_K + n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (1 << 20), n


@pytest.mark.parametrize("limit", (1019, 1021, 1022, 1023))
def test_a_screen_is_built_only_with_a_prime_to_screen_by(limit, monkeypatch):
    # 1,021 is the largest prime up to SCREEN_LIMIT. A plan sieves with the
    # primes up to DEFAULT_SIEVE_LIMIT at any limit above it, so it always
    # has primes to screen by, those in (DEFAULT_SIEVE_LIMIT, SCREEN_LIMIT],
    # also at limits from 1,021 on
    plans = []

    class Recorded(_SievePlan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr(search, "_SievePlan", Recorded)
    task = ConstellationTask(STEP_7, start=4264959, sieve_limit=limit)
    assert search_with_count(task) == (1655127457, 7861250)
    (plan,) = plans
    # built by the search, not by this read
    screen = vars(plan)["_screen"]
    assert screen[1].ravel().tolist() == [p for p in primes_up_to(SCREEN_LIMIT) if p > DEFAULT_SIEVE_LIMIT]


# ---------------------------------------------------------------------------
# every sieve tier against its definition: one grid of windows
# ---------------------------------------------------------------------------

# the densest prime 12-tuple, whose zone starts at k = 0; 17 offsets, whose
# comb windows of 5 to 7 chunks take more than one gather; the quintuplet's
TUPLE_12 = {0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42}
TUPLE_17 = TUPLE_12 | {48, 50, 56, 62, 68}
TUPLE_5 = {0, 2, 6, 8, 12}


# a word of mixed bits
STALE = 0xA5A5A5A5A5A5A5A5


class Spy:
    """Stands in for a table and keeps the shape of each read from it."""

    def __init__(self, table):
        self.table, self.reads = table, []

    def __getitem__(self, index):
        self.reads.append((got := self.table[index]).shape)
        return got


@pytest.fixture
def sieved(monkeypatch):
    """(plan, lo, hi, survivors, tiers) of each window sieved from now on,
    checked for what every window keeps. Its tiers: comb, anded or
    word-scan where that struck or scanned it and it kept survivors;
    gathered, or two-stage, where a gather read survivors in its stage, or
    in both."""
    seen, gathers, comb = [], [], Spy(search._COMB_ROWS)
    sift, window = search._sift, _SievePlan.window

    def spied_sift(js, r, primes, at, good, first=0):
        if not isinstance(good, Spy):  # not a slice of a gather spied on already
            gathers.append((good := Spy(good), first))
        return sift(js, r, primes, at, good, first)

    def checked(plan, lo, hi):
        comb.reads.clear()
        gathers.clear()
        # stale words of mixed bits: a window that leaves any bit of the
        # buffer unwritten, ANDs into it unfilled, or writes it from the
        # comb, fails a check below
        search._words.fill(STALE)
        js, off, n = window(plan, lo, hi), lo % 8, hi - lo
        long = n > PRESIEVE_AFTER
        tier = "word-scan" if long else "comb" if plan.classes.size else None
        tiers = {tier, "anded" if plan.patterns else None} - {None} if len(js) else set()
        for spy, first in gathers:
            stages = zip(spy.reads[::2], spy.reads[1::2]) if first else zip(spy.reads)
            if any(all(shape[1] for shape in stage) for stage in stages):
                tiers.add("two-stage" if first else "gathered")
        # the comb gathers every entry once per chunk, at most 1 MiB at a time
        chunks = len(range(-off, n, search._CHUNK))
        assert sum(rows for rows, _ in comb.reads) == (plan.classes.size if tier == "comb" else 0), (lo, hi)
        assert all(c == chunks and rows * c * search._CHUNK <= 8 << 20 for rows, c in comb.reads), (lo, hi)
        if tier == "comb":
            # a comb window's bits start from its struck row: it leaves the buffer alone
            assert (search._words == STALE).all(), (lo, hi)
        else:
            # the bits of the shared buffer outside [lo, hi) are left clear
            words = search._words[: -(-(off + n) // 64)]
            assert int(words[0]) & ((1 << off) - 1) == 0 == int(words[-1]) >> ((off + n - 1) % 64 + 1), (lo, hi)
        seen.append((plan, lo, hi, js, tiers))
        return js

    monkeypatch.setattr(search, "_COMB_ROWS", comb)
    monkeypatch.setattr(search, "_sift", spied_sift)
    monkeypatch.setattr(_SievePlan, "window", checked)
    return seen


@dataclass(frozen=True)
class Case:
    """The plan of the task at a budget and a gather cost, pre-sieved or
    not; what it sieves (check); and the tiers its windows reach (sieved)."""

    id: str
    task: ConstellationTask
    tiers: str
    windows: list = ()
    segments: list = ()
    budget: int = 1 << 16
    cost: int = GATHER_COST
    presieved: bool = False
    searched: bool = False


def check(case, sieved):
    """The tiers reached by a case's windows (lo, n), sieved in order, each
    against the definition at the plan's limit or, past WIDE, its pieces;
    by sieve_segment's (lo, n); and, if searched, by a search of the task
    over the budget from its start."""
    task = replace(case.task, budget=case.budget)
    plan = _SievePlan(task)
    if case.presieved:
        plan._presieve()
    a = b = 0
    for lo, n in case.windows:
        got = plan.window(lo, lo + n)
        if n > WIDE:
            pieces = [plan.window(k, min(k + WIDE, lo + n)) + (k - lo) for k in range(lo, lo + n, WIDE)]
            assert len(got) and np.array_equal(got, np.concatenate(pieces)), (lo, n)
            continue
        if not a <= lo <= lo + n <= b:  # one definition serves the windows inside it
            a, b = lo, lo + max(n + 1024, 4096)
            want = definition(task, a, b, plan.limit)
        assert np.array_equal(got, want[(want >= lo - a) & (want < lo - a + n)] - (lo - a)), (lo, n)
    for lo, n in case.segments:
        assert sieve_segment(task, lo, lo + n) == segment_definition(task, lo, lo + n), (lo, n)
    start = len(sieved)
    if case.searched:
        search_with_count(task)
    for searching, lo, hi, js, _ in sieved[start:]:
        assert np.array_equal(js, definition(task, lo, hi, searching.limit)), (lo, hi)
    return set().union(*(tiers for *_, tiers in sieved))


def drawn(rng, q_choices, spread, sizes, limit):
    """A task of offsets in [-spread, spread], range(*sizes) draws, over q
    from q_choices, drawn again until admissible_task finds a t."""
    while True:
        q_primes = rng.choice(q_choices)
        offsets = {rng.randrange(-spread, spread + 1) for _ in range(rng.randrange(*sizes))}
        if task := admissible_task(rng, q_primes, offsets, limit):
            return task


def segment_case(name, task, *segments):
    """A case of short segments: they reach the comb if the plan has primes
    and a segment keeps survivors."""
    limit = min(task.sieve_limit, DEFAULT_SIEVE_LIMIT)
    kept = any(len(definition(task, lo, lo + n, limit)) for lo, n in segments)
    return Case(name, task, "comb" * bool(kept and sieving_primes(task.system.crt.modulus, limit)[0]), segments=segments)


def longest_period(task, budget, cost):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "GATHER_COST", cost)
        return max(map(len, presieved(_SievePlan(replace(task, budget=budget))).patterns))


def cases():
    """The grid: the windows of the per-mechanism tests it folds, drawn as
    they drew them, and windows that run every tier with survivors from
    k = 0 in a zone, near 2**63 and past 2**64."""
    # segments from k = 0, where |x + d| runs through the sieving primes (in
    # zone-*, t is any class mod q); split anywhere; above 2**63, by q = 53#
    # or by offsets, near x + d = -p; and a long one, which tables every prime
    for limit in TIER_LIMITS:
        rng = random.Random(limit)
        for i in range(5):
            task = drawn(rng, ((), (2,), (2, 3), (2, 3, 5), (3,), (5, 7)), 80, (1, 6), limit)
            yield segment_case(f"zero-{limit}-{i}", task, (0, WINDOW))
    rng = random.Random(4242)
    for i in range(150):
        q = rng.choice((1, 2, 3, 6, 10, 30))
        offsets = tuple(sorted(rng.sample(range(-40, 41), rng.randrange(1, 5))))
        limit = rng.choice((5, 30, 100, 250))
        crt = CrtClass(q, rng.randrange(q), tuple(p for p in (2, 3, 5) if q % p == 0))
        task = ConstellationTask(TupleSystem(crt, offsets), sieve_limit=limit)
        yield segment_case(f"zone-{i}", task, (0, (limit + 40) // q + 2))
    rng = random.Random(2718)
    for limit in (50, 192, 4296):
        task = admissible_task(rng, (2, 3), {0, 2, 6, 12, 14}, limit)
        cuts = [0, *sorted(rng.sample(range(1, 3000), 7)), 3000]
        yield segment_case(f"split-{limit}", task, (0, 3000), *((a, b - a) for a, b in zip(cuts, cuts[1:])))
    for limit in (13, 192, 4296):
        rng = random.Random(limit + 1)
        task = admissible_task(rng, tuple(primes_up_to(53)), {0, 2, 6, 8}, limit)
        yield segment_case(f"big-q-{limit}", task, (rng.randrange(1 << 70), 300))
        task = admissible_task(rng, (2, 3), {0, HUGE, -HUGE}, limit)
        lo = max(0, (HUGE - limit - task.system.crt.residue) // 6 - 50)
        yield segment_case(f"huge-offsets-{limit}", task, (lo, 2 * limit // 6 + 100))
    for limit in (DEFAULT_SIEVE_LIMIT, 1000):
        rng = random.Random(limit + 2)
        task = admissible_task(rng, (2, 3), {0, 2, 6}, limit)
        yield Case(f"long-{limit}", task, "anded word-scan", segments=[(rng.randrange(10**6, 10**7), 1 << 15)])
    # long segments of the quintuplet at a budget of 2**11, whose pattern
    # period, 256, leaves each prime above it a group of its own: ANDed, and
    # at a gather cost of 2 gathered
    for cost, tiers in ((GATHER_COST, "anded word-scan"), (2, "anded two-stage word-scan")):
        rng = random.Random(cost)
        task = admissible_task(rng, (2, 3), TUPLE_5, DEFAULT_SIEVE_LIMIT)
        segments = [(rng.randrange(10**9), 1 << 15), ((1 << 63) + rng.randrange(10**9), PRESIEVE_AFTER + 1)]
        yield Case(f"above-period-{cost}", task, tiers, segments=segments, budget=1 << 11, cost=cost)
    # short windows inside a pattern's period and across the end of one; and
    # on both sides of the pre-sieve from k = 0, in the zones of the plan's
    # limit and the task's, and at random, with sieve_segment on them and on
    # the pre-sieving window's pieces (a system that is not admissible, whose
    # windows would keep no survivor, or a plan that would be wide is redrawn)
    rng = random.Random(1618)
    for limit in (192, 1000):
        task = admissible_task(rng, (2, 3), {0, 2, 6, 12, 14}, limit)
        period = longest_period(task, 1 << 16, GATHER_COST)
        windows = [(rng.randrange(3 * period), rng.choice((1, 37, 1000))) for _ in range(6)]
        yield Case(f"long-plan-{limit}", task, "anded", windows + [(2 * period - 10, 10), (2 * period - 9, 10)], presieved=True)
    for limit in (100, 1000, 10_000, 100_000):
        rng = random.Random(limit + 5)
        for i in range(3):
            task = None
            while task is None or is_admissible(task.system) is not None or _SievePlan(replace(task, budget=1 << 16)).wide:
                task = drawn(rng, ((), (2,), (2, 3), (2, 3, 5), (2, 3, 5, 7)), 60, (2, 8), limit)
            q = task.system.crt.modulus
            far = [rng.randrange(10**9), (1 << 63) + rng.randrange(10**9)]
            short = [(lo, 40) for lo in [0, min(limit, DEFAULT_SIEVE_LIMIT) // (2 * q), limit // (2 * q)] + far]
            lo, n = rng.choice(far), PRESIEVE_AFTER + 1
            pieces = [(a, min(4096, lo + n - a)) for a in range(lo, lo + n, 4096)]
            yield Case(f"presieve-{limit}-{i}", task, "anded comb word-scan", short + [(lo, n)] + short, short + pieces)
    # every lo mod 64 and lengths up to 130, across the end of a pattern's
    # bytes, from k = 0 and above 2**63, and a long window there, at limits
    # 31 and 1000: a gather cost of 2 gathers all groups but the densest
    for (limit, cost, budget), tiers in zip(product((31, 1000), (GATHER_COST, 2), (1 << 16, WIDE)), (
        "anded word-scan", "anded word-scan", "anded gathered two-stage word-scan", "anded gathered two-stage word-scan",
    ) * 2):
        task = ConstellationTask(TupleSystem(CrtClass(1, 0, ()), (0,)), sieve_limit=limit)
        crossing = 40 * longest_period(task, budget, cost) - 70
        windows = [(crossing + r, n) for r in range(64) for n in range(1 + r % 4, 131, 4)]
        windows += [(b + r, n) for b in (0, (1 << 63) + 4321) for r in range(64) for n in (1, 8, 9, 64, 130)]
        windows += [((1 << 63) + 4321, (1 << 15) - 1)]
        yield Case(f"bit-offsets-{limit}-{cost}-{budget}", task, tiers, windows, budget=budget, cost=cost, presieved=True)
    # comb windows of up to 7 chunks at every lo mod 64, the offsets of each
    # system coinciding mod a prime of the comb (2 and 3; 11 and 13); and the
    # quintuplet's plan past its pre-sieve, which leaves the comb nothing
    lengths = (FIRST_WINDOW - 1, FIRST_WINDOW, FIRST_WINDOW + 1, 2 * FIRST_WINDOW + 7)
    lengths += tuple(c * search._CHUNK - 3 for c in (3, 5, 7))
    for primes_of_q, offsets in (((5, 7), TUPLE_5), ((2, 3, 5, 7), TUPLE_12), ((2, 3, 5, 7), TUPLE_17)):
        task = admissible_task(random.Random(len(offsets)), primes_of_q, offsets, 600 if offsets == TUPLE_17 else 200)
        for presieve in (False, True) if offsets == TUPLE_5 else (False,):
            windows = [(b + r, n) for b in (0, 10**9 + 321, (1 << 63) + 4321) for r in range(0, 64, 1 + 8 * presieve) for n in lengths]
            yield Case(f"comb-{len(offsets)}" + "-presieved" * presieve, task, "anded" if presieve else "comb", windows, budget=WIDE, presieved=presieve)
    # comb windows of more than one gather keeping survivors: 8 offsets that
    # coincide mod every prime up to 23, so 624 entries
    # (test_comb_batches_take_more_than_one_gather)
    task = ConstellationTask(TupleSystem(CrtClass(1, 0, ()), tuple(i * math.prod(primes_up_to(23)) for i in range(8))))
    windows = [(lo + r, n) for lo in (10**9, (1 << 63) + 4321) for r in (0, 5) for n in (14_000, PRESIEVE_AFTER)]
    yield Case("comb-batches", task, "comb", windows)
    # gathering windows, short and long, of wide plans at a budget of 2**16,
    # below the bytes of their tables: 12-tuples keeping few survivors, and
    # quintuplets hundreds, gathered in two stages at a gather cost of 2; a
    # wide 12-tuple plan over its zone; and 12-tuple plans gathering in two
    # stages at a gather cost of 2
    for n, lengths, long in ((700, (700, 350), ""), (1 << 14, (1 << 14, 1 << 15), " word-scan")):
        rng = random.Random(n)
        for offsets, cost, tiers in ((TUPLE_12, GATHER_COST, "anded gathered"), (TUPLE_5, 2, "anded two-stage")):
            task = admissible_task(rng, (2, 3, 5, 7), offsets, 1000)
            los = (rng.randrange(10**9), (1 << 63) + rng.randrange(10**9), 0, (1 << 64) + 5)
            windows = [(lo, m) for lo in los for m in lengths]
            yield Case(f"every-tier-{len(offsets)}-{n}", task, tiers + long, windows, cost=cost, presieved=True)
    task = admissible_task(random.Random(7), (2, 3, 5, 7), TUPLE_12, DEFAULT_SIEVE_LIMIT)
    yield Case("tuple-12-zone", task, "anded word-scan gathered", [(0, 1 << 15), (1 << 15, 1 << 15)], budget=WIDE, presieved=True)
    task = admissible_task(random.Random(3), (2, 3, 5, 7), TUPLE_12, DEFAULT_SIEVE_LIMIT)
    windows = [(lo, n) for lo in ((1 << 63) + 12345, 0, (1 << 64) + 12345) for n in (1 << 14, 1 << 15)]
    for budget in (1 << 16, WIDE):
        yield Case(f"two-stage-{budget}", task, "anded word-scan two-stage", windows, budget=budget, cost=2, presieved=True)
    # step 9 at budgets of WIDE and 2**15, wide where it gathers and not
    # with every group ANDed; fresh wide plans whose first long window is
    # 8 * WIDE, or WIDE + 13 after short ones, and a search, whose second
    # window, one period of its patterns, gathers in two stages; the
    # quintuplet's windows and its search, on the plan of one task
    task, k = step_9_task(), STEP_9_K
    for budget in (WIDE, 1 << 15):
        rng = random.Random(budget)
        windows = [(k, WIDE), (k, FIRST_WINDOW), (k + rng.randrange(1 << 20), 1 << 15), ((1 << 64) + rng.randrange(1 << 20), 1 << 15)]
        for cost, tiers in ((GATHER_COST, "anded gathered two-stage word-scan"), (1 << 62, "anded word-scan")):
            yield Case(f"step-9-{budget}" + "-all-anded" * (cost > GATHER_COST), task, tiers, windows, budget=budget, cost=cost, presieved=True)
    for name, windows, budget in (
        ("step-9-8w", [(k + 12345, 8 * WIDE)], WIDE),
        ("step-9-8w-past-2^64", [((1 << 64) + 3, 8 * WIDE)], WIDE),
        ("step-9-first-long", [(k + 4, WIDE + 13)], WIDE),
        ("step-9-interleaved", [(k + 8, 1000), (k + 3, 1), (k + 3, 8 * WIDE), (k + 8, 1000), (k + 4, WIDE + 13), (k + 3, 1)], 1 << 18),
    ):
        yield Case(name, task, "anded two-stage word-scan", windows, budget=budget, searched=name == "step-9-interleaved")
    windows = [(7, FIRST_WINDOW), (100_005, 100), (1001, 1 << 16), (7, FIRST_WINDOW), (100_005, 100)]
    yield Case("quintuplet", quintuplet_task(40_000), "anded comb gathered word-scan", windows, searched=True)


GRID = list(cases())


@pytest.mark.parametrize("case", GRID, ids=[case.id for case in GRID])
def test_windows_match_the_definition(case, sieved, monkeypatch):
    monkeypatch.setattr(search, "GATHER_COST", case.cost)
    assert check(case, sieved) == set(case.tiers.split())


def test_comb_batches_take_more_than_one_gather():
    (batches,) = [case for case in GRID if case.id == "comb-batches"]
    plan = _SievePlan(batches.task)
    for lo, n in batches.windows:
        per_gather = (1 << 20) // (search._CHUNK // 8 * len(range(-(lo % 8), n, search._CHUNK)))
        assert n <= PRESIEVE_AFTER and plan.classes.size > per_gather, (lo, n)


@pytest.mark.parametrize("seed", range(48))
def test_random_windows_match_the_definition(seed, sieved, monkeypatch):
    # one draw over the grid's axes, its windows from k = 0, at random, near
    # 2**63 and past 2**64, and segments on some of them
    rng = random.Random(seed)
    limit = rng.choice((2, 31, 50, DEFAULT_SIEVE_LIMIT, DEFAULT_SIEVE_LIMIT + 1, 1000, 10**5))
    task = drawn(rng, ((), (2,), (2, 3), (2, 3, 5, 7), (5, 7), (11, 13)), 60, (1, 17), limit)
    monkeypatch.setattr(search, "GATHER_COST", rng.choice((GATHER_COST, 2, 1 << 62)))
    lengths = (1, 37, 700, FIRST_WINDOW, PRESIEVE_AFTER - 1, PRESIEVE_AFTER, PRESIEVE_AFTER + 1, 1 << 15)
    los = (0, rng.randrange(10**9), (1 << 63) - rng.randrange(10**6), (1 << 64) + rng.randrange(10**9))
    windows = [(lo + rng.randrange(64), rng.choice(lengths)) for lo in los for _ in range(2)]
    budget, presieve = rng.choice((1 << 11, 1 << 16, WIDE)), rng.random() < 0.5
    check(Case(f"fuzz-{seed}", task, "", windows, [(lo, min(n, 700)) for lo, n in windows[::3]], budget, presieved=presieve), sieved)


NARROW = ("long-plan-1000", f"above-period-{GATHER_COST}")


@pytest.mark.parametrize("name", ("step-9", "every-tier-12-700", "two-stage-1048576", "above-period-2") + NARROW)
def test_the_tabled_tier_matches_its_definition(name, monkeypatch):
    # the step-9 plan, wide, and grid plans, wide but for NARROW, after
    # _presieve: each ANDed pattern is the AND of its members' packed
    # 8-period tables, each tiled to its length; the ANDed and gathered
    # primes are every sieving prime, and none is both; the comb has no
    # entries left; a plan gathers exactly when it is wide; and the first
    # stage is _first_stage of the gathered primes' kept shares
    case = next((case for case in GRID if case.id == name), Case(name, step_9_task(), "", budget=WIDE))
    monkeypatch.setattr(search, "GATHER_COST", case.cost)
    plan = presieved(_SievePlan(replace(case.task, budget=case.budget)))
    q, t, offsets = plan.q, plan.t, plan.offsets

    def packed(p):
        table = [all((t + k * q + d) % p for d in offsets) for k in range(8 * p)]
        return np.packbits(table, bitorder="little")

    groups, anded = plan._grouping
    primes = plan.primes.tolist()
    members = [[primes[i] for i in group] for _, group in groups[:anded]]
    assert len(plan.patterns) == len(members) > 0
    for pattern, ps in zip(plan.patterns, members):
        assert math.prod(ps) == len(pattern), ps
        want = np.bitwise_and.reduce([np.tile(packed(p), len(pattern) // p) for p in ps])
        assert np.array_equal(pattern, want), ps
    anded_p, gathered = [p for ps in members for p in ps], plan.gather_p[:, 0].tolist()
    assert sorted(anded_p + gathered) == primes and not set(anded_p) & set(gathered)
    assert plan.classes.size == 0
    assert plan.wide == bool(gathered) == (name not in NARROW)
    keep = [1 - len({(t + d) % p for d in offsets}) / p for p in gathered]
    assert plan.first_stage == search._first_stage(np.array(keep))
