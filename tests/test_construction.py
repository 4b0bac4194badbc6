"""Tests for the step-by-step difference-set construction engine."""

import math
import os
import random
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from test_search import drawn, sieved, window_lengths  # noqa: F401 (sieved is a fixture)

import sdpc
from sdpc.admissible import TupleSystem, is_admissible
from sdpc.construction import (
    ALL_CERTIFIED,
    MAX_P_LIMIT,
    Config,
    apply_step,
    check_bound,
    compute_K,
    coverage_prefix,
    difference_table,
    extend_pairs,
    initial_state,
    plan_step,
    run,
    signed_primes,
    verify,
)
from sdpc.pairs import MINUS, PLUS
from sdpc import construction, search
from sdpc.search import DEFAULT_SIEVE_LIMIT, ConstellationTask, search_with_count, sieve_segment


# ---------------------------------------------------------------------------
# target sequence and the room inequality
# ---------------------------------------------------------------------------

def test_signed_prime_sequence():
    want = [5, -5, 7, -7, 11, -11, 13, -13, 17, -17, 19, -19, 23, -23]
    assert [signed_primes(n) for n in range(1, 15)] == want
    with pytest.raises(ValueError):
        signed_primes(0)


def test_signed_primes_deep_index_consistency():
    # positive entry n pairs with its negation at n+1
    for n in (101, 999, 4001):
        assert signed_primes(n + 1) == -signed_primes(n)
        assert signed_primes(n) > 0


def test_check_bound_fixed_points():
    assert check_bound(2, 5, 0) is False
    assert check_bound(100, 1229, 2) is True
    assert check_bound(0, 101, 0) is True


def test_check_bound_matches_direct_formula():
    rng = random.Random(411)
    for _ in range(300):
        n = rng.randrange(0, 300)
        r = rng.randrange(2, 10_000)
        reserve = rng.randrange(0, 3)
        want = 2 * n + reserve < (r - 1) / 2 - math.log(r) / math.log(4 / 3)
        assert check_bound(n, r, reserve) is want
    with pytest.raises(ValueError):
        check_bound(3, 1)


def test_compute_K_frozen_values():
    assert compute_K(0) == 18027
    assert compute_K(2) == 18135
    assert compute_K(2) >= compute_K(0)
    # reproducible: same scan, same answer
    assert compute_K(0) == compute_K(0)


def test_compute_K_beyond_threshold_is_safe():
    # K = 2r* + 1 for the last failing target r*, so every index whose
    # target clears K/2 must satisfy the bound; the edge index must not
    for reserve in (0, 2):
        K = compute_K(reserve)
        edge_seen = False
        for n in range(1, 6000):
            r = abs(signed_primes(n))
            if 2 * r >= K:
                assert check_bound(n, r, reserve)
            elif 2 * r + 1 == K and not check_bound(n, r, reserve):
                edge_seen = True
        assert edge_seen


def test_compute_K_scan_limit_too_small():
    with pytest.raises(ValueError, match="scan_limit"):
        compute_K(0, scan_limit=10)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    assert [f.name for f in fields(Config)] == ["p_limit", "budget"]
    with pytest.raises(ValueError):
        Config(p_limit=4)
    assert Config(p_limit=MAX_P_LIMIT).p_limit == MAX_P_LIMIT
    with pytest.raises(ValueError, match=f"p_limit must be at most {MAX_P_LIMIT}"):
        Config(p_limit=MAX_P_LIMIT + 1)
    with pytest.raises(ValueError):
        Config(budget=0)


# ---------------------------------------------------------------------------
# the seed state
# ---------------------------------------------------------------------------

def test_initial_state_managed_primes_follow_p_limit():
    assert sorted(initial_state(Config(p_limit=5)).pairs) == [2, 3, 5]
    assert sorted(initial_state(Config(p_limit=7)).pairs) == [2, 3, 5, 7]
    assert sorted(initial_state(Config(p_limit=12)).pairs) == [2, 3, 5, 7, 11]


def test_initial_state_is_verified():
    st = initial_state(Config(p_limit=7))
    assert st.a == (1, 11) and st.b == (6,)
    assert st.n == 2
    assert st.represented == {5: (11, 6), -5: (1, 6)}
    report = verify(st)
    assert report.ok
    assert report.coverage == 2
    assert report.certification == ALL_CERTIFIED
    assert [c.name for c in report.checks] == [
        "differences-prime",
        "differences-distinct",
        "residue-placement",
        "pairs-compatible",
        "representation-ledger",
        "shared-witness-for-5",
    ]


def test_verify_flags_tampering():
    st = initial_state(Config(p_limit=5))
    # a non-prime difference (9 - 6 = 3 is too small to qualify)
    broken = replace(st, a=(1, 9))
    report = verify(broken)
    assert not report.ok
    assert "differences-prime" in {c.name for c in report.failures()}
    # a ledger entry whose witness rows do not exist
    cooked = dict(st.represented)
    cooked[23] = (29, 6)
    report = verify(replace(st, represented=cooked))
    assert "representation-ledger" in {c.name for c in report.failures()}


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

def test_plan_step_for_first_search_target():
    st = initial_state(Config(p_limit=5))
    plan = plan_step(st, 7)
    assert plan.choices == ((2, 1, 0), (3, 1, 0), (5, 0, 3))
    assert (plan.crt.residue, plan.crt.modulus) == (25, 30)
    assert plan.offsets == (-18, -8, -6)
    assert plan.min_x == 30
    assert plan.reserve_use is None


def test_plan_step_returns_none_when_represented():
    st = initial_state(Config(p_limit=5))
    assert plan_step(st, 5) is None
    assert plan_step(st, -5) is None


def test_plan_step_reserve_path():
    # with 7 managed, the step for target 7 must sit on a reserved residue
    st = initial_state(Config(p_limit=7))
    plan = plan_step(st, 7)
    assert plan.reserve_use == (7, PLUS, 2)
    assert (7, 2, 2) in plan.choices
    assert (plan.crt.residue, plan.crt.modulus) == (205, 210)
    assert plan.offsets == (-18, -8, -6)


def test_plan_step_reserve_exhaustion():
    st = initial_state(Config(p_limit=7))
    pairs = dict(st.pairs)
    pairs[7] = pairs[7].with_assigned(PLUS, 2).with_assigned(MINUS, 3)
    with pytest.raises(ValueError, match="reserve exhausted"):
        plan_step(replace(st, pairs=pairs), 7)


def test_plan_min_x_clears_elements_and_differences():
    st = initial_state(Config(p_limit=5))
    plan = plan_step(st, 7)
    d_max = max(abs(d) for d in plan.offsets)
    assert plan.min_x > max(st.a + st.b) + max(d_max, 5) - 1


# ---------------------------------------------------------------------------
# applying
# ---------------------------------------------------------------------------

def test_apply_step_example_witness():
    st = initial_state(Config(p_limit=5))
    plan = plan_step(st, 7)
    # 25 sits below min_x but passes every hard check, so it is accepted
    out = apply_step(st, plan, 25)
    assert out.a == (1, 11, 25)
    assert out.b == (6, 18)
    assert out.n == 3
    got = sorted(out.represented, key=lambda d: (abs(d), d))
    assert got == [-5, 5, -7, 7, -17, 19]
    report = verify(out)
    assert report.ok and report.coverage == 4


def test_apply_step_rejects_wrong_class():
    st = initial_state(Config(p_limit=5))
    plan = plan_step(st, 7)
    with pytest.raises(ValueError, match="planned class"):
        apply_step(st, plan, 26)


def test_apply_step_rejects_composite_difference():
    st = initial_state(Config(p_limit=5))
    plan = plan_step(st, 7)
    # 55 - 6 = 49 is a prime square
    with pytest.raises(ValueError, match="coincidence"):
        apply_step(st, plan, 55)


def test_apply_step_consumes_reserve():
    st = initial_state(Config(p_limit=7))
    plan = plan_step(st, 7)
    out = apply_step(st, plan, 625)
    assert out.pairs[7].assigned_map[PLUS] == 2
    assert out.pairs[7].unused_reserves() == (3,)
    assert verify(out).ok


# ---------------------------------------------------------------------------
# pair extension between steps
# ---------------------------------------------------------------------------

def test_extend_pairs_reduced_never_adds():
    st = initial_state(Config(p_limit=7))
    assert extend_pairs(st) is st


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------

def test_run_to_four_targets():
    st = initial_state(Config(p_limit=5))
    res = run(st, 4)
    assert res.completed
    assert [(s.index, s.target, s.witness) for s in res.steps] == [
        (3, 7, 115),
        (4, -7, 287),
    ]
    assert res.report.ok
    assert res.report.coverage == 4
    assert res.report.certification == ALL_CERTIFIED


def test_run_records_freebies():
    st = initial_state(Config(p_limit=5))
    st = apply_step(st, plan_step(st, 7), 25)
    # the witness 25 produced -7 = 11 - 18 as a by-product
    assert coverage_prefix(st) == 4
    res = run(st, 5)
    assert [(s.index, s.target, s.witness, s.free) for s in res.steps] == [
        (4, -7, None, True),
        (5, 11, 65, False),
    ]
    assert res.steps[0].candidates == 0
    assert res.state.a == (1, 11, 25, 65)
    assert res.state.b == (6, 18, 54)
    assert res.report.ok


def test_run_below_coverage_is_a_no_op():
    st = initial_state(Config(p_limit=5))
    res = run(st, 2)
    assert res.completed and res.steps == []
    assert res.state is st
    with pytest.raises(ValueError):
        run(st, -1)


def test_run_growth_invariants():
    st = initial_state(Config(p_limit=5))
    res = run(st, 6)
    final = res.state
    assert len(final.a) == len(set(final.a))
    assert len(final.b) == len(set(final.b))
    assert all(v > 0 for v in final.a + final.b)
    assert not set(final.a) & set(final.b)
    # witnesses grow along the run
    witnesses = [s.witness for s in res.steps if not s.free]
    assert witnesses == sorted(witnesses)


def test_a_run_does_not_import_numpy_ma():
    # numpy.ma is a slow import (np.unique loads it lazily in numpy 2.4),
    # which a fresh process's first run would pay; so only a new process
    # shows it
    src = os.path.dirname(os.path.dirname(sdpc.__file__))
    code = (
        "import sys\n"
        "from sdpc.construction import Config, initial_state, run\n"
        "assert run(initial_state(Config()), 7).completed\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_a_step_that_searches_starts_its_clock_after_the_search_import():
    # a fresh process's first search loads sdpc.search and NumPy; a step's
    # seconds must not count that. Each clock read records whether it is
    # loaded; the last read before a search started that search's step
    src = os.path.dirname(os.path.dirname(sdpc.__file__))
    code = (
        "import sys\n"
        "from sdpc import construction as c\n"
        "reads, starts, clock, search = [], [], c.perf_counter, c.search_with_count\n"
        "def perf_counter():\n"
        "    reads.append('sdpc.search' in sys.modules)\n"
        "    return clock()\n"
        "def search_with_count(task):\n"
        "    starts.append(reads[-1])\n"
        "    return search(task)\n"
        "c.perf_counter, c.search_with_count = perf_counter, search_with_count\n"
        "c.run(c.initial_state(c.Config()), 8)\n"
        "print(starts)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    # steps 3 to 8 all search
    assert out.stdout.strip() == str([True] * 6)


def test_witnesses_do_not_depend_on_sieve_limit():
    # the sieve strikes only proven composites and the scan is ordered by
    # k, so the limit may change the work but never the witness or its
    # depth: each pinned step from its min_x, and step 9 from 2**20
    # candidates below A_9, at limits below, at and above
    # DEFAULT_SIEVE_LIMIT. Left out: step 8 at limit 50, whose thin sieve
    # takes 0.8 s, and steps 7 to 9 at limit 2, where no prime sieves
    # (each divides q = 210) and every candidate reaches the screen.
    left_out = {(-13, 50), (13, 2), (-13, 2), (17, 2)}
    want = [*zip(PINNED_WITNESSES, PINNED_DEPTHS), (A_9, (1 << 20) + 1)]
    for (target, task), expected in zip(step_tasks(), want, strict=True):
        if target == 17:
            task = replace(task, start=A_9 - (1 << 20) * task.system.crt.modulus)
        for limit in (2, 50, 400, 401, 1000, 3000, 10**5, 10**7):
            if (target, limit) not in left_out:
                assert search_with_count(replace(task, sieve_limit=limit)) == expected, (target, limit)


# The default run's witnesses after the seed, for targets 7 to -13, and
# their depths from each step's min_x.
PINNED_WITNESSES = (625, 3587, 42305, 2132467, 1655127457, 68092385285)
PINNED_DEPTHS = (3, 12, 168, 9752, 7861250, 308486336)
# The ninth witness, for target +17, 52,788,284,889,010 candidates deep.
A_9 = 11085676011462515


def step_tasks():
    """(target, task) of each search of the default run to coverage 9,
    replayed through the pinned witnesses; the last, +17, is not found."""
    state = initial_state(Config())
    tasks = []
    for coverage, x in zip(range(3, 10), PINNED_WITNESSES + (None,)):
        plan = plan_step(state, signed_primes(coverage))
        system = TupleSystem(plan.crt, plan.offsets)
        tasks.append((plan.target, ConstellationTask(system, plan.min_x, state.config.budget)))
        if x is not None:
            state = apply_step(state, plan, x)
    return tasks


def record_plans(monkeypatch):
    """The plans that searches build from now on, in order, each with the
    lengths of the windows sieved on it."""
    plans = []

    class Recorded(search._SievePlan):
        def __init__(self, task):
            super().__init__(task)
            self.windows = []
            plans.append(self)

        def window(self, lo, hi):
            self.windows.append(hi - lo)
            return super().window(lo, hi)

    monkeypatch.setattr(search, "_SievePlan", Recorded)
    return plans


def test_each_search_builds_one_plan(monkeypatch):
    # every search of the coverage-8 run sieves all its windows on the one
    # plan it builds first; the +-13 plans are wide: after a first window
    # of FIRST_WINDOW they gather and have no entries left to strike,
    # and their windows are packed, from one period of their patterns to
    # 8 * LARGEST_WINDOW. Windows double until one holds the witness. A
    # search that ends in its first window (steps 3 to 5) never asks
    # whether its plan is wide: it forms no groups, no tables, no screen.
    plans = record_plans(monkeypatch)
    for target, task in step_tasks()[:-1]:
        plans.clear()
        _, depth = search_with_count(task)
        assert len(plans) == 1, target
        plan = plans[0]
        if plan.windows == [search.FIRST_WINDOW]:
            assert "_grouping" not in vars(plan) and plan.good is None and "_screen" not in vars(plan), target
        assert plan.wide == (abs(target) == 13), target
        expected = []
        for size in window_lengths(search.LARGEST_WINDOW, plan.wide):
            if sum(expected) >= depth:
                break
            expected.append(size)
        assert plan.windows == expected, target
        if plan.wide:
            assert len(plan.gather_p) and len(plan.rest_p) == 0, target


def test_construction_plans_hold_every_prime_and_never_grow(monkeypatch):
    # a plan holds the primes up to its limit from its construction: so
    # the plan each search of the run builds holds the primes of its task's
    # plan through the search, and once both have pre-sieved, is that plan
    # array for array. A plan pre-sieves at its first window longer than
    # PRESIEVE_AFTER, a wide one at its second. Step 9 (+17) searches four
    # of its longest windows.
    plan_at_limit = search._SievePlan
    plans = record_plans(monkeypatch)
    for target, task in step_tasks():
        if target == 17:
            task = replace(task, budget=4 * search.LARGEST_WINDOW)
        plans.clear()
        search_with_count(task)
        (plan,) = plans
        full = plan_at_limit(task)
        assert plan.limit == full.limit == DEFAULT_SIEVE_LIMIT
        assert np.array_equal(plan.primes, full.primes), target
        assert (plan.good is not None) == (max(plan.windows) > search.PRESIEVE_AFTER)
        for each in (plan, full):
            if each.good is None:
                each._presieve()
        assert_same_plan(plan, full, target)


def assert_same_plan(plan, want, target):
    """Every attribute of `plan` equals `want`'s, array for array."""
    for name, value in vars(want).items():
        got = getattr(plan, name)
        if name == "patterns":
            assert len(got) == len(value), target
            assert all(np.array_equal(a, b) for a, b in zip(got, value)), target
        elif name == "_grouping":
            assert np.array_equal(got[0], value[0]) and got[1:] == value[1:], target
        elif name == "_screen":
            assert got[0] == value[0] and all(map(np.array_equal, got[1:], value[1:])), target
        elif isinstance(value, np.ndarray):
            assert got.dtype == value.dtype and np.array_equal(got, value), (target, name)
        else:
            assert got == value, (target, name)


def test_a_standalone_search_sieves_as_run_does(monkeypatch):
    # search_with_count(task) on each task run() searches, the +-13 and +17
    # ones wide: the same result, the same windows and the same plan, as
    # every search has the one window cap and a plan is its task's
    tasks = []
    searched = construction.search_with_count

    def search_in_run(task):
        tasks.append(task)
        return searched(task)

    monkeypatch.setattr(construction, "search_with_count", search_in_run)
    plans = record_plans(monkeypatch)
    res = run(initial_state(Config()), 9)
    assert not res.completed and len(tasks) == len(plans) == 7
    in_run = list(plans)
    for task, plan, step in zip(tasks, in_run, res.steps):
        plans.clear()
        assert search_with_count(task) == (step.witness, step.candidates), step.target
        (alone,) = plans
        assert alone.wide == (abs(step.target) >= 13), step.target
        assert_same_plan(alone, plan, step.target)


def test_widening_changes_no_witness_or_depth(monkeypatch):
    # each search of the coverage-8 run as run() makes it, where the +-13
    # plans widen, and with every group ANDed, as at a gather cost of
    # 2**62, where no plan gathers and so none widens: the same witness and
    # depth
    plans = record_plans(monkeypatch)
    for target, task in step_tasks()[:-1]:
        plans.clear()
        got = search_with_count(task)
        with monkeypatch.context() as narrow:
            narrow.setattr(search, "GATHER_COST", 1 << 62)
            assert search_with_count(task) == got, target
            assert [plan.wide for plan in plans] == [abs(target) == 13, False], target


@pytest.mark.parametrize("budget", [1 << e for e in range(13, 21)])
def test_a_search_sieves_what_sieve_segment_keeps(budget, sieved):
    # one plan per task: every window a search sieves keeps exactly the x
    # that sieve_segment returns for it; for each step plan to coverage 9,
    # the +17 one also at a sieve limit above DEFAULT_SIEVE_LIMIT, and for
    # seeded random systems from k = 0, through their zones
    rng = random.Random(budget)
    tasks = [task for _, task in step_tasks()]
    tasks.append(replace(tasks[-1], sieve_limit=1000))
    while len(tasks) < 11:
        task = drawn(rng, ((), (2, 3), (2, 3, 5, 7)), 60, (2, 9), rng.choice((50, DEFAULT_SIEVE_LIMIT, 1000)))
        if is_admissible(task.system) is None:
            tasks.append(task)
    for task in tasks:
        task = replace(task, budget=budget)
        q, t = task.system.crt.modulus, task.system.crt.residue
        start = len(sieved)
        search_with_count(task)
        windows = sieved[start:]
        assert windows
        for _, lo, hi, js, _ in windows:
            assert sieve_segment(task, lo, hi) == [t + (lo + j) * q for j in js.tolist()], (task, lo, hi)


def test_long_windows_of_the_gathering_steps_leave_the_byte_path(monkeypatch):
    # a plan that gathers is wide: it has no entries left to strike; one
    # that ANDs every group keeps them, as gathering behind those ANDs
    # would read too many survivors. With every group ANDed, as at a gather
    # cost of 2**62, no plan widens, and only +17 has no such entries, so
    # widening changes the +-13 plans alone.
    changed = set()
    for target, task in step_tasks():
        plan = search._SievePlan(task)
        plan._presieve()
        gathers = len(plan.gather_p) > 0
        assert gathers == (abs(target) >= 13)
        assert plan.wide == gathers and (len(plan.rest_p) == 0) == gathers
        with monkeypatch.context() as m:
            m.setattr(search, "GATHER_COST", 1 << 62)
            narrow = search._SievePlan(task)
            narrow._presieve()
        assert not narrow.wide
        if plan.wide and len(narrow.rest_p):
            changed.add(target)
    assert changed == {13, -13}


def test_difference_table_ordering():
    st = initial_state(Config(p_limit=5))
    st = apply_step(st, plan_step(st, 7), 25)
    table = difference_table(st)
    assert [row[2] for row in table] == [-5, 5, -7, 7, -17, 19]
    assert all(aa - bb == d for aa, bb, d in table)
    assert len(table) == len(st.a) * len(st.b)
