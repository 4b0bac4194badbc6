"""Tests for the step-by-step difference-set construction engine."""

import math
import random
from dataclasses import fields, replace

import pytest

from sdpc.admissible import TupleSystem
from sdpc.construction import (
    ALL_CERTIFIED,
    LARGEST_WINDOW,
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
from sdpc.search import DEFAULT_SIEVE_LIMIT, ConstellationTask, search_with_count


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


def test_witnesses_do_not_depend_on_sieve_limit():
    # the sieve strikes only proven composites and the scan is ordered by
    # k, so the limit may change the work but never the witness or its
    # depth: each step plan of the coverage-7 run, searched at three limits
    state = initial_state(Config())
    for coverage in range(3, 8):
        plan = plan_step(state, signed_primes(coverage))
        res = run(state, coverage)
        (step,) = res.steps
        system = TupleSystem(plan.crt, plan.offsets)
        for limit in (50, DEFAULT_SIEVE_LIMIT, 100_000):
            task = ConstellationTask(
                system, start=plan.min_x, budget=state.config.budget, sieve_limit=limit
            )
            assert search_with_count(task, LARGEST_WINDOW) == (step.witness, step.candidates)
        state = res.state
    assert (state.a, state.b) == (
        (1, 11, 625, 3587, 42305, 2132467, 1655127457),
        (6, 618, 3594, 42294, 2132478, 1655127444),
    )


def test_difference_table_ordering():
    st = initial_state(Config(p_limit=5))
    st = apply_step(st, plan_step(st, 7), 25)
    table = difference_table(st)
    assert [row[2] for row in table] == [-5, 5, -7, 7, -17, 19]
    assert all(aa - bb == d for aa, bb, d in table)
    assert len(table) == len(st.a) * len(st.b)
