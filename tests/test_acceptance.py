"""Acceptance suite.

Each test covers one acceptance criterion end to end and emits a single
PASS/FAIL summary line (collected into the terminal summary by
conftest). Timings are wall clock and asserted against each criterion's
stated limit.
"""

import math
import random
from time import perf_counter

import pytest

from conftest import record_line
from test_admissible import brute_obstruction
from test_search import naive_witness, small_task

from sdpc import search
from sdpc.admissible import TupleSystem, is_admissible
from sdpc.construction import (
    ALL_CERTIFIED,
    Config,
    check_bound,
    compute_K,
    initial_state,
    run,
    verify,
)
from sdpc.modular import CrtClass, ResidueSet
from sdpc.pairs import explicit_pair, is_prime_compatible, randomized_extend_with_stats
from sdpc.primes import primes_in_range
from sdpc.search import ConstellationTask, search_with_count
from sdpc.stateio import dumps_state, loads_state


def conclude(number, name, ok, seconds, limit=None, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number} ({name}): {status} in {seconds:.1f}s"
    if limit is not None:
        line += f" (limit {limit:.0f}s)"
    if detail:
        line += f" [{detail}]"
    record_line(line)
    print(line)
    assert ok, line
    if limit is not None:
        assert seconds < limit, line


# ---------------------------------------------------------------------------
# 1. the seed state is exactly the documented one and verifies
# ---------------------------------------------------------------------------

def test_criterion_1_initial_state():
    t0 = perf_counter()
    st = initial_state(Config())
    ok = st.a == (1, 11) and st.b == (6,)
    ok = ok and st.pairs[2].u.mask == ResidueSet.from_members(2, (1,)).mask
    ok = ok and st.pairs[2].v.mask == ResidueSet.from_members(2, (0,)).mask
    ok = ok and st.pairs[3].u.mask == ResidueSet.from_members(3, (1, 2)).mask
    ok = ok and st.pairs[3].v.mask == ResidueSet.from_members(3, (0,)).mask
    ok = ok and st.pairs[5].u.mask == ResidueSet.from_members(5, (0, 1, 2)).mask
    ok = ok and st.pairs[5].v.mask == ResidueSet.from_members(5, (1, 3, 4)).mask
    ok = ok and st.represented == {5: (11, 6), -5: (1, 6)}
    report = verify(st)
    shared = next(c for c in report.checks if c.name == "shared-witness-for-5")
    ok = ok and report.ok and shared.ok and "6" in shared.detail
    conclude(1, "seed state fidelity", ok, perf_counter() - t0, 1)


# ---------------------------------------------------------------------------
# 2. the closed-form pair works for every prime up to 2000
# ---------------------------------------------------------------------------

def test_criterion_2_explicit_pair_sweep():
    t0 = perf_counter()
    bad = []
    for p in primes_in_range(7, 2001):
        pair = explicit_pair(p)
        u_only = set(pair.u.difference(pair.v))
        v_only = set(pair.v.difference(pair.u))
        common = set(pair.u) & set(pair.v)
        holds = (
            1 % p in u_only
            and 11 % p in u_only
            and 6 % p in v_only
            and len(common) == 2
            and set(pair.reserved) == common
            and is_prime_compatible(pair.u, pair.v)
        )
        if not holds:
            bad.append(p)
    conclude(
        2,
        "closed-form pair sweep 7..2000",
        not bad,
        perf_counter() - t0,
        60,
        detail=f"failing primes {bad[:5]}" if bad else "",
    )


# ---------------------------------------------------------------------------
# 3. randomized extension nearly always succeeds in one attempt
# ---------------------------------------------------------------------------

def test_criterion_3_randomized_extension_statistics():
    t0 = perf_counter()
    first_try = 0
    for seed in range(100):
        w = frozenset(random.Random(9000 + seed).sample(range(101), 20))
        _, attempts = randomized_extend_with_stats(w, 101, 2, random.Random(seed))
        first_try += attempts == 1
    # union bound: 101 * (3/4)^(50 - 22) is about 0.032 per trial
    conclude(
        3,
        "randomized extension statistics",
        first_try >= 90,
        perf_counter() - t0,
        10,
        detail=f"{first_try}/100 first-attempt successes",
    )


# ---------------------------------------------------------------------------
# 4. the admissibility check equals brute-force residue enumeration
# ---------------------------------------------------------------------------

def test_criterion_4_admissibility_equivalence():
    t0 = perf_counter()
    rng = random.Random(20260821)
    factors = {2: (2,), 6: (2, 3), 30: (2, 3, 5)}
    mismatches = 0
    for _ in range(10_000):
        q = rng.choice((2, 6, 30))
        t = rng.randrange(q)
        offsets = tuple(sorted(rng.sample(range(-20, 21), rng.randrange(1, 5))))
        got = is_admissible(TupleSystem(CrtClass(q, t, factors[q]), offsets))
        want = brute_obstruction(q, t, offsets, factors[q])
        if want is None:
            mismatches += got is not None
        else:
            mismatches += got is None or (got.p, got.kind, got.index) != want
    conclude(
        4,
        "admissibility oracle equivalence",
        mismatches == 0,
        perf_counter() - t0,
        60,
        detail=f"{mismatches} mismatches in 10000 cases",
    )


# ---------------------------------------------------------------------------
# 5. search equals naive scanning, hits the known witness, and does not
#    depend on the window schedule
# ---------------------------------------------------------------------------

def test_criterion_5_search_oracle_and_determinism(monkeypatch):
    t0 = perf_counter()
    rng = random.Random(55)
    ok = True
    tasks = [small_task(rng) for _ in range(100)]
    for task in tasks:
        got, _ = search_with_count(task)
        ok = ok and got == naive_witness(task)
    anchor = ConstellationTask(
        TupleSystem(CrtClass(30, 25, (2, 3, 5)), (-18, -8, -6)), start=19
    )
    got, _ = search_with_count(anchor)
    ok = ok and got == 25
    for task in tasks[:10] + [anchor]:
        want = search_with_count(task)
        with monkeypatch.context() as short:
            short.setattr(search, "LARGEST_WINDOW", 128)
            short.setattr(search, "FIRST_WINDOW", 128)
            ok = ok and search_with_count(task) == want
    conclude(5, "search oracle and window-schedule determinism", ok, perf_counter() - t0, 60)


# ---------------------------------------------------------------------------
# 6 and 8 share one construction run; states after every target are kept
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_run():
    state = initial_state(Config())
    states = [state]
    steps = []
    t0 = perf_counter()
    for target in range(3, 9):
        result = run(state, target)
        state = result.state
        states.append(state)
        steps.extend(result.steps)
        if not result.completed:
            break
    elapsed = perf_counter() - t0
    return states, steps, elapsed, verify(state)


def test_criterion_6_desk_scale_construction(desk_run):
    states, steps, elapsed, report = desk_run
    witnesses = [s.witness for s in steps if not s.free]
    ok = (
        report.ok
        and report.coverage >= 8
        and report.certification == ALL_CERTIFIED
        and witnesses
        == [625, 3587, 42305, 2132467, 1655127457, 68092385285]
    )
    conclude(
        6,
        "desk-scale construction to +-13",
        ok,
        elapsed,
        600,
        detail=f"coverage {report.coverage}, {report.certification}",
    )


def test_criterion_7_bound_and_threshold():
    t0 = perf_counter()
    rng = random.Random(77)
    ok = True
    for _ in range(1000):
        n = rng.randrange(0, 2000)
        r = rng.randrange(2, 50_000)
        reserve = rng.randrange(0, 3)
        want = 2 * n + reserve < (r - 1) / 2 - math.log(r) / math.log(4 / 3)
        ok = ok and check_bound(n, r, reserve) is want
    k0 = compute_K(0)
    k2 = compute_K(2)
    ok = ok and k0 == compute_K(0) and k2 == compute_K(2) and k2 >= k0
    conclude(
        7,
        "extension-room bound and threshold constant",
        ok,
        perf_counter() - t0,
        10,
        detail=f"K(0)={k0}, K(2)={k2}",
    )


def test_criterion_8_persistence_idempotence(desk_run):
    states, _, _, _ = desk_run
    t0 = perf_counter()
    ok = len(states) >= 7
    for state in states:
        text = dumps_state(state)
        back = loads_state(text)
        ok = ok and verify(back).ok and dumps_state(back) == text
    conclude(
        8,
        "save/load/verify idempotence",
        ok,
        perf_counter() - t0,
        detail=f"{len(states)} states checked",
    )


# ---------------------------------------------------------------------------
# stretch: two more target magnitudes. The step-9 (+17) witness lies about
# 5.3e13 candidates deep, so the run stops there, its search exhausting
# exactly the default budget of 10**9 candidates in the wide plan's windows.
# ---------------------------------------------------------------------------

def test_stretch_construction_to_19(desk_run):
    states, _, _, _ = desk_run
    t0 = perf_counter()
    result = run(states[-1], 12)
    elapsed = perf_counter() - t0
    (step,) = result.steps
    ok = result.report.ok and not result.completed and result.diagnostic is not None
    ok = ok and step.target == 17 and step.exhausted and step.candidates == 10**9
    detail = f"exhausted: {result.diagnostic}"
    conclude("stretch", "construction to +-19", ok, elapsed, 1800, detail=detail)
