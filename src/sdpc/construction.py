"""Step-by-step construction of set pairs with all-prime differences.

The goal: two finite sets of positive integers A and B such that the
differences a - b, over all pairs, are exactly distinct signed primes of
absolute value above 3, and eventually every such prime 5, -5, 7, -7,
11, -11, ... appears. The engine starts from the seed A = {1, 11},
B = {6} (whose two differences 5 = 11 - 6 and -5 = 1 - 6 share the
element 6, the only way both signs of 5 can ever be represented) and
then, for each target prime r in order, searches for one new element x
so that A + {x}, B + {x - r} keeps every difference a distinct signed
prime. Compatible residue pairs (U_p, V_p) pin x modulo small primes so
the new differences dodge small divisors; a constellation search does
the rest.

The managed primes are those up to p_limit, and each planned step is
checked for local admissibility, which is what makes desk-scale runs
finish. The paper instead manages every prime below a constant K chosen
so the capacity bound never fails; the CRT modulus then has thousands of
digits and no witness is reachable, so of that policy only its lemmas
are kept: check_bound and compute_K here, capacity_bound and
randomized_extend_with_stats in sdpc.pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from time import perf_counter
from typing import TYPE_CHECKING, Callable

from .admissible import InadmissibleSystemError, TupleSystem, is_admissible
from .modular import CrtClass, ResidueSet, crt_combine
from .pairs import MINUS, PLUS, PrimeCompatiblePair, capacity_bound, explicit_pair, is_prime_compatible
from .primes import PrimalityStatus, is_prime, primes_in_range, primes_up_to

if TYPE_CHECKING:
    from .search import ConstellationTask

ALL_CERTIFIED = "all-certified"
CONTAINS_PROBABLE = "contains-probable-primes"
# The largest p_limit (Config).
MAX_P_LIMIT = 1 << 10


# ---------------------------------------------------------------------------
# target enumeration and the capacity inequality
# ---------------------------------------------------------------------------

_primes_gt3: list[int] = []


def _prime_gt3(k: int) -> int:
    """k-th prime greater than 3 (1-indexed)."""
    bound = 64
    while len(_primes_gt3) < k:
        bound *= 4
        _primes_gt3[:] = [p for p in primes_up_to(bound) if p > 3]
    return _primes_gt3[k - 1]


def signed_primes(n: int) -> int:
    """n-th signed prime target: 5, -5, 7, -7, 11, -11, ... (1-indexed)."""
    if n < 1:
        raise ValueError("index must be positive")
    p = _prime_gt3((n + 1) // 2)
    return p if n % 2 == 1 else -p


def check_bound(n: int, r: int, reserve: int = 0) -> bool:
    """Whether 2n + reserve < (r-1)/2 - log(r)/log(4/3), that is, at most
    pairs.capacity_bound(r).

    This is the room needed to extend a pair mod r when 2n set elements
    and `reserve` fresh residues must all fit in the common core.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    return 2 * n + reserve <= capacity_bound(r)


def compute_K(reserve: int, scan_limit: int = 8192) -> int:
    """Smallest K with check_bound(n, |r_n|, reserve) for all |r_n| >= K/2.

    Scans every step index up to scan_limit for the last failure, then
    certifies the tail with the classical lower bound p_m > m*log(m):
    writing L(n) = (n/2)*log(n/2) <= |r_n|, the margin

        h(n) = (L(n)-1)/2 - log(L(n))/log(4/3) - 2n - reserve

    has positive derivative for n >= 4096, so h > 0 at the scan edge
    settles every index beyond it. Errors when the scan cannot certify.
    """
    if reserve < 0:
        raise ValueError("reserve must be nonnegative")
    fails = [
        n
        for n in range(1, scan_limit + 1)
        if not check_bound(n, abs(signed_primes(n)), reserve)
    ]
    if not fails:
        raise ValueError("scan found no failing index; nothing to bound")
    n_star = fails[-1]
    if n_star > scan_limit - 64:
        raise ValueError(
            f"increase scan_limit: the inequality still fails at index {n_star} "
            f"near the scan edge {scan_limit}"
        )
    if scan_limit < 4096:
        raise ValueError("increase scan_limit: tail argument needs at least 4096")

    def h(n: float) -> float:
        lower = (n / 2) * math.log(n / 2)
        return (lower - 1) / 2 - math.log(lower) / math.log(4 / 3) - 2 * n - reserve

    if h(scan_limit) <= 0 or h(2 * scan_limit) <= h(scan_limit):
        raise ValueError("increase scan_limit: tail margin not yet positive")
    return 2 * abs(signed_primes(n_star)) + 1


# ---------------------------------------------------------------------------
# configuration and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Config:
    """Run parameters. Defaults give the desk-scale engine.

    The managed primes are those up to and including p_limit. The
    inclusive end is load-bearing: an offset list longer than an
    unmanaged prime can cover all of its residue classes and strand the
    whole construction, and p_limit = 7 with 7 managed is what keeps the
    default run alive past a dozen offsets. p_limit is at most
    MAX_P_LIMIT = 1024: every managed prime gets a pair, two p-bit masks
    that a state file lists residue by residue, so p_limit sets the size
    of the seed state. Up to 1024 that is 172 pairs in about 1 MB, built
    in a tenth of a second; 4096 would take 14.5 MB, and a state file
    naming p_limit 2**62 could ask for a mask of 2**61 bits.

    budget is the most candidates a step's search may examine. It runs
    higher than the standalone search default because a step at a dozen
    offsets sits around 10**8.5 candidates deep. Each step searches as
    every search does, with the sieve's default limit and in the windows
    of sdpc.search, whose largest touches search.LARGEST_WINDOW bytes;
    neither changes a witness, so neither is a setting.
    """

    p_limit: int = 7
    budget: int = 10**9

    def __post_init__(self):
        # 2, 3 and 5 anchor the seed sets; p_limit = 5 is the bare minimum.
        if self.p_limit < 5:
            raise ValueError("p_limit must be at least 5")
        if self.p_limit > MAX_P_LIMIT:
            raise ValueError(f"p_limit must be at most {MAX_P_LIMIT}")
        if self.budget < 1:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class ConstructionState:
    """Snapshot after processing the first n targets.

    a and b are the sorted element tuples; pairs maps each managed prime
    to its compatible pair.
    """

    n: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    pairs: dict[int, PrimeCompatiblePair]
    config: Config

    @cached_property
    def represented(self) -> dict[int, tuple[int, int]]:
        """Each difference r = a - b mapped to its witness pair (a, b),
        derived from A and B: a frozen state's map cannot go stale."""
        return {aa - bb: (aa, bb) for aa in self.a for bb in self.b}


def initial_state(config: Config) -> ConstructionState:
    """The seed state: A = {1, 11}, B = {6}, differences 5 and -5.

    Hand-built pairs cover 2, 3 and 5; every further managed prime gets
    the explicit closed-form pair, whose exclusive parts already contain
    the residues of 1, 11 (in U) and 6 (in V). The pair mod 5 has its
    single common residue 1 occupied by the seed elements themselves,
    which is exactly what lets 5 and -5 share the element 6.
    """
    pairs = {
        2: PrimeCompatiblePair(2, ResidueSet.from_members(2, (1,)), ResidueSet.from_members(2, (0,))),
        3: PrimeCompatiblePair(3, ResidueSet.from_members(3, (1, 2)), ResidueSet.from_members(3, (0,))),
        5: PrimeCompatiblePair(5, ResidueSet.from_members(5, (0, 1, 2)), ResidueSet.from_members(5, (1, 3, 4))),
    }
    for p in primes_in_range(7, config.p_limit + 1):
        pairs[p] = explicit_pair(p)
    return ConstructionState(
        n=2,
        a=(1, 11),
        b=(6,),
        pairs=pairs,
        config=config,
    )


def coverage_prefix(state: ConstructionState) -> int:
    """Largest m with r_1 ... r_m all represented."""
    m = 0
    while signed_primes(m + 1) in state.represented:
        m += 1
    return m


# ---------------------------------------------------------------------------
# planning a step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepPlan:
    """Everything a search needs to realize one target difference.

    choices lists (p, u, v) per managed prime: x will be u mod p and
    x - target will be v mod p. For p = |target| the two coincide on a
    reserved residue, recorded again in reserve_use as (p, sign, residue)
    so the application step can mark it consumed. min_x clears every
    existing element and difference, which forecloses coincidences
    between new and old differences.
    """

    target: int
    choices: tuple[tuple[int, int, int], ...]
    crt: CrtClass
    offsets: tuple[int, ...]
    min_x: int
    reserve_use: tuple[int, int, int] | None = None


def plan_step(state: ConstructionState, target: int) -> StepPlan | None:
    """Plan the step for one signed prime target, or None if already done.

    Picks, per managed prime p != |target|, the smallest u in U_p \\ V_p
    whose partner v = u - target lands in V_p \\ U_p (one exists because
    the pair is compatible). For a managed p = |target| the step must
    instead consume an unused reserved residue of that pair. The returned
    system is checked for admissibility, and a violation raises
    InadmissibleSystemError.
    """
    if target in state.represented:
        return None
    p_abs = abs(target)
    sign = PLUS if target > 0 else MINUS
    choices = []
    reserve_use = None
    for p in sorted(state.pairs):
        pair = state.pairs[p]
        if p == p_abs:
            free = pair.unused_reserves()
            if not free:
                raise ValueError(f"reserve exhausted for prime {p}")
            w = free[0]
            choices.append((p, w, w))
            reserve_use = (p, sign, w)
            continue
        u_only = pair.u.difference(pair.v)
        v_only_mask = pair.v.difference(pair.u).mask
        for u in u_only:
            v = (u - target) % p
            if (v_only_mask >> v) & 1:
                choices.append((p, u, v))
                break
        else:
            raise ValueError(f"no residue choice mod {p}; pair is not compatible")
    crt = crt_combine([(u, p) for p, u, _ in choices])
    offsets = sorted({-bb for bb in state.b} | {-target - aa for aa in state.a})
    d_max = max(
        max(abs(d) for d in state.represented),
        max(abs(d) for d in offsets),
    )
    min_x = max(max(state.a + state.b) + d_max, target) + 1
    plan = StepPlan(
        target=target,
        choices=tuple(choices),
        crt=crt,
        offsets=tuple(offsets),
        min_x=min_x,
        reserve_use=reserve_use,
    )
    obstruction = is_admissible(TupleSystem(crt, plan.offsets))
    if obstruction is not None:
        raise InadmissibleSystemError(obstruction)
    return plan


# ---------------------------------------------------------------------------
# applying a step
# ---------------------------------------------------------------------------

def apply_step(state: ConstructionState, plan: StepPlan, x: int) -> ConstructionState:
    """Commit witness x for the plan's target.

    A and B gain x and x - target; the new differences (x - b for old b,
    a - (x - target) for old a, and the target itself) are each checked
    to be fresh distinct signed primes above 3 in absolute value. Those
    checks cannot fire for a witness at or above min_x, but they are kept
    hard because the function accepts any x in the planned class.
    """
    target = plan.target
    q, t = plan.crt.modulus, plan.crt.residue
    if x % q != t:
        raise ValueError(f"x = {x} is not in the planned class {t} (mod {q})")
    partner = x - target
    if x <= 0 or partner <= 0:
        raise ValueError("witness must keep both new elements positive")
    if x in state.a:
        raise ValueError(f"x = {x} is already in A")
    if partner in state.b:
        raise ValueError(f"x - target = {partner} is already in B")

    fresh = [target, *(x - bb for bb in state.b), *(aa - partner for aa in state.a)]
    if len(set(fresh)) != len(fresh):
        raise ValueError("coincidence: two new differences collide")
    for diff in fresh:
        if diff in state.represented:
            raise ValueError(f"coincidence: difference {diff} already represented")
        if abs(diff) <= 3 or not is_prime(diff).accepted:
            raise ValueError(f"coincidence: new difference {diff} is not a prime above 3")

    pairs = dict(state.pairs)
    if plan.reserve_use is not None:
        p, sign, w = plan.reserve_use
        pairs[p] = pairs[p].with_assigned(sign, w)
    return replace(
        state,
        n=state.n + 1,
        a=tuple(sorted(state.a + (x,))),
        b=tuple(sorted(state.b + (partner,))),
        pairs=pairs,
    )


def extend_pairs(state: ConstructionState) -> ConstructionState:
    """Create pairs for primes that just entered the managed range: the
    identity, returning state itself.

    The managed primes are fixed at those up to p_limit, so no prime
    enters between steps. (In the paper, primes entering the range get a
    randomized pair, pairs.randomized_extend_with_stats, around the
    residues of the current elements.)
    """
    return state


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]
    coverage: int
    certification: str

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.ok)


def verify(state: ConstructionState) -> VerifyReport:
    """Re-derive every claimed property of the state from scratch."""
    checks: list[CheckResult] = []

    diffs = [(aa - bb, aa, bb) for aa in state.a for bb in state.b]
    bad = []
    probable = 0
    for d, aa, bb in diffs:
        verdict = is_prime(d)
        if abs(d) <= 3 or not verdict.accepted:
            bad.append(d)
        elif verdict is PrimalityStatus.PROBABLE:
            probable += 1
    checks.append(
        CheckResult(
            "differences-prime",
            not bad,
            f"{len(diffs)} differences" if not bad else f"non-prime differences {bad[:8]}",
        )
    )

    distinct = len(state.represented) == len(diffs)
    checks.append(
        CheckResult(
            "differences-distinct",
            distinct,
            "all pairwise distinct" if distinct else "collision among differences",
        )
    )

    placement_bad: list[str] = []
    for p, pair in sorted(state.pairs.items()):
        for aa in state.a:
            if aa % p not in pair.u:
                placement_bad.append(f"A element {aa} lands outside U mod {p}")
        for bb in state.b:
            if bb % p not in pair.v:
                placement_bad.append(f"B element {bb} lands outside V mod {p}")
        occupied = {v % p for v in state.a + state.b}
        for w in pair.unused_reserves():
            if w in occupied:
                placement_bad.append(f"reserved residue {w} mod {p} is occupied")
    checks.append(
        CheckResult(
            "residue-placement",
            not placement_bad,
            f"{len(state.pairs)} managed primes" if not placement_bad else "; ".join(placement_bad[:4]),
        )
    )

    incompatible = [
        p
        for p, pair in sorted(state.pairs.items())
        if not is_prime_compatible(pair.u, pair.v)
    ]
    checks.append(
        CheckResult(
            "pairs-compatible",
            not incompatible,
            "difference cover intact" if not incompatible else f"broken mod {incompatible}",
        )
    )

    ledger_bad: list[str] = []
    m = coverage_prefix(state)
    if m < state.n:
        ledger_bad.append(f"coverage {m} below step counter {state.n}")
    if len(state.a) > state.n or len(state.b) > state.n:
        ledger_bad.append("set sizes exceed the step counter")
    checks.append(
        CheckResult(
            "representation-ledger",
            not ledger_bad,
            f"prefix covered through index {m}" if not ledger_bad else "; ".join(ledger_bad[:3]),
        )
    )

    w5 = state.represented.get(5)
    w_neg5 = state.represented.get(-5)
    shared = set(w5 or ()) & set(w_neg5 or ())
    checks.append(
        CheckResult(
            "shared-witness-for-5",
            bool(shared),
            f"5 and -5 share {sorted(shared)}" if shared else "5 and -5 have disjoint witnesses",
        )
    )

    certification = CONTAINS_PROBABLE if probable else ALL_CERTIFIED
    return VerifyReport(tuple(checks), m, certification)


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------

# sdpc.search, and with it NumPy, loads at a process's first search, so
# planning, applying and verify run without NumPy. run() looks this name
# up at call time, so it may be replaced to watch the searches.
def search_with_count(task: ConstellationTask) -> tuple[int | None, int]:
    from .search import search_with_count as search
    return search(task)


@dataclass(frozen=True)
class StepRecord:
    """One turn of the run loop: a witness found, a target already
    represented (free), or a search that exhausted its budget."""

    index: int
    target: int
    witness: int | None
    candidates: int
    seconds: float
    exhausted: bool = False

    @property
    def free(self) -> bool:
        return self.witness is None and not self.exhausted


@dataclass
class RunResult:
    state: ConstructionState
    steps: list[StepRecord]
    completed: bool
    diagnostic: str | None
    report: VerifyReport


def run(
    state: ConstructionState,
    target: int,
    on_step: Callable[[StepRecord], None] | None = None,
) -> RunResult:
    """Extend the state until r_1 ... r_target are all represented.

    Each loop turn handles the next index: a target already represented
    (a by-product of an earlier witness) is recorded as a free step,
    anything else is planned, searched and applied. The state is verified
    in full before the first turn, where a failure raises ValueError, and
    after every turn; budget exhaustion or an inadmissible plan stops the
    loop and hands back the last good state, flagged via `completed` and
    `diagnostic`.
    """
    if target < 0:
        raise ValueError("target must be nonnegative")
    report = verify(state)
    if not report.ok:
        names = [c.name for c in report.failures()]
        raise ValueError(f"the state to extend fails verification: {names}")
    cfg = state.config
    steps: list[StepRecord] = []
    completed = True
    diagnostic = None
    while coverage_prefix(state) < target:
        index = state.n + 1
        r = signed_primes(index)
        if r in state.represented:
            started = perf_counter()
            state = replace(state, n=index)
            record = StepRecord(index, r, None, 0, perf_counter() - started)
        else:
            # loading sdpc.search, and NumPy with it, is no step's time
            from .search import ConstellationTask

            started = perf_counter()
            try:
                plan = plan_step(state, r)
            except InadmissibleSystemError as exc:
                completed = False
                diagnostic = f"target {r} has an inadmissible plan: {exc.obstruction.describe()}"
                break
            task = ConstellationTask(
                TupleSystem(plan.crt, plan.offsets), start=plan.min_x, budget=cfg.budget
            )
            x, examined = search_with_count(task)
            if x is None:
                completed = False
                diagnostic = (
                    f"search for target {r} exhausted its budget of {cfg.budget} "
                    f"candidates (start {plan.min_x}, class {plan.crt.residue} "
                    f"mod {plan.crt.modulus})"
                )
            else:
                state = apply_step(state, plan, x)
            record = StepRecord(index, r, x, examined, perf_counter() - started, exhausted=x is None)
        steps.append(record)
        if on_step:
            on_step(record)
        if not completed:
            break
        report = verify(state)
        if not report.ok:
            names = [c.name for c in report.failures()]
            raise RuntimeError(f"verification failed after step {index}: {names}")
    return RunResult(state, steps, completed, diagnostic, report)


def difference_table(state: ConstructionState) -> list[tuple[int, int, int]]:
    """All (a, b, a - b) rows, sorted by |difference| then difference."""
    rows = [(aa, bb, aa - bb) for aa in state.a for bb in state.b]
    rows.sort(key=lambda row: (abs(row[2]), row[2]))
    return rows
