"""The three workloads: program-side preparation, one timed operation, checks.

Each operation drives sdpc only through public entry points: the command
line function `sdpc.cli.main`, `search_with_count`, and
`plan_step`/`apply_step` for the replay. Checks run after timing ends
and compare against the paper's pinned witnesses, sympy and the naive
oracles in taskgen, never against sdpc's own view of its output.
"""

from __future__ import annotations

import contextlib
import io
import json
from bisect import bisect_right
from math import isqrt
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import sdpc
from sdpc.cli import main as cli_main

import taskgen

# The paper's witnesses for coverage 8 (+-5, +-7, +-11, +-13). Coverage c
# (no free steps up to 8) has the first c elements of A and c - 1 of B.
PINNED_A = (1, 11, 625, 3587, 42305, 2132467, 1655127457, 68092385285)
PINNED_B = (6, 618, 3594, 42294, 2132478, 1655127444, 68092385298)
PINNED_COVERAGE = 8

# frontier-9 examines exactly this many candidates for target -17 and
# stops; a power of two keeps every segment of the default size full.
FRONTIER_BUDGET = 1 << 23
SEARCH_MIX_TASKS = 300
# A pass is timed in this many parts, with reference samples between them
# (see calibrate.py); a whole pass lasts seconds, over which the machine's
# speed moves.
SEARCH_MIX_PARTS = 10


@dataclass
class Op:
    """One timed operation and what it produced, for checking later.

    `parts` splits the operation's seconds and searches into the pieces
    timed one after another, (seconds, searches made); an operation that
    cannot be split is one part.
    """

    seconds: float
    searches: list
    rc: int | None = None
    state_path: Path | None = None
    output: str = ""
    parts: list = field(default_factory=list)

    def __post_init__(self):
        if not self.parts:
            self.parts = [(self.seconds, len(self.searches))]


@dataclass
class Outcome:
    """Operations attempted and failed, with the first errors."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:3])


def run_cli(recorder, argv: list[str]) -> tuple[int, str]:
    """Call sdpc.cli.main in process, keeping its printout for the checks."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        rc = recorder.call("cli.main", cli_main, (argv,), {})
    return rc, buffer.getvalue()


def replay_pinned():
    """The coverage-8 state rebuilt from the pinned witnesses.

    Each witness goes through plan_step and apply_step, which re-certify
    every new difference, in the order run() takes targets (a target an
    earlier witness already covers is a free step). Returns the state and
    a list of mismatches with the paper, empty when all is well.
    """
    state = sdpc.initial_state(sdpc.Config())
    for x in PINNED_A[len(state.a):]:
        target = sdpc.signed_primes(state.n + 1)
        while target in state.represented:
            state = sdpc.extend_pairs(replace(state, n=state.n + 1))
            target = sdpc.signed_primes(state.n + 1)
        plan = sdpc.plan_step(state, target)
        state = sdpc.extend_pairs(sdpc.apply_step(state, plan, x))
    return state, state_errors(state, "replayed", PINNED_COVERAGE)


def state_errors(state, label: str, coverage: int) -> list[str]:
    """Mismatches between a state at `coverage` and the paper's witnesses."""
    errors = []
    report = sdpc.verify(state)
    if not report.ok:
        errors.append(f"{label} state fails verify: {[c.name for c in report.failures()]}")
    if report.certification != sdpc.ALL_CERTIFIED:
        errors.append(f"{label} state is {report.certification}")
    if report.coverage != coverage:
        errors.append(f"{label} state has coverage {report.coverage}, expected {coverage}")
    if state.a != PINNED_A[:coverage] or state.b != PINNED_B[: coverage - 1]:
        errors.append(f"{label} state A={state.a} B={state.b} differs from the paper")
    return errors


def sympy_errors(state) -> list[str]:
    """Every difference a - b prime above 3 in absolute value and distinct, by sympy."""
    import sympy

    diffs = [a - b for a in state.a for b in state.b]
    bad = [d for d in diffs if abs(d) <= 3 or not sympy.isprime(abs(d))]
    errors = [f"sympy rejects differences {bad[:4]}"] if bad else []
    if len(set(diffs)) != len(diffs):
        errors.append("differences repeat")
    return errors


class Construct:
    """`sdpc run --target N` from no state, with the default config."""

    def __init__(self, work: Path, target: int):
        self.work = work
        self.target = target

    def prepare(self) -> None:
        pass

    def setup_checks(self) -> list[list[str]]:
        return []

    def op(self, recorder, index: int, pause=None) -> Op:
        path = self.work / f"construct{self.target}-{index}.json"
        argv = ["run", "--target", str(self.target), "--state", str(path)]
        start = len(recorder.searches)
        t0 = perf_counter()
        rc, output = run_cli(recorder, argv)
        seconds = perf_counter() - t0
        return Op(seconds, recorder.searches[start:], rc, path, output)

    def check(self, op: Op) -> list[list[str]]:
        return [self._check(op)]

    def _check(self, op: Op) -> list[str]:
        errors = [] if op.rc == 0 else [f"exit code {op.rc}: {op.output[-300:]}"]
        witnesses = [s.witness for s in op.searches]
        if witnesses != list(PINNED_A[2 : self.target]):
            errors.append(f"search witnesses {witnesses} differ from the paper")
        if not op.state_path.exists():
            return errors + ["no state written"]
        state = sdpc.load_state(op.state_path)
        return errors + state_errors(state, "constructed", self.target) + sympy_errors(state)


class Frontier9:
    """`sdpc run --target 9 --budget B` resumed from the replayed coverage-8 state."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.state_path = work / "coverage8.json"
        self.prepare_errors: list[str] = []

    def prepare(self) -> None:
        state, self.prepare_errors = replay_pinned()
        sdpc.save_state(state, self.state_path)

    def setup_checks(self) -> list[list[str]]:
        """The replay counts as one operation: it must match the paper."""
        return [self.prepare_errors]

    def op(self, recorder, index: int, pause=None) -> Op:
        out = self.work / f"frontier9-{index}.json"
        argv = ["run", "--target", "9", "--budget", str(FRONTIER_BUDGET),
                "--state", str(self.state_path), "--out", str(out)]
        start = len(recorder.searches)
        t0 = perf_counter()
        rc, output = run_cli(recorder, argv)
        seconds = perf_counter() - t0
        return Op(seconds, recorder.searches[start:], rc, out, output)

    def check(self, op: Op) -> list[list[str]]:
        return [self._check(op)]

    def _check(self, op: Op) -> list[str]:
        errors = [] if op.rc == 2 else [f"exit code {op.rc}, expected 2 (exhausted)"]
        found = [(s.witness, s.examined) for s in op.searches]
        if found != [(None, FRONTIER_BUDGET)]:
            errors.append(f"searches {found}, expected one exhausting {FRONTIER_BUDGET}")
        if not op.state_path.exists():
            return errors + ["no state written"]
        return errors + state_errors(sdpc.load_state(op.state_path), "resumed", PINNED_COVERAGE)


class SearchMix:
    """A seeded list of small, independent constellation searches."""

    def __init__(self, work: Path, seed: int):
        # Shared by the processes of one run, so all search the same list.
        self.tasks_path = work.parent / "tasks.json"
        if self.tasks_path.exists():
            rows = json.loads(self.tasks_path.read_text(encoding="utf-8"))
            self.expected = [taskgen.Task(tuple(r[0]), *r[1:]) for r in rows]
        else:
            self.expected = taskgen.generate(seed, SEARCH_MIX_TASKS)
            rows = [[list(t.q_primes), t.t, list(t.offsets), t.start, t.sieve_limit,
                     t.witness, t.depth] for t in self.expected]
            self.tasks_path.write_text(json.dumps(rows), encoding="utf-8")
        self.tasks = []
        self._witness_ok: dict[int, list[str]] = {}

    def prepare(self) -> None:
        self.tasks = [
            sdpc.ConstellationTask(
                sdpc.TupleSystem(sdpc.CrtClass(t.q, t.t, t.q_primes), tuple(t.offsets)),
                start=t.start,
                budget=taskgen.SEARCH_BUDGET,
                sieve_limit=t.sieve_limit,
            )
            for t in self.expected
        ]

    def setup_checks(self) -> list[list[str]]:
        return []

    def op(self, recorder, index: int, pause=None) -> Op:
        """One pass over the tasks, in SEARCH_MIX_PARTS parts with a call
        to pause(seconds of the part) between two parts."""
        search = recorder.wrap("search.search_with_count", sdpc.search_with_count)
        start = len(recorder.searches)
        size = -(-len(self.tasks) // SEARCH_MIX_PARTS)
        parts = []
        for lo in range(0, len(self.tasks), size):
            if parts and pause is not None:
                pause(parts[-1][0])
            t0 = perf_counter()
            for task in self.tasks[lo : lo + size]:
                search(task)
            parts.append((perf_counter() - t0, len(self.tasks[lo : lo + size])))
        return Op(sum(seconds for seconds, _ in parts), recorder.searches[start:], parts=parts)

    def check(self, op: Op) -> list[list[str]]:
        if len(op.searches) != len(self.expected):
            return [[f"{len(op.searches)} searches ran of {len(self.expected)}"]]
        return [self._check(i, call) for i, call in enumerate(op.searches)]

    def _check(self, i: int, call) -> list[str]:
        want = self.expected[i]
        errors = []
        if (call.witness, call.examined) != (want.witness, want.depth):
            errors.append(
                f"task {i}: got ({call.witness}, {call.examined}), naive scan gives "
                f"({want.witness}, {want.depth})"
            )
        if i not in self._witness_ok:
            self._witness_ok[i] = _witness_errors(want)
        return errors + self._witness_ok[i]


def _witness_errors(task: taskgen.Task) -> list[str]:
    """The naive scan's witness checked again with sympy."""
    import sympy

    x = task.witness
    ok = x % task.q == task.t and x >= task.start and all(
        abs(x + d) > 3 and sympy.isprime(abs(x + d)) for d in task.offsets
    )
    return [] if ok else [f"sympy rejects witness {x} for {task}"]


# construct-8 is the paper's headline run. One operation takes 35-50 s, too
# long to repeat within a benchmark run, so it is not in BENCHMARK.json;
# construct-7 measures the same pipeline and repeats.
WORKLOADS = {
    "construct-7": lambda work, seed: Construct(work, 7),
    "construct-8": lambda work, seed: Construct(work, 8),
    "frontier-9": Frontier9,
    "search-mix": SearchMix,
}


def sieve_entries(tasks) -> int:
    """(prime, offset) pairs the searches of `tasks` sieve with.

    Per task: the primes up to its sieve limit that do not divide q, times
    its offset count, counted with the benchmark's own prime table.
    """
    if not tasks:
        return 0
    limit = max(task.sieve_limit for task in tasks)
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    primes = [p for p in range(limit + 1) if flags[p]]
    total = 0
    for task in tasks:
        crt = task.system.crt
        below = primes[: bisect_right(primes, task.sieve_limit)]
        factors = crt.primes if crt.primes is not None else [p for p in below if crt.modulus % p == 0]
        kept = len(below) - sum(1 for p in factors if p <= task.sieve_limit)
        total += len(task.system.offsets) * kept
    return total
