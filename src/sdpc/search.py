"""Constellation search over a CRT progression.

Candidates are x = t + k*q for k = 0, 1, 2, ... A segmented sieve strikes
a candidate when some prime p <= sieve_limit, p not dividing q, divides
x + d for an offset d, except when |x + d| equals p itself: that value IS
the prime p and must not be discarded. Survivors then face real primality
tests through is_prime. The scan is strictly ordered by k, so the witness
returned is the smallest member of the progression that works, whatever
the segment size, sieve limit or number of worker threads.

A search sieves windows of k that start at FIRST_WINDOW candidates and
double until they reach segment_size, so a witness found early costs
about its own depth rather than a whole segment. A window's survivors
are kept as indices and become integers x only as they are certified,
up to the witness.

Prime p strikes k exactly when k = k0 (mod p), k0 = -(t + d) / q mod p,
one class per offset. Each search builds one read-only plan of these
classes, and every window reuses it. The plan has three tiers:

1. Pre-sieve patterns. The primes whose classes cover at least
   1/PRESIEVE_DENSITY of all k are packed into groups whose product, the
   pattern's period, stays at most PATTERN_PERIOD (and at most an eighth
   of the longest window). Each group becomes one periodic boolean
   pattern, false on every struck class. A window starts as a slice of
   the first pattern and is ANDed with the others.
2. Middle primes: one strided write per distinct (p, k0), so offsets that
   coincide mod p share one write.
3. Large primes, those hitting a window fewer than SCATTER_HITS times:
   their hit positions are computed as arrays and struck in scatters.

Forgiveness needs |x + d| = p <= sieve_limit, so it can only happen in a
few windows at the bottom of the progression. The tiers strike blindly;
afterwards, in those windows only, every struck k with some |x + d| a
sieving prime is re-decided exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .admissible import InadmissibleSystemError, TupleSystem, is_admissible
from .primes import CERTIFIED_LIMIT, is_prime_exact, is_probable_prime, primes_up_to


# Chosen by a sweep over the construction's own step plans (CHANGES.md).
DEFAULT_SIEVE_LIMIT = 400
# A search's first window, from a sweep (CHANGES.md); later windows double
# up to segment_size.
FIRST_WINDOW = 1 << 11
PRESIEVE_DENSITY = 32
PATTERN_PERIOD = 1 << 17
SCATTER_HITS = 32
# Hits per indexed write, which bounds the scatter's index arrays.
SCATTER_BATCH = 1 << 16


class PrimalityStatus(Enum):
    CERTIFIED = "certified-prime"
    PROBABLE = "probable-prime"
    COMPOSITE = "composite"
    UNIT_OR_SMALL = "unit-or-small"


@dataclass(frozen=True)
class PrimalityVerdict:
    value: int
    status: PrimalityStatus
    rounds: int | None = None

    @property
    def accepted(self) -> bool:
        return self.status in (PrimalityStatus.CERTIFIED, PrimalityStatus.PROBABLE)


def is_prime(n: int, rounds: int = 24) -> PrimalityVerdict:
    """Primality verdict for a signed integer; the sign is ignored.

    |n| below 2**64 gets a deterministic (certified) answer; above that
    the verdict is probable-prime with the given round count.
    """
    v = abs(n)
    if v <= 1:
        return PrimalityVerdict(n, PrimalityStatus.UNIT_OR_SMALL)
    if v < CERTIFIED_LIMIT:
        ok = is_prime_exact(v)
        return PrimalityVerdict(
            n, PrimalityStatus.CERTIFIED if ok else PrimalityStatus.COMPOSITE
        )
    if is_probable_prime(v, rounds):
        return PrimalityVerdict(n, PrimalityStatus.PROBABLE, rounds=rounds)
    return PrimalityVerdict(n, PrimalityStatus.COMPOSITE)


@dataclass(frozen=True)
class ConstellationTask:
    """What to search: the system, where to start, and the budgets."""

    system: TupleSystem
    start: int = 0
    budget: int = 10**8
    sieve_limit: int = DEFAULT_SIEVE_LIMIT
    exclusions: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.start < 0:
            raise ValueError("start must be nonnegative")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if not 2 <= self.sieve_limit < 1 << 31:
            raise ValueError("sieve_limit must be at least 2 and below 2**31")
        object.__setattr__(self, "exclusions", frozenset(self.exclusions))


class SearchExhausted(RuntimeError):
    """The candidate budget ran out before a witness appeared.

    Says nothing about existence: a witness may lie beyond the budget.
    """

    def __init__(self, examined: int):
        super().__init__(f"search exhausted after examining {examined} candidates")
        self.examined = examined


def _residues(n: int, moduli: np.ndarray) -> np.ndarray:
    """n mod m for every modulus m < 2**31, exact for any Python int n:
    Horner's rule over n's 31-bit digits keeps every product in int64."""
    r = np.zeros_like(moduli)
    a = abs(n)
    for shift in range(31 * ((a.bit_length() - 1) // 31), -1, -31):
        r = ((r << 31) | ((a >> shift) & 0x7FFFFFFF)) % moduli
    return -r % moduli if n < 0 else r


def _inverses(a: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """a**-1 mod p for every prime p not dividing a, by Fermat: a**(p-2)."""
    result = np.ones_like(a)
    e = primes - 2
    while e.any():
        result = np.where(e & 1, result * a % primes, result)
        a = a * a % primes
        e >>= 1
    return result


def _hit_classes(task: ConstellationTask) -> tuple[np.ndarray, np.ndarray]:
    """The sieving primes (p <= sieve_limit, p not dividing q) and, per
    prime and offset, the class k0 mod p of the k where p | t + k*q + d."""
    q = task.system.crt.modulus
    t = task.system.crt.residue
    # one cached table per power of two, cut at the limit
    table = primes_up_to(1 << (task.sieve_limit - 1).bit_length())
    primes = np.fromiter(table, np.int64, bisect_right(table, task.sieve_limit))
    q_mod = _residues(q, primes)
    keep = q_mod != 0
    primes = primes[keep]
    q_inv = _inverses(q_mod[keep], primes)
    k0 = np.empty((len(primes), len(task.system.offsets)), np.int64)
    for i, d in enumerate(task.system.offsets):
        k0[:, i] = -_residues(t + d, primes) % primes * q_inv % primes
    return primes, k0


def _sieve_entries(task: ConstellationTask) -> np.ndarray:
    """(p, k0) rows, one per sieving prime and offset, in that order;
    perfbench checks its entry count against these."""
    primes, k0 = _hit_classes(task)
    return np.column_stack([np.repeat(primes, k0.shape[1]), k0.ravel()])


def _patterns(ps: np.ndarray, ks: np.ndarray, period: int) -> list[np.ndarray]:
    """Pre-sieve patterns over k, one period each: the primes packed
    first-fit decreasing into groups of product <= period."""
    classes: dict[int, list[int]] = {}
    for p, k in zip(ps.tolist(), ks.tolist()):
        classes.setdefault(p, []).append(k)
    groups: list[list[int]] = []
    for p in sorted(classes, reverse=True):
        for g in groups:
            if g[0] * p <= period:
                g[0] *= p
                g.append(p)
                break
        else:
            groups.append([p, p])
    patterns = []
    for size, *members in groups:
        pattern = np.ones(size, bool)
        for p in members:
            for k0 in classes[p]:
                pattern[k0::p] = False
        patterns.append(pattern)
    return patterns


def _scatter(alive: np.ndarray, first: np.ndarray, primes: np.ndarray) -> None:
    """Strike alive[first + i*p] for every entry and every i in range, each
    batch of entries in one indexed write; batches bound the index arrays."""
    n = len(alive)
    batch = SCATTER_BATCH // SCATTER_HITS
    for a in range(0, len(primes), batch):
        f, p = first[a : a + batch], primes[a : a + batch]
        count = (n - f + p - 1) // p
        start = np.repeat(f - (np.cumsum(count) - count) * p, count)
        alive[start + np.arange(count.sum()) * np.repeat(p, count)] = False


class _SievePlan:
    """One task's sieve, read-only once built; segments may share it
    across threads. See the module docstring for the tiers."""

    def __init__(self, task: ConstellationTask, span: int):
        self.q = task.system.crt.modulus
        self.t = task.system.crt.residue
        self.offsets = task.system.offsets
        self.primes, k0 = _hit_classes(task)
        # one entry per distinct (p, k0): offsets that coincide mod p merge
        k0 = np.sort(k0, axis=1)
        distinct = np.ones(k0.shape, bool)
        distinct[:, 1:] = k0[:, 1:] != k0[:, :-1]
        ps = np.broadcast_to(self.primes[:, None], k0.shape)
        # pre-sieved: primes striking at least 1/PRESIEVE_DENSITY of all k,
        # in periods short enough for a window of `span` to repeat 8 times
        period = min(PATTERN_PERIOD, span // 8)
        dense = distinct.sum(axis=1) * PRESIEVE_DENSITY >= self.primes
        dense &= self.primes <= period
        pick = distinct & dense[:, None]
        self.patterns = _patterns(ps[pick], k0[pick], period)
        pick = distinct & ~dense[:, None]
        self.rest_p, self.rest_k0 = ps[pick], k0[pick]
        self.rest_primes = self.rest_p.tolist()
        # k-ranges where some |x + d| <= sieve_limit, the only place
        # a value can equal a sieving prime
        limit = task.sieve_limit
        self.zones = []
        for d in self.offsets:
            z_lo = max(0, -((limit + d + self.t) // self.q))
            z_hi = (limit - d - self.t) // self.q + 1
            if z_lo < z_hi:
                self.zones.append((d, z_lo, z_hi))

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Indices j, ascending, of the surviving x = t + (lo + j)*q for
        k in [lo, hi). Kept relative to lo: k itself may not fit int64."""
        n = hi - lo
        if n <= 0:
            return np.empty(0, np.int64)
        alive = np.full(n, not self.patterns)
        for i, pattern in enumerate(self.patterns):
            size = len(pattern)
            s = lo % size
            if s + n <= size:
                # within one period, as a search's first windows often are
                parts = ((alive, pattern[s : s + n]),)
            else:
                # the window as a head, whole periods, and a tail
                head = size - s
                whole = (n - head) // size
                tail = n - head - whole * size
                parts = (
                    (alive[:head], pattern[s:]),
                    (alive[head : head + whole * size].reshape(whole, size), pattern),
                    (alive[n - tail :], pattern[:tail]),
                )
            for view, part in parts:
                if i:
                    view &= part
                else:
                    view[...] = part
        if self.rest_primes:
            first = (self.rest_k0 - _residues(lo, self.rest_p)) % self.rest_p
            # a prime hitting the window SCATTER_HITS times or more gets
            # a strided write, the rest are gathered into scatters
            split = int(np.searchsorted(self.rest_p, -(-n // SCATTER_HITS)))
            for f, p in zip(first[:split].tolist(), self.rest_primes[:split]):
                alive[f::p] = False
            _scatter(alive, first[split:], self.rest_p[split:])
        self._forgive(alive, lo, hi)
        return np.flatnonzero(alive)

    def _forgive(self, alive: np.ndarray, lo: int, hi: int) -> None:
        """Re-decide, exactly, struck k in [lo, hi) where some |x + d| is
        itself a sieving prime: that prime's strike must not count."""
        q, t = self.q, self.t
        recheck = []
        for d, z_lo, z_hi in self.zones:
            a, b = max(z_lo, lo), min(z_hi, hi)
            if a >= b:
                continue
            # x + d lies in [-sieve_limit, sieve_limit]; a zone two or more
            # candidates long has q <= 2 * sieve_limit, so this fits int64
            step = q if b - a > 1 else 0
            values = np.abs(t + d + a * q + step * np.arange(b - a))
            recheck.append(np.flatnonzero(np.isin(values, self.primes)) + (a - lo))
        if not recheck:
            return
        js = np.unique(np.concatenate(recheck))
        for j in js[~alive[js]].tolist():
            x = t + (lo + j) * q
            alive[j] = not any(self._struck(x + d) for d in self.offsets)

    def _struck(self, v: int) -> bool:
        """Whether some sieving prime p divides v with p != |v|."""
        below = self.primes[: np.searchsorted(self.primes, abs(v))] if v else self.primes
        return bool((_residues(v, below) == 0).any())


def sieve_segment(task: ConstellationTask, lo: int, hi: int) -> list[int]:
    """Surviving x = t + k*q for k in [lo, hi), ascending.

    Sound: a candidate is only discarded when some sieving prime p
    properly divides one of its offset values (|x + d| != p), so every x
    whose offset values are all primes above 3 survives.
    """
    if lo < 0 or hi < lo:
        raise ValueError("bad segment bounds")
    plan = _SievePlan(task, hi - lo)
    return [plan.t + (lo + j) * plan.q for j in plan.window(lo, hi).tolist()]


def _witness_ok(task: ConstellationTask, x: int, rounds: int) -> bool:
    for d in task.system.offsets:
        value = x + d
        if abs(value) <= 3:
            return False
        if not is_prime(value, rounds).accepted:
            return False
    return True


def search_with_count(
    task: ConstellationTask,
    segment_size: int = 1 << 16,
    workers: int = 1,
    rounds: int = 24,
) -> tuple[int | None, int]:
    """Core scan. Returns (witness, candidates examined) or (None, budget).

    Windows of k start at FIRST_WINDOW candidates and double until they
    reach segment_size, the largest window. The candidate count is the
    number of progression members considered, counted before sieving, so
    exhaustion means exactly `budget` of them were covered. Workers only
    parallelize window sieving; results are consumed strictly in window
    order, keeping the answer bit-identical to a single-threaded scan.
    """
    if segment_size < 1:
        raise ValueError("segment_size must be positive")
    obstruction = is_admissible(task.system)
    if obstruction is not None:
        raise InadmissibleSystemError(obstruction)
    q = task.system.crt.modulus
    t = task.system.crt.residue
    k_start = max(0, -((t - task.start) // q))
    k_end = k_start + task.budget
    plan = _SievePlan(task, min(segment_size, task.budget))

    def finish(lo: int, survivors: np.ndarray) -> int | None:
        for j in survivors.tolist():
            x = t + (lo + j) * q
            if x in task.exclusions:
                continue
            if _witness_ok(task, x, rounds):
                return x
        return None

    def windows():
        lo, size = k_start, min(FIRST_WINDOW, segment_size)
        while lo < k_end:
            hi = min(lo + size, k_end)
            yield lo, hi
            lo, size = hi, min(2 * size, segment_size)

    if workers <= 1:
        for lo, hi in windows():
            x = finish(lo, plan.window(lo, hi))
            if x is not None:
                return x, (x - t) // q - k_start + 1
        return None, task.budget

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        gen = windows()
        exhausted_gen = False
        while True:
            while not exhausted_gen and len(pending) <= workers:
                try:
                    lo, hi = next(gen)
                except StopIteration:
                    exhausted_gen = True
                    break
                pending.append((lo, pool.submit(plan.window, lo, hi)))
            if not pending:
                return None, task.budget
            lo, future = pending.popleft()
            x = finish(lo, future.result())
            if x is not None:
                return x, (x - t) // q - k_start + 1


def next_constellation(
    task: ConstellationTask,
    segment_size: int = 1 << 16,
    workers: int = 1,
    rounds: int = 24,
) -> int:
    """Smallest x >= start in the class with every |x + d| prime and > 3.

    Raises InadmissibleSystemError for a doomed system and SearchExhausted
    once `budget` candidates have been examined without a witness.
    """
    x, examined = search_with_count(task, segment_size, workers, rounds)
    if x is None:
        raise SearchExhausted(examined)
    return x
