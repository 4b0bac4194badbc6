"""Constellation search over a CRT progression.

Candidates are x = t + k*q for k = 0, 1, 2, ... A segmented sieve strikes
a candidate when some prime p <= sieve_limit, p not dividing q, divides
x + d for an offset d, except when |x + d| equals p itself: that value IS
the prime p and must not be discarded. Survivors then face real primality
tests through is_prime. The scan is strictly ordered by k, so the witness
returned is the smallest member of the progression that works, whatever
the segment size or sieve limit.

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
   pattern, false on every struck class. They are ordered densest first
   by the share of k they keep, prod(1 - c/p) over their primes p of c
   classes each. A window starts as a slice of the first pattern and is
   ANDed with the others.
2. Middle primes: one strided write per distinct (p, k0), so offsets that
   coincide mod p share one write.
3. Large primes, those hitting a window fewer than SCATTER_HITS times:
   their hit positions are computed as arrays and struck in scatters,
   one indexed write for all the primes that hit at most once.

With a dozen offsets the first few patterns leave almost no k alive. So
a long window ANDs a pattern only while those before it keep at least
1/GATHER_COST of all k; after tiers 2 and 3 it tests its few survivors j
against all the other patterns in one indexed read of
pattern[(lo + j) mod period]. A window gathers only when ANDing those
patterns would pass GATHER_BYTES bytes (their count times its length);
shorter windows AND every pattern.

Set-up costs a few NumPy passes per (prime, offset) entry. q is inverted
mod every sieving prime from q's prime factors: for a factor r < 2**31,
r**-1 = (1 + p*j) / r mod p with j = -p**-1 mod r, which is Fermat in r
with one scalar exponent, r - 2, for all p at once; what is left of q
(factors from 2**31 up, or a q too large to factor) is inverted prime by
prime. Then k0 = (t mod p + d) * -q**-1 mod p for all offsets in one
pass. Offsets d and d' share a class mod p only when p | d - d', so only
the primes up to the offsets' spread are sorted and merged, and only those
up to min(pattern period, PRESIEVE_DENSITY * offsets) can be pre-sieved;
every later prime goes to tiers 2 and 3 with one entry per offset.

Forgiveness needs |x + d| = p <= sieve_limit, so it can only happen in a
few windows at the bottom of the progression. The tiers strike blindly;
afterwards, in those windows only, every struck k with some |x + d| a
sieving prime is re-decided exactly. Such a window ANDs every pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .admissible import InadmissibleSystemError, TupleSystem, is_admissible
from .primes import CERTIFIED_LIMIT, is_prime_exact, is_probable_prime, prime_factors, primes_up_to


# Chosen by a sweep over the construction's own step plans (CHANGES.md).
DEFAULT_SIEVE_LIMIT = 400
# A search's first window, from a sweep (CHANGES.md); later windows double
# up to segment_size.
FIRST_WINDOW = 1 << 11
PRESIEVE_DENSITY = 32
PATTERN_PERIOD = 1 << 17
SCATTER_HITS = 32
# A pattern is ANDed while the denser ones keep at least 1/GATHER_COST of
# all k; a window gathers from the rest once ANDing them would pass
# GATHER_BYTES bytes. Both from sweeps (CHANGES.md).
GATHER_COST = 1 << 12
GATHER_BYTES = 1 << 18
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


def check_sieve_limit(limit: int) -> None:
    """Refuse a sieve limit below 2, which sieves nothing, or from 2**31
    on, where the sieve's int64 products would overflow."""
    if not 2 <= limit < 1 << 31:
        raise ValueError("sieve_limit must be at least 2 and below 2**31")


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
        check_sieve_limit(self.sieve_limit)
        object.__setattr__(self, "exclusions", frozenset(self.exclusions))


def _residues(n: int, moduli: np.ndarray) -> np.ndarray:
    """n mod m for every modulus m < 2**31, exact for any Python int n:
    Horner's rule over n's 31-bit digits keeps every product in int64."""
    r = np.zeros_like(moduli)
    a = abs(n)
    for shift in range(31 * ((a.bit_length() - 1) // 31), -1, -31):
        r = ((r << 31) | ((a >> shift) & 0x7FFFFFFF)) % moduli
    return -r % moduli if n < 0 else r


def _q_inverses(q: int, factors: tuple[int, ...], primes: np.ndarray) -> np.ndarray:
    """q**-1 mod p for every prime p < 2**31 not dividing q.

    Per prime factor r < 2**31 of q: with j = p**-1 mod r, 1 + p*(r - j)
    is a multiple of r, and r**-1 = (1 + p*(r - j)) / r mod p, a quotient
    below p. j is Fermat in r, (p mod r)**(r - 2), one scalar exponent for
    all p. The rest of q (factors from 2**31 up, or a q too large to
    factor) is inverted prime by prime.
    """
    inv = np.ones_like(primes)
    for r in factors:
        if r >= 1 << 31:
            continue
        q //= r
        # left to right over the exponent's bits
        j = 1
        if r > 2:
            a = j = primes % r
            for bit in bin(r - 2)[3:]:
                j = j * j % r
                if bit == "1":
                    j = j * a % r
        inv = inv * ((1 + primes * (r - j)) // r) % primes
    if q > 1:
        rest = zip(_residues(q, primes).tolist(), primes.tolist())
        inv = inv * np.array([pow(a, -1, p) for a, p in rest], np.int64) % primes
    return inv


# bound -> (primes_up_to(bound), the same primes as an int64 array)
_PRIME_ARRAYS: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}


def _prime_array(bound: int) -> np.ndarray:
    """primes_up_to(bound) as an array, converted once per table."""
    table = primes_up_to(bound)
    cached = _PRIME_ARRAYS.get(bound)
    if cached is None or cached[0] is not table:
        cached = _PRIME_ARRAYS[bound] = (table, np.array(table, np.int64))
    return cached[1]


def _hit_classes(task: ConstellationTask) -> tuple[np.ndarray, np.ndarray]:
    """The sieving primes (p <= sieve_limit, p not dividing q) and, per
    offset and prime, the class k0 mod p of the k where p | t + k*q + d:
    one row per offset."""
    crt = task.system.crt
    q, offsets = crt.modulus, task.system.offsets
    # one cached table per power of two, cut at the limit
    primes = _prime_array(1 << (task.sieve_limit - 1).bit_length())
    primes = primes[: np.searchsorted(primes, task.sieve_limit, "right")]
    primes = primes[_residues(q, primes) != 0]
    factors = crt.primes
    if factors is None:
        factors = prime_factors(q) if q < CERTIFIED_LIMIT else ()
    neg_inv = primes - _q_inverses(q, factors, primes)
    # k0 = (t + d) * -q**-1 mod p. Below 2**31 an offset joins t mod p as
    # it is; |t mod p + d| < 2**32 keeps the products in int64.
    small = [d if abs(d) < 1 << 31 else 0 for d in offsets]
    k0 = np.array(small, np.int64)[:, None] + _residues(crt.residue, primes)
    for i, d in enumerate(offsets):
        if d != small[i]:
            k0[i] += _residues(d, primes)
    k0 *= neg_inv
    k0 %= primes
    return primes, k0


def _sieve_entries(task: ConstellationTask) -> np.ndarray:
    """(p, k0) rows, one per sieving prime and offset, in that order;
    perfbench checks its entry count against these."""
    primes, k0 = _hit_classes(task)
    return np.column_stack([np.repeat(primes, len(k0)), k0.T.ravel()])


def _patterns(
    ps: np.ndarray, ks: np.ndarray, period: int
) -> tuple[list[np.ndarray], np.ndarray, int]:
    """Pre-sieve patterns over k, one period each: the primes packed
    first-fit decreasing into groups of product <= period, densest first
    by the share of k each keeps. Returns them as views into one array,
    that array, and the count of the last ones, to be gathered from: a
    pattern is ANDed while those before it keep 1/GATHER_COST of all k."""
    classes: dict[int, list[int]] = {}
    for p, k in zip(ps.tolist(), ks.tolist()):
        classes.setdefault(p, []).append(k)
    # [period, share of k kept, member primes]
    groups: list[list] = []
    for p in sorted(classes, reverse=True):
        keep = 1 - len(classes[p]) / p
        for g in groups:
            if g[0] * p <= period:
                g[0] *= p
                g[1] *= keep
                g.append(p)
                break
        else:
            groups.append([p, keep, p])
    groups.sort(key=lambda g: g[1])
    anded, kept = 0, 1.0
    while anded < len(groups) and kept * GATHER_COST >= 1:
        kept *= groups[anded][1]
        anded += 1
    # one allocation, which the next search's plan reuses without page faults
    flat = np.ones(sum(g[0] for g in groups), bool)
    patterns, start = [], 0
    for size, _, *members in groups:
        pattern = flat[start : start + size]
        start += size
        for p in members:
            for k0 in classes[p]:
                pattern[k0::p] = False
        patterns.append(pattern)
    return patterns, flat, len(groups) - anded


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
    """One task's sieve, read-only once built; every window of the
    search reuses it. See the module docstring for the tiers."""

    def __init__(self, task: ConstellationTask, span: int):
        self.q = task.system.crt.modulus
        self.t = task.system.crt.residue
        self.offsets = task.system.offsets
        self.primes, k0 = _hit_classes(task)
        m = len(self.offsets)
        # pre-sieved: primes striking at least 1/PRESIEVE_DENSITY of all k,
        # in periods short enough for a window of `span` to repeat 8 times
        period = min(PATTERN_PERIOD, span // 8)
        # One entry per distinct (p, k0). Only the head of primes can have
        # coinciding classes (p up to the offsets' spread) or be pre-sieved
        # (p up to min(period, m * PRESIEVE_DENSITY)); every later prime
        # has m distinct classes and goes to the other tiers as it is.
        spread = max(self.offsets, default=0) - min(self.offsets, default=0)
        bound = min(max(spread, min(period, m * PRESIEVE_DENSITY)), 1 << 62)
        head = int(np.searchsorted(self.primes, bound, "right"))
        head_k0 = np.sort(k0[:, :head].T, axis=1)
        distinct = np.ones(head_k0.shape, bool)
        distinct[:, 1:] = head_k0[:, 1:] != head_k0[:, :-1]
        head_p = self.primes[:head]
        dense = distinct.sum(axis=1) * PRESIEVE_DENSITY >= head_p
        dense &= head_p <= period
        head_p = np.broadcast_to(head_p[:, None], head_k0.shape)
        pick = distinct & dense[:, None]
        self.patterns, self.flat, self.gathered = _patterns(head_p[pick], head_k0[pick], period)
        if self.gathered:
            # each gathered pattern's period and start in self.flat
            sizes = np.array([len(pattern) for pattern in self.patterns], np.int64)[:, None]
            self.gather_size = sizes[-self.gathered :]
            self.gather_start = (np.cumsum(sizes)[:, None] - sizes)[-self.gathered :]
        # the other tiers' entries, ascending in p, and their count per prime
        pick = distinct & ~dense[:, None]
        self.rest_count = np.full(len(self.primes), m)
        self.rest_count[:head] = pick.sum(axis=1)
        self.rest_p = np.repeat(self.primes, self.rest_count)
        self.rest_k0 = np.concatenate((head_k0[pick], k0[:, head:].T.ravel()))
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
        # gather when ANDing the sparse patterns would pass GATHER_BYTES;
        # forgiveness re-decides struck k, so it needs the whole window
        gathered = self.gathered
        if gathered * n < GATHER_BYTES or any(a < hi and lo < b for _, a, b in self.zones):
            gathered = 0
        anded = self.patterns[: len(self.patterns) - gathered]
        # whole 8-byte words, so a gathering window can find its few
        # survivors a word at a time
        words = np.zeros(-(-n // 8), np.uint64)
        alive = words.view(bool)[:n]
        if not anded:
            alive[:] = True
        for i, pattern in enumerate(anded):
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
        if len(self.rest_p):
            # lo mod p once per prime, then per entry k0 - lo in [0, p)
            first = self.rest_k0 - np.repeat(_residues(lo, self.primes), self.rest_count)
            first += self.rest_p * (first < 0)
            # a prime hitting the window SCATTER_HITS times or more gets
            # a strided write, the rest are batched into scatters
            split = int(np.searchsorted(self.rest_p, -(-n // SCATTER_HITS)))
            once = int(np.searchsorted(self.rest_p, n))
            for f, p in zip(first[:split].tolist(), self.rest_p[:split].tolist()):
                alive[f::p] = False
            _scatter(alive, first[split:once], self.rest_p[split:once])
            # a prime of at least n hits the window at most once
            first = first[once:]
            alive[first[first < n]] = False
        if not gathered:
            self._forgive(alive, lo, hi)
            return np.flatnonzero(alive)
        live = np.flatnonzero(words != 0)
        row, byte = np.nonzero(words[live, None].view(bool))
        js = live[row] * 8 + byte
        size = self.gather_size
        pos = (js + _residues(lo, size)) % size + self.gather_start
        return js[self.flat[pos].all(axis=0)]

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
    rounds: int = 24,
) -> tuple[int | None, int]:
    """Smallest x >= start in the class with every |x + d| prime and > 3.

    Returns (witness, candidates examined), or (None, budget) once
    `budget` candidates have been examined without a witness; that says
    nothing about existence, since a witness may lie beyond the budget.
    Raises InadmissibleSystemError for a doomed system.

    Windows of k start at FIRST_WINDOW candidates and double until they
    reach segment_size, the largest window. The candidate count is the
    number of progression members considered, counted before sieving, so
    exhaustion means exactly `budget` of them were covered.
    """
    if segment_size < 1:
        raise ValueError("segment_size must be positive")
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    obstruction = is_admissible(task.system)
    if obstruction is not None:
        raise InadmissibleSystemError(obstruction)
    q = task.system.crt.modulus
    t = task.system.crt.residue
    k_start = max(0, -((t - task.start) // q))
    k_end = k_start + task.budget
    plan = _SievePlan(task, min(segment_size, task.budget))
    lo, size = k_start, min(FIRST_WINDOW, segment_size)
    while lo < k_end:
        hi = min(lo + size, k_end)
        for j in plan.window(lo, hi).tolist():
            x = t + (lo + j) * q
            if x not in task.exclusions and _witness_ok(task, x, rounds):
                return x, lo + j - k_start + 1
        lo, size = hi, min(2 * size, segment_size)
    return None, task.budget
