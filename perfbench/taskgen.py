"""Seeded task lists for the search-mix workload, with their own oracles.

Nothing here calls sdpc: admissibility is screened by brute-force residue
enumeration and every expected witness comes from a naive scan of the
class with this module's own primality test. The benchmark compares the
program's answers against these, so the oracle must not share its code.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

CLASS_PRIMES = (2, 3, 5, 7)
OFFSET_RANGE = range(-60, 61)
OFFSET_COUNTS = (2, 3, 4, 5, 6)
START_BELOW = 10**9
SIEVE_LIMIT_LOG10 = (2.0, 5.0)
# A task whose witness lies deeper than this is redrawn: the workload is
# small searches, where per-search fixed costs dominate.
MAX_DEPTH = 2048
# Large enough never to bind for a task whose witness is within MAX_DEPTH.
SEARCH_BUDGET = 10**8

_TRIAL_PRIMES = tuple(p for p in range(2, 64) if all(p % d for d in range(2, math.isqrt(p) + 1)))
# Deterministic Miller-Rabin bases for every n below 3.4e14.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17)


@dataclass(frozen=True)
class Task:
    """One small constellation search and its expected answer."""

    q_primes: tuple[int, ...]
    t: int
    offsets: tuple[int, ...]
    start: int
    sieve_limit: int
    witness: int
    depth: int

    @property
    def q(self) -> int:
        return math.prod(self.q_primes)


def is_prime_naive(n: int) -> bool:
    """Trial division by small primes, then deterministic Miller-Rabin."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def admissible_brute(q: int, t: int, offsets: tuple[int, ...]) -> bool:
    """Whether some x = t (mod q) keeps every x + d off 0 modulo each prime.

    Only primes dividing q or not above the offset count can obstruct; for
    each, every residue of x consistent with the class is tried.
    """
    for p in _TRIAL_PRIMES:
        if p > max(len(offsets), CLASS_PRIMES[-1]):
            break
        if q % p == 0:
            residues = (t % p,)
        elif p <= len(offsets):
            residues = range(p)
        else:
            continue
        if not any(all((x + d) % p for d in offsets) for x in residues):
            return False
    return True


def first_k(q: int, t: int, start: int) -> int:
    """Smallest k >= 0 with t + k*q >= start."""
    return max(0, -((t - start) // q))


def naive_witness(q: int, t: int, offsets: tuple[int, ...], start: int, depth: int):
    """(x, candidates examined) for the first class member >= start whose
    offset values all have absolute value above 3 and are prime, scanning
    at most `depth` members; (None, depth) when none qualifies.
    """
    index = np.arange(depth, dtype=np.int64)
    xs = t + (first_k(q, t, start) + index) * q
    for d in offsets:
        v = np.abs(xs + d)
        keep = v > 3
        for p in _TRIAL_PRIMES:
            keep &= (v % p != 0) | (v == p)
        index, xs = index[keep], xs[keep]
    for i, x in zip(index.tolist(), xs.tolist()):
        if all(is_prime_naive(abs(x + d)) for d in offsets):
            return x, i + 1
    return None, depth


def _draw_offsets(rng: random.Random, q: int, t: int, m: int) -> tuple[int, ...]:
    """m distinct offsets drawn one at a time, each kept only if the system
    so far is admissible, so the finished system is admissible."""
    chosen: list[int] = []
    while len(chosen) < m:
        d = rng.choice(OFFSET_RANGE)
        if d not in chosen and admissible_brute(q, t, tuple(chosen + [d])):
            chosen.append(d)
    return tuple(sorted(chosen))


def generate(seed: int, count: int) -> list[Task]:
    """`count` tasks, stratified jointly over offset count and log sieve limit.

    Those two inputs set a search's fixed cost. Giving each offset count
    an evenly spread set of sieve limits keeps the cost of a whole pass
    steady from seed to seed; class, offsets and start are drawn freely
    and redrawn until the system is admissible and its witness shallow.
    """
    rng = random.Random(seed)
    lo, hi = SIEVE_LIMIT_LOG10
    strata = []
    for group, m in enumerate(OFFSET_COUNTS):
        size = len(range(group, count, len(OFFSET_COUNTS)))
        strata += [(m, lo + (hi - lo) * (j + rng.random()) / size) for j in range(size)]
    rng.shuffle(strata)
    tasks = []
    for m, level in strata:
        sieve_limit = int(round(10**level))
        while True:
            q_primes = tuple(p for p in CLASS_PRIMES if rng.random() < 0.5)
            q = math.prod(q_primes)
            t = rng.randrange(q)
            offsets = _draw_offsets(rng, q, t, m)
            start = rng.randrange(START_BELOW)
            witness, depth = naive_witness(q, t, offsets, start, MAX_DEPTH)
            if witness is not None:
                break
        tasks.append(Task(q_primes, t, offsets, start, sieve_limit, witness, depth))
    return tasks
