"""Constellation search over a CRT progression.

Candidates are x = t + k*q for k = 0, 1, 2, ... A segmented sieve strikes
a candidate when some prime p up to the plan limit (below), p not
dividing q, divides x + d for an offset d, and keeps every candidate of
the zones, where some |x + d| is at most the plan limit and so may be p
itself. Survivors then face real primality tests through is_prime. The
scan is strictly ordered by k, so the witness returned is the smallest
member of the progression that works, whatever the window sizes or sieve
limit.

A search sieves windows of k that start at FIRST_WINDOW candidates and
double until they reach LARGEST_WINDOW, the one cap of every search, so a
witness found early costs about its own depth rather than a largest
window. A window is measured in the bytes it touches: a wide plan's
(below) stays packed, 8 candidates to a byte, so its windows after the
first double from one period of its patterns, `period` bytes (2**19
candidates by default), to 8 * LARGEST_WINDOW. A window the comb strikes
(below) starts its packed bits from the comb's struck row, inverted; any
other window's are one module buffer, grown to the longest window and
reused, which starts all set. A window's survivors are kept as indices
and become integers x only as they are certified, up to the witness.

A search sieves with the primes up to its plan limit, min(sieve_limit,
DEFAULT_SIEVE_LIMIT), all held from its first window. More sieving primes
only thin the survivors, which the screen (below) and certification
decide, so the witness and count stay the same; past the cap they cost
more than they thin: on the step-9 plan limits 256 / 400 / 1,024 sieved
1.2e10 / 1.1e10 / 7.5e9 candidates a second over 2**32, and 3,000 1.0e8
over 2**30 (CHANGES.md). So sieve_limit changes no search, and
sieve_segment returns what a search's sieve keeps.

Prime p strikes k exactly when k = k0 (mod p), k0 = -(t + d) / q mod p,
one class per offset. Each search builds a plan of these classes, and
its windows reuse it. The plan has three tiers:

1. Tabled primes, each with a table of 8 periods, true on the classes it
   leaves alive. The pre-sieved ones, whose classes cover at least
   1/PRESIEVE_DENSITY of all k, are packed into groups of product
   (period) at most PATTERN_PERIOD and an eighth of the task's budget,
   densest first by the share of k kept, prod(1 - c/p) over primes p of
   c classes. While the groups before it keep 1/GATHER_COST of all k, a
   group is ANDed: its pattern is 8 periods packed little-endian into
   `period` bytes (bit b of byte i for k = 8i + b), its primes' packed
   tables tiled and ANDed. A window starts on a multiple of 8, so it
   slices each pattern at a whole byte and ANDs n/8 bytes. The later
   groups are not built: their primes are gathered, a window testing its
   few survivors j on their tables at (lo + j) mod p, densest groups
   first. With more survivors than primes it gathers in two stages: the
   first thins the survivors that the second then reads, split where the
   reads are fewest. This tier costs about its patterns' bytes to build,
   which short windows do not repay: a plan builds it in place at its
   first window longer than PRESIEVE_AFTER, and until then strikes the
   pre-sieved primes' classes with the comb.
2. The comb, in a window of at most PRESIEVE_AFTER candidates: every
   prime a plan holds has a row of multiples, and the window ORs the rows
   of all its other entries, per _CHUNK bits from the byte at or below lo,
   into one struck row, each batch of entries in one gather and OR-reduce
   of at most 1 MiB, taking lo mod p once per prime.
3. Strided writes, in a longer window: one per (p, k0) entry.

A window unpacks its bits once to find its survivors, a longer one
taking its strided writes on them first; a longer window without entries
reads the nonzero words instead. That byte path costs every longer
window a pass over n bytes, whatever its entries. So a plan that gathers
is wide: every sieving prime is tabled and gathered, and the byte path
drops out; one that does not gather ANDs all its groups. A search builds
its task's plan and runs every window on it. It asks whether the plan is
wide only after the first window, so a search that ends there never
forms the groups, and a wide plan builds its tables at its second
window, the first longer than PRESIEVE_AFTER.

Set-up costs a few NumPy passes over the classes, one row per offset, with
no copy per (prime, offset) entry; q is inverted prime by prime in
_sieving_primes, once per q and prime in a run. Every sieving prime keeps
its m classes, one per offset: offsets that coincide mod it strike twice,
which is harmless. Distinct classes are counted only to weigh the tabled
primes.

A zone holds at most 2 * limit / q + 1 candidates per offset, all at the
bottom of the progression. The tiers strike blindly; afterwards a window
over a zone adds its zone k to the survivors, struck or not, and
certification decides them.

Past a search's first window the plan screens its survivors in one pass
before they are certified, dropping each with some x + d that a prime p
in (plan limit, SCREEN_LIMIT] divides, read at (lo + j) mod p from one
period per prime in one flat table, as the gathered tier reads its
tables. That is trial division, and it runs only from the first k where
every |x + d| exceeds SCREEN_LIMIT, so it drops only composites. The
screen lies outside the sieve: a window's survivors keep their meaning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .admissible import InadmissibleSystemError, TupleSystem, is_admissible
from .primes import is_prime, may_be_prime, primes_up_to


# Chosen by a sweep over the construction's own step plans (CHANGES.md).
DEFAULT_SIEVE_LIMIT = 400
# A search's first window, from a sweep (CHANGES.md); later ones double
# up to the largest, 2**23 candidates in 1 MB on a wide plan.
FIRST_WINDOW = 1 << 11
LARGEST_WINDOW = 1 << 20
PRESIEVE_DENSITY = 32
# A plan that is not wide pre-sieves from its first window longer than
# this; from a sweep (CHANGES.md).
PRESIEVE_AFTER = 1 << 14
PATTERN_PERIOD = 1 << 16
# A pattern is ANDed while the denser ones keep at least 1/GATHER_COST of
# all k; windows gather from the rest. From a sweep (CHANGES.md).
GATHER_COST = 1 << 12
# Past its first window a search drops the survivors with a value that a
# prime in (plan limit, SCREEN_LIMIT] divides; from a sweep (CHANGES.md).
SCREEN_LIMIT = 1 << 10


@dataclass(frozen=True)
class ConstellationTask:
    """What to search: the system, where to start, and the budgets.

    A search and sieve_segment sieve with the primes up to min(sieve_limit,
    DEFAULT_SIEVE_LIMIT), so the limit never changes a witness or count
    (module docstring); the budget also bounds the plan's pattern periods.
    """

    system: TupleSystem
    start: int = 0
    budget: int = 10**8
    sieve_limit: int = DEFAULT_SIEVE_LIMIT

    def __post_init__(self):
        if self.start < 0:
            raise ValueError("start must be nonnegative")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        # below 2 nothing is sieved; from 2**31 on the sieve's int64
        # products would overflow
        if not 2 <= self.sieve_limit < 1 << 31:
            raise ValueError("sieve_limit must be at least 2 and below 2**31")


def _residues(n: int, moduli: np.ndarray) -> np.ndarray:
    """n mod m for every modulus m < 2**31, exact for any Python int n: in
    one op below 2**62, else by Horner's rule over n's 31-bit digits, which
    keeps every product in int64."""
    if abs(n) < 1 << 62:
        return n % moduli
    r = np.zeros_like(moduli)
    a = abs(n)
    for shift in range(31 * ((a.bit_length() - 1) // 31), -1, -31):
        r = ((r << 31) | ((a >> shift) & 0x7FFFFFFF)) % moduli
    return -r % moduli if n < 0 else r


@lru_cache(maxsize=64)
def _sieving_primes(q: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes p up to top that do not divide q and -q**-1 mod each,
    read-only, as plans share them. The one place q is inverted: every
    plan and screen reads the table up to SCREEN_LIMIT."""
    primes = np.array(primes_up_to(top), np.int64)
    a = _residues(q, primes)
    primes, a = primes[a != 0], a[a != 0]
    neg_inv = np.array([p - pow(r, -1, p) for r, p in zip(a.tolist(), primes.tolist())], np.int64)
    primes.flags.writeable = neg_inv.flags.writeable = False
    return primes, neg_inv


def _hit_classes(task: ConstellationTask, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The sieving primes p in [lo, hi], p not dividing q, and, per offset
    and prime, the class k0 mod p of the k where p | t + k*q + d: one row
    per offset."""
    crt, offsets = task.system.crt, task.system.offsets
    primes, neg_inv = _sieving_primes(crt.modulus, max(hi, SCREEN_LIMIT))
    a, b = primes.searchsorted([lo, hi + 1])
    primes, neg_inv = primes[a:b], neg_inv[a:b]
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
    """(p, k0) rows, one per sieving prime up to the sieve limit and
    offset, in that order; perfbench checks its entry count against these."""
    primes, k0 = _hit_classes(task, 2, task.sieve_limit)
    return np.column_stack([np.repeat(primes, len(k0)), k0.T.ravel()])


def _groups(primes: np.ndarray, counts: np.ndarray, period: int) -> tuple[np.ndarray, list, int]:
    """Which primes, of counts[i] distinct classes each, are pre-sieved:
    those up to period whose classes cover at least 1/PRESIEVE_DENSITY of
    all k; their groups (product, member indices among them ascending); and
    how many groups are ANDed (module docstring)."""
    dense = (counts * PRESIEVE_DENSITY >= primes) & (primes <= period)
    ps, counts = primes[dense].tolist(), counts[dense].tolist()
    # [product, share of k kept, members], first fit in descending p; no group
    # takes a prime above isqrt(period), nor any once too full for the least p
    groups: list[list] = []
    scanned = []
    for i in reversed(range(len(ps))):
        p, keep, limit = ps[i], 1 - counts[i] / ps[i], period // ps[i]
        for g in scanned if p * p <= period else ():
            if g[0] <= limit:
                g[0] *= p
                g[1] *= keep
                g.append(i)
                if g[0] * ps[0] > period:
                    scanned.remove(g)
                break
        else:
            groups.append(g := [p, keep, i])
            scanned.append(g)
    groups.sort(key=lambda g: g[1])
    anded, kept = 0, 1.0
    while anded < len(groups) and kept * GATHER_COST >= 1:
        kept *= groups[anded][1]
        anded += 1
    return dense, [(g[0], g[:1:-1]) for g in groups], anded


def _distinct(k0: np.ndarray) -> np.ndarray:
    """How many distinct classes each row of k0 holds."""
    k0 = np.sort(k0, axis=1)
    return 1 + (k0[:, 1:] != k0[:, :-1]).sum(axis=1)


def _periodic_and(rows: list[np.ndarray], pattern: np.ndarray) -> np.ndarray:
    """pattern, filled with byte i = AND of row[i mod len(row)] over rows of
    coprime lengths whose product is its length, ascending: widest last."""
    n = len(rows[0])
    pattern[:n] = rows[0]
    for row in rows[1:]:
        # the AND so far tiled len(row) times, ANDed with row
        part = pattern[: n * len(row)].reshape(len(row), n)
        part[1:] = part[0]
        part.shape = (n, len(row))
        part &= row
        n *= len(row)
    return pattern


def _tables(primes: np.ndarray, classes: np.ndarray, periods: int) -> tuple[np.ndarray, np.ndarray]:
    """One flat table, `periods` periods per prime, true on the k mod p
    that p leaves alive, given classes[i], the classes prime i strikes;
    and where each prime's table starts."""
    at = periods * (primes.cumsum() - primes)
    good = np.ones(periods * int(primes.sum()), bool)
    good[(at + primes * np.arange(periods)[:, None])[..., None] + classes] = False
    return good, at


def _sift(
    js: np.ndarray, r: np.ndarray, primes: np.ndarray, at: np.ndarray, good: np.ndarray, first: int = 0
) -> np.ndarray:
    """The survivors js that no prime (a column) strikes: those whose table
    in good is true at (r + j) mod p, r the window's lo mod p. With first,
    the first `first` primes thin js before the rest read it. js is read
    in slices of 4,096, which bound the (primes x survivors) arrays."""
    if len(js) > 1 << 12:
        parts = [_sift(js[i : i + (1 << 12)], r, primes, at, good, first) for i in range(0, len(js), 1 << 12)]
        return np.concatenate(parts)
    cuts = (0, first, None) if first else (0, None)
    for a, b in zip(cuts, cuts[1:]):
        js = js[good[(js + r[a:b]) % primes[a:b] + at[a:b]].all(axis=0)]
    return js


def _first_stage(keep: np.ndarray) -> int:
    """How many of the gathered primes, keeping shares `keep` of all k, a
    window tests first: those s read every survivor, the rest only what
    the first s keep, s + (R - s) * prod(keep[:s]) reads per survivor.
    The s with the fewest."""
    s = np.arange(len(keep) + 1)
    return int(np.argmin(s + (len(keep) - s) * np.cumprod(np.concatenate(([1.0], keep)))))


def _combs() -> tuple[np.ndarray, np.ndarray]:
    """A row of multiples, _CHUNK + 8p bits little-endian, for each prime p
    a plan sieves with, up to DEFAULT_SIEVE_LIMIT, read-only, as items of
    _CHUNK / 8 bytes from every byte; and at [p, j] the item of p's
    multiples from bit j on, byte (j + kp) / 8 with k = -jp mod 8 for odd p
    (p * p = 1 mod 8), 2 having a second row from bit 1. The item
    at[p, s & 7] + (s >> 3) starts at bit s."""
    primes = primes_up_to(DEFAULT_SIEVE_LIMIT)
    rows, at = bytearray(), np.zeros((primes[-1] + 1, 8), np.int64)
    for p in primes:
        at[p] = [len(rows) + (j + (-j * p & 7) * p) // 8 for j in range(8)]
        # one period, bits 0, p, ..., 7p of 8p, repeated
        rows += (((1 << 8 * p) - 1) // ((1 << p) - 1)).to_bytes(p, "little") * (_CHUNK // 8 // p + 2)
    at[2, 1] = len(rows)
    rows += b"\xaa" * (_CHUNK // 8)
    return np.ndarray((len(rows) - _CHUNK // 8 + 1,), np.dtype((np.void, _CHUNK // 8)), bytes(rows), 0, (1,)), at


# A comb row spans a first window from the byte at or below its start.
_CHUNK = FIRST_WINDOW + 64
_COMB_ROWS, _COMB_ROW_AT = _combs()
_words = np.empty(0, np.uint64)


def _packed_words(size: int) -> np.ndarray:
    """The first `size` words of one buffer that every window reuses,
    grown to the longest window: a fresh one would page-fault each time."""
    global _words
    if len(_words) < size:
        _words = np.empty(size, np.uint64)
    return _words[:size]


class _SievePlan:
    """One task's sieve, a function of the task alone, which every window
    of its search or sieve_segment reuses. It holds the sieving primes up
    to its limit, min(sieve_limit, DEFAULT_SIEVE_LIMIT), each with its m
    classes. A window picks its strike by its length alone: up to
    PRESIEVE_AFTER candidates the comb strikes every entry still held,
    pre-sieved primes included until the first longer window builds the
    tabled tier in place (_presieve), which in a wide plan tables every
    prime; a longer window strikes the entries left with strided writes.
    A comb window's bits start from its struck row; any other window's
    all set, in the module buffer. screen() trial-divides survivors. See
    the module docstring for the tiers and the screen."""

    def __init__(self, task: ConstellationTask):
        self.task = task
        self.q = task.system.crt.modulus
        self.t = task.system.crt.residue
        self.offsets = task.system.offsets
        self.limit = min(task.sieve_limit, DEFAULT_SIEVE_LIMIT)
        # the longest pattern period, short enough for the budget to repeat 8 times
        self.period = min(PATTERN_PERIOD, task.budget // 8)
        # the other tiers' primes, ascending, and their classes, one row per
        # offset; until _presieve, every sieving prime
        self.primes, self.rest_k0 = _hit_classes(task, 2, self.limit)
        self.rest_p = self.primes
        self.patterns, self.good, self.first_stage = [], None, 0
        self.gather_p = self.gather_at = np.empty((0, 1), np.int64)
        # k-ranges where some |x + d| <= limit, the only place a value
        # can equal a sieving prime
        self.zones, self.zones_end = [], 0
        for d in self.offsets:
            z_lo = max(0, -((self.limit + d + self.t) // self.q))
            z_hi = (self.limit - d - self.t) // self.q + 1
            if z_lo < z_hi:
                self.zones.append((z_lo, z_hi))
                self.zones_end = max(self.zones_end, z_hi)

    @cached_property
    def _counts(self) -> np.ndarray:
        """Each sieving prime's distinct classes, read before _presieve."""
        return _distinct(self.rest_k0.T)

    @cached_property
    def _grouping(self) -> tuple[np.ndarray, list, int]:
        """_groups of the sieving primes, formed once."""
        return _groups(self.primes, self._counts, self.period)

    @cached_property
    def wide(self) -> bool:
        """Whether the plan gathers, and so tables every sieving prime
        (module docstring); first read after a search's first window."""
        _, groups, anded = self._grouping
        return anded < len(groups)

    def _presieve(self) -> None:
        """Build the tabled tier (module docstring): the tables, the ANDed
        patterns and the gathered primes. The tabled primes are the
        pre-sieved ones and, in a wide plan, every other; their entries
        leave the other tiers."""
        pre_sieved, groups, anded = self._grouping
        tabled = pre_sieved | self.wide
        ps, classes = self.primes[tabled], self.rest_k0.T[tabled]
        self.good, at = _tables(ps, classes, 8)
        # packed, prime i's row of p bytes holds k = 8j ... 8j + 7 in byte j
        packed = np.packbits(self.good, bitorder="little")
        # where the pre-sieved primes lie among the tabled
        where = np.flatnonzero(pre_sieved[tabled])
        starts, lengths = (at[where] // 8).tolist(), ps[where].tolist()
        # one allocation, which the next search's plan reuses without page faults
        flat = np.empty(sum(size for size, _ in groups[:anded]), np.uint8)
        self.patterns = []
        for size, members in groups[:anded]:
            rows = [packed[starts[i] : starts[i] + lengths[i]] for i in members]
            self.patterns.append(_periodic_and(rows, flat[:size]))
            flat = flat[size:]
        # the gathered primes, densest groups first, then those a wide plan
        # adds, ascending, tested in two stages
        gathered = [i for _, members in groups[anded:] for i in members]
        gathered = np.concatenate((where[gathered], np.flatnonzero(~pre_sieved[tabled])))
        self.first_stage = _first_stage(1 - self._counts[tabled][gathered] / ps[gathered])
        self.gather_p, self.gather_at = ps[gathered, None], at[gathered, None]
        self.rest_k0, self.rest_p = self.rest_k0[:, ~tabled], self.rest_p[~tabled]

    @cached_property
    def _screen(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """The screen, read only by screen(): the k it starts from, its
        primes, those in (limit, SCREEN_LIMIT], and their starts as
        columns, and their tables of one period each."""
        primes, k0 = _hit_classes(self.task, self.limit + 1, SCREEN_LIMIT)
        good, at = _tables(primes, k0.T, 1)
        # from this k on every |x + d| > SCREEN_LIMIT: none is its own screening prime
        start = max([0, *((SCREEN_LIMIT - d - self.t) // self.q + 1 for d in self.offsets)])
        return start, primes[:, None], at[:, None], good

    def screen(self, js: np.ndarray, lo: int) -> np.ndarray:
        """The survivors js of the window from lo less those with some x + d
        that a prime in (limit, SCREEN_LIMIT] divides; before the screen's
        start, all of js. The first call with survivors builds it."""
        if not len(js) or lo < self._screen[0]:
            return js
        _, primes, at, good = self._screen
        return _sift(js, _residues(lo, primes), primes, at, good)

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Indices j, ascending, of the surviving x = t + (lo + j)*q for
        k in [lo, hi). Kept relative to lo: k itself may not fit int64.
        Its bits, from k = lo - off on, a multiple of 8, so that every
        pattern is sliced at a whole byte, start as the comb's struck row,
        inverted, in a window the comb strikes; otherwise all set, in the
        module buffer, in whole 8-byte words for the word scan, with the
        bits outside [lo, hi) clear."""
        n = hi - lo
        if n <= 0:
            return np.empty(0, np.int64)
        if self.good is None and n > PRESIEVE_AFTER:
            self._presieve()
        off = lo % 8
        if n <= PRESIEVE_AFTER and self.rest_k0.size:
            packed = ~self._comb(lo, off, n).view(np.uint8)[: -(-(off + n) // 8)]
        else:
            words = _packed_words(-(-(off + n) // 64))
            words[-1] = 0
            packed = words.view(np.uint8)[: -(-(off + n) // 8)]
            packed[:] = 255
            packed[0] = 255 << off & 255
            packed[-1] &= 255 >> (-(off + n) % 8)
        for pattern in self.patterns:
            # the window as a head, whole periods, and a tail
            size = len(pattern)
            s = (lo >> 3) % size
            head = min(size - s, len(packed))
            packed[:head] &= pattern[s : s + head]
            if head < len(packed):  # past one period; skipping 2 empty ANDs saves 2 us
                whole, tail = divmod(len(packed) - head, size)
                periods = packed[head : head + whole * size].reshape(whole, size)
                periods &= pattern
                packed[len(packed) - tail :] &= pattern[:tail]
        if n <= PRESIEVE_AFTER:
            # a short window's bits are scanned faster unpacked than by word
            js = np.flatnonzero(np.unpackbits(packed, bitorder="little").view(bool)[off : off + n])
        elif self.rest_k0.size:
            alive = np.unpackbits(packed, bitorder="little").view(bool)[off : off + n]
            # each entry's first hit, k0 - lo mod p, in rows of offsets
            first = (self.rest_k0 - _residues(lo, self.rest_p)) % self.rest_p
            for f, p in zip(first.ravel().tolist(), self.rest_p.tolist() * len(first)):
                alive[f::p] = False
            js = np.flatnonzero(alive)
        else:
            # the set bits of the nonzero words
            live = np.flatnonzero(words != 0)
            bit = np.unpackbits(words[live].view(np.uint8), bitorder="little").view(bool)
            bit = np.flatnonzero(bit)
            js = live[bit >> 6] * 64 + (bit & 63) - off
        if len(self.gather_p):
            # two stages pay once the survivors outnumber the primes
            first = self.first_stage if len(js) > len(self.gather_p) else 0
            js = _sift(js, _residues(lo, self.gather_p), self.gather_p, self.gather_at, self.good, first)
        return self._with_zones(js, lo, hi)

    def _comb(self, lo: int, off: int, n: int) -> np.ndarray:
        """The comb's struck row (module docstring): words of the bits from
        k = lo - off on, set where an entry strikes."""
        p = self.rest_p[:, None]
        chunks = np.arange(-off, n, _CHUNK)
        # from k = lo + c, p's comb from bit (c + lo - k0) mod p; lo mod p once per prime
        s = (chunks + _residues(lo, p) - self.rest_k0[..., None]) % p
        at = (_COMB_ROW_AT[p, s & 7] + (s >> 3)).reshape(-1, len(chunks))
        batch = (1 << 20) // (_CHUNK // 8 * len(chunks))
        for a in range(0, len(at), batch):
            # one gather alive at a time: two page-fault
            row = np.bitwise_or.reduce(_COMB_ROWS[at[a : a + batch]].view(np.uint64), axis=0)
            struck = row if a == 0 else struck | row
        return struck

    def _with_zones(self, js: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The survivors js and every k of [lo, hi) in a zone, ascending:
        there a value may be a sieving prime itself, which must not strike
        it, so certification decides the zone whole."""
        if lo >= self.zones_end:
            return js
        alive = np.zeros(hi - lo, bool)
        alive[js] = True
        for z_lo, z_hi in self.zones:
            alive[max(z_lo - lo, 0) : max(z_hi - lo, 0)] = True
        return np.flatnonzero(alive)


def sieve_segment(task: ConstellationTask, lo: int, hi: int) -> list[int]:
    """Surviving x = t + k*q for k in [lo, hi), ascending: those that no
    sieving prime up to the plan limit divides at any offset, and every x
    of a zone, with some |x + d| at most the plan limit.

    Sound: outside the zones every |x + d| exceeds each sieving prime, so a
    prime that divides it divides it properly, and every x whose offset
    values are all primes above 3 survives. These are exactly the x that a
    search of the task sieves from [lo, hi) and hands to its screen.
    """
    if lo < 0 or hi < lo:
        raise ValueError("bad segment bounds")
    plan = _SievePlan(task)
    return [plan.t + (lo + j) * plan.q for j in plan.window(lo, hi).tolist()]


def _witness_ok(task: ConstellationTask, x: int) -> bool:
    # a base-2 test screens every value, as most survivors fail it on one;
    # certifying then starts from the second base
    values = [x + d for d in task.system.offsets]
    for v in values:
        if -3 <= v <= 3 or not may_be_prime(v):
            return False
    for v in values:
        if not is_prime(v, _screened=True).accepted:
            return False
    return True


def search_with_count(task: ConstellationTask) -> tuple[int | None, int]:
    """Smallest x >= start in the class with every |x + d| prime and > 3.

    Returns (witness, candidates examined), or (None, budget) once
    `budget` candidates have been examined without a witness; that says
    nothing about existence, since a witness may lie beyond the budget.
    Raises InadmissibleSystemError for a doomed system.

    One plan sieves every window: from FIRST_WINDOW candidates they double
    to LARGEST_WINDOW, and a wide plan's after the first from one period
    of its patterns, 8 * period candidates, to 8 * LARGEST_WINDOW; those
    past the first are screened before certification (module docstring).
    The candidate count is the number of progression members considered,
    counted before sieving: exhaustion means exactly `budget` of them.
    """
    obstruction = is_admissible(task.system)
    if obstruction is not None:
        raise InadmissibleSystemError(obstruction)
    plan = _SievePlan(task)
    q, t = plan.q, plan.t
    k_start = max(0, -((t - task.start) // q))
    k_end = k_start + task.budget
    lo, size, largest = k_start, FIRST_WINDOW, LARGEST_WINDOW
    while lo < k_end:
        hi = min(lo + size, k_end)
        js = plan.window(lo, hi)
        # not the first window: a search that ends there builds no screen
        if lo > k_start:
            js = plan.screen(js, lo)
        for j in js.tolist():
            x = t + (lo + j) * q
            if _witness_ok(task, x):
                return x, lo + j - k_start + 1
        if lo == k_start and plan.wide:
            # packed, 8 candidates to a byte: doubled below to one period of its patterns
            size, largest = 4 * plan.period, 8 * LARGEST_WINDOW
        lo, size = hi, min(2 * size, largest)
    return None, task.budget
