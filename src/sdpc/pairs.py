"""Difference-cover residue pairs modulo a prime.

A pair of sets U, V in Z_p is "prime compatible" when the differences
taken between the exclusive parts cover every nonzero residue:

    (U \\ V) - (V \\ U) = Z_p \\ {0}

Such a pair lets a congruence be imposed on a fresh integer x so that
x - y avoids the residue 0 mod p against every already-placed y, which
is what keeps new differences free of small prime factors.

Two constructions are provided. `explicit_pair` is a closed-form pair
with a two-element intersection, valid for every prime p >= 7, carrying
the residues of 1 and 11 in U and of 6 in V. `randomized_extend_with_stats`
grows a prescribed common core W to a full compatible pair by
coin-flipping the remaining residues into U or V, retrying until the
cover property holds; a counting argument makes each attempt succeed
with probability at least 1 - p*(3/4)^((p-1)/2 - |W|), so under the
capacity bound below the retry loop terminates quickly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .modular import ResidueSet, linear_map_set, mod_inverse, set_bits

PLUS = 1
MINUS = -1
RETRY_CAP = 10_000


# ---------------------------------------------------------------------------
# cover test on raw masks
# ---------------------------------------------------------------------------

def _rotate_left(mask: int, s: int, p: int) -> int:
    s %= p
    return ((mask << s) | (mask >> (p - s))) & ((1 << p) - 1) if s else mask


def _negate_mask(mask: int, p: int) -> int:
    # image of the set under x -> -x (mod p): reverse bits 1..p-1, keep bit 0
    top = mask >> 1
    rev = int(format(top, f"0{p - 1}b")[::-1], 2) << 1 if top else 0
    return (mask & 1) | rev


def _cover_ok(p: int, u_mask: int, v_mask: int) -> bool:
    x = u_mask & ~v_mask
    y = v_mask & ~u_mask
    if x == 0 or y == 0:
        return False
    target = ((1 << p) - 1) ^ 1
    # the sumset X + (-Y), one rotation per member of the smaller side
    a, b = sorted((x, _negate_mask(y, p)), key=int.bit_count)
    acc = 0
    for s in set_bits(a):
        acc |= _rotate_left(b, s, p)
        if acc & target == target:
            return True
    return False


def is_prime_compatible(u: ResidueSet, v: ResidueSet) -> bool:
    """Whether (U \\ V) - (V \\ U) covers all of Z_p \\ {0}."""
    if u.modulus != v.modulus:
        raise ValueError("sets have different moduli")
    return _cover_ok(u.modulus, u.mask, v.mask)


# ---------------------------------------------------------------------------
# the pair type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeCompatiblePair:
    """A compatible (U, V) pair plus reserve bookkeeping.

    reserved lists residues of the common part U & V that are being held
    for the two construction steps that target +p and -p; such a step
    pins the new integer to one reserved residue. assigned records which
    reserved residue each sign has consumed, as (sign, residue) entries
    with sign +1 or -1.
    """

    p: int
    u: ResidueSet
    v: ResidueSet
    reserved: tuple[int, ...] = ()
    assigned: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.u.modulus != self.p or self.v.modulus != self.p:
            raise ValueError("set moduli disagree with p")
        if len(self.u) == 0 or len(self.v) == 0:
            raise ValueError("U and V must be nonempty")
        if not _cover_ok(self.p, self.u.mask, self.v.mask):
            raise ValueError(f"pair mod {self.p} is not prime-compatible")
        common = self.u.mask & self.v.mask
        res = tuple(sorted(self.reserved))
        if len(set(res)) != len(res):
            raise ValueError("reserved residues must be distinct")
        if len(res) > 2:
            raise ValueError("at most two reserved residues")
        for w in res:
            if not (common >> w) & 1:
                raise ValueError(f"reserved residue {w} is not in U & V")
        object.__setattr__(self, "reserved", res)
        asg = tuple(self.assigned)
        signs = [s for s, _ in asg]
        if any(s not in (PLUS, MINUS) for s in signs) or len(set(signs)) != len(signs):
            raise ValueError("assigned signs must be distinct members of {+1,-1}")
        vals = [w for _, w in asg]
        if any(w not in res for w in vals):
            raise ValueError("assigned residues must come from the reserve list")
        if len(set(vals)) != len(vals):
            raise ValueError("the two signs must consume distinct reserves")
        object.__setattr__(self, "assigned", tuple(sorted(asg)))

    @property
    def assigned_map(self) -> dict[int, int]:
        return dict(self.assigned)

    def unused_reserves(self) -> tuple[int, ...]:
        used = {w for _, w in self.assigned}
        return tuple(w for w in self.reserved if w not in used)

    def with_assigned(self, sign: int, residue: int) -> "PrimeCompatiblePair":
        if sign in self.assigned_map:
            raise ValueError(f"sign {sign:+d} already consumed a reserve mod {self.p}")
        return replace(self, assigned=self.assigned + ((sign, residue),))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def explicit_pair(p: int) -> PrimeCompatiblePair:
    """Closed-form compatible pair mod p (p prime, p >= 7).

    Applies the bijection x -> alpha*x + beta with 3*alpha = -10 (mod p)
    and beta = alpha + 11 to the template U' = {0, 1, 2, p-1},
    V' = Z_p \\ {2, p-1}. The map is chosen so that 1 and 11 land in
    U \\ V, 6 lands in V \\ U, and the intersection keeps exactly the two
    images of 0 and 1, which become the reserve.
    """
    if p < 7:
        raise ValueError(f"explicit pair requires p >= 7, got {p}")
    alpha = (-10 * mod_inverse(3, p)) % p
    beta = (alpha + 11) % p
    u_template = ResidueSet.from_members(p, (0, 1, 2, p - 1))
    v_template = ResidueSet(p, ((1 << p) - 1) ^ (1 << 2) ^ (1 << (p - 1)))
    u = linear_map_set(u_template, alpha, beta)
    v = linear_map_set(v_template, alpha, beta)
    reserved = tuple(sorted(u.intersection(v)))
    return PrimeCompatiblePair(p, u, v, reserved=reserved)


def capacity_bound(p: int) -> int:
    """Largest m with m < (p-1)/2 - log(p)/log(4/3).

    A common core of size up to this bound leaves the randomized
    extension a failure probability strictly below 1 per attempt.
    Negative for small p: those primes admit no randomized extension.
    """
    bound = (p - 1) / 2 - math.log(p) / math.log(4 / 3)
    m = math.floor(bound)
    if m >= bound:
        m -= 1
    return m


def randomized_extend_with_stats(
    w: ResidueSet,
    p: int,
    reserve_count: int,
    rng: random.Random,
) -> tuple[PrimeCompatiblePair, int]:
    """Grow W to a compatible pair with U & V = W plus fresh reserves;
    returns the pair and the number of assignments tried, at most RETRY_CAP.

    Requires |W| + reserve_count <= capacity_bound(p). Deterministic for
    a given rng position; retries draw fresh assignment bits but keep the
    reserves fixed.
    """
    if not isinstance(w, ResidueSet):
        w = ResidueSet.from_members(p, w)
    if w.modulus != p:
        raise ValueError("W modulus disagrees with p")
    if reserve_count not in (0, 1, 2):
        raise ValueError("reserve_count must be 0, 1 or 2")
    if len(w) + reserve_count > capacity_bound(p):
        raise ValueError(
            f"W too large for p={p}: |W|={len(w)} plus {reserve_count} reserves "
            f"exceeds capacity {capacity_bound(p)}"
        )
    # Draw order is part of the contract: the reserves are sampled first,
    # without replacement, from the ascending list of residues outside W;
    # afterwards each remaining residue in ascending order costs one bit
    # per attempt (0 sends it to U, 1 to V).
    candidates = [z for z in range(p) if z not in w]
    reserves = []
    for _ in range(reserve_count):
        reserves.append(candidates.pop(rng.randrange(len(candidates))))
    core_mask = w.mask
    for r in reserves:
        core_mask |= 1 << r
    rest = candidates
    for attempt in range(1, RETRY_CAP + 1):
        u_mask, v_mask = core_mask, core_mask
        for z in rest:
            if rng.getrandbits(1):
                v_mask |= 1 << z
            else:
                u_mask |= 1 << z
        if _cover_ok(p, u_mask, v_mask):
            pair = PrimeCompatiblePair(
                p,
                ResidueSet(p, u_mask),
                ResidueSet(p, v_mask),
                reserved=tuple(sorted(reserves)),
            )
            return pair, attempt
    raise ValueError(
        f"no compatible assignment mod {p} within the retry cap of {RETRY_CAP}"
    )

