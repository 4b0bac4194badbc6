"""Exact arithmetic on prime-modulus residue sets and CRT residue classes.

Residue sets are stored as bit masks (bit i set means residue i is a
member), which makes the difference-cover computations elsewhere in the
package cheap word-level operations instead of nested set loops. All
integers are ordinary Python ints, so nothing here overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .primes import is_prime


@lru_cache(maxsize=4096)
def _checked_prime(p: int) -> bool:
    return p >= 2 and is_prime(p).accepted


def set_bits(mask: int) -> Iterator[int]:
    """The positions of mask's set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class ResidueSet:
    """A subset of Z_p for prime p, held as a dense bit vector."""

    modulus: int
    mask: int

    def __post_init__(self):
        if not _checked_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")
        if not 0 <= self.mask < 1 << self.modulus:
            raise ValueError("mask has bits outside [0, modulus)")

    @classmethod
    def from_members(cls, modulus: int, members: Iterable[int]) -> "ResidueSet":
        mask = 0
        for m in members:
            if not 0 <= m < modulus:
                raise ValueError(f"residue {m} out of range for modulus {modulus}")
            mask |= 1 << m
        return cls(modulus, mask)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def __iter__(self) -> Iterator[int]:
        return set_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, r: int) -> bool:
        return 0 <= r < self.modulus and (self.mask >> r) & 1 == 1

    def _require_same_modulus(self, other: "ResidueSet") -> None:
        if self.modulus != other.modulus:
            raise ValueError("residue sets have different moduli")

    def union(self, other: "ResidueSet") -> "ResidueSet":
        self._require_same_modulus(other)
        return ResidueSet(self.modulus, self.mask | other.mask)

    def intersection(self, other: "ResidueSet") -> "ResidueSet":
        self._require_same_modulus(other)
        return ResidueSet(self.modulus, self.mask & other.mask)

    def difference(self, other: "ResidueSet") -> "ResidueSet":
        self._require_same_modulus(other)
        return ResidueSet(self.modulus, self.mask & ~other.mask)


def mod_inverse(a: int, p: int) -> int:
    """Inverse of a modulo the prime p.

    Raises ValueError when a is divisible by p, since no inverse exists.
    """
    a %= p
    if a == 0:
        raise ValueError(f"no inverse: {a} is divisible by {p}")
    return pow(a, -1, p)


@dataclass(frozen=True)
class CrtClass:
    """A residue class t (mod q), with q a product of distinct primes.

    `primes` records the constituent prime moduli when the class was built
    by crt_combine; admissibility checks read the factorization from here
    instead of refactoring q. A class assembled by hand may leave it None.
    """

    modulus: int
    residue: int
    primes: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("residue out of range")
        if self.primes is not None:
            ps = tuple(self.primes)
            if len(set(ps)) != len(ps):
                raise ValueError("constituent primes must be distinct")
            prod = 1
            for p in ps:
                if not _checked_prime(p):
                    raise ValueError(f"constituent modulus {p} is not prime")
                prod *= p
            if prod != self.modulus:
                raise ValueError("modulus is not the product of its primes")
            object.__setattr__(self, "primes", tuple(sorted(ps)))


def crt_combine(constraints: Sequence[tuple[int, int]]) -> CrtClass:
    """Combine congruences x = r_i (mod p_i) over distinct primes p_i.

    Args:
        constraints: sequence of (residue, prime) pairs.

    Returns:
        The unique class t (mod q) with q the product of the primes.
    """
    seen: set[int] = set()
    t, q = 0, 1
    for residue, p in constraints:
        if not _checked_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p in seen:
            raise ValueError(f"duplicate prime modulus {p}")
        if not 0 <= residue < p:
            raise ValueError(f"residue {residue} out of range mod {p}")
        seen.add(p)
        # lift t (mod q) to t' (mod q*p) hitting `residue` mod p
        shift = (residue - t) * mod_inverse(q, p) % p
        t = t + q * shift
        q *= p
    return CrtClass(q, t, primes=tuple(sorted(seen)))


def linear_map_set(s: ResidueSet, alpha: int, beta: int) -> ResidueSet:
    """Image of a residue set under x -> alpha*x + beta (mod p).

    alpha must be nonzero mod p, otherwise the map is not a bijection.
    """
    p = s.modulus
    alpha %= p
    beta %= p
    if alpha == 0:
        raise ValueError("alpha is 0 mod p: not a bijection")
    mask = 0
    for x in s:
        mask |= 1 << ((alpha * x + beta) % p)
    return ResidueSet(p, mask)
