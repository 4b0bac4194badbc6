"""Local admissibility of a CRT-pinned offset system.

A search task asks for x = t (mod q) making every |x + d_i| prime. Two
local conditions can doom that for all large x: a prime p dividing q
forces x + d_i = t + d_i (mod p), so p | t + d_i kills offset i outright;
and a prime p not dividing q with p <= |offsets| may see the offsets
cover every residue class mod p, so that p divides some value no matter
where x lands. This module detects the smallest obstructing prime.
"""

from __future__ import annotations

from dataclasses import dataclass

from .modular import CrtClass
from .primes import CERTIFIED_LIMIT, prime_factors, primes_up_to

FIXED_PRIME_DIVIDES = "fixed-prime-divides"
COMPLETE_RESIDUE_SYSTEM = "complete-residue-system"


@dataclass(frozen=True)
class TupleSystem:
    """A residue class t (mod q) together with integer offsets d_i."""

    crt: CrtClass
    offsets: tuple[int, ...]

    def __post_init__(self):
        offs = tuple(self.offsets)
        if len(set(offs)) != len(offs):
            raise ValueError("offsets must be pairwise distinct")
        object.__setattr__(self, "offsets", offs)


@dataclass(frozen=True)
class Obstruction:
    """Why no admissible x exists: the smallest obstructing prime.

    kind is "fixed-prime-divides" (p divides q and t + offsets[index])
    or "complete-residue-system" (p does not divide q, yet the offsets
    hit every class mod p).
    """

    p: int
    kind: str
    index: int | None = None

    def describe(self) -> str:
        if self.kind == FIXED_PRIME_DIVIDES:
            return f"prime {self.p} divides q and t + offsets[{self.index}]"
        return f"offsets form a complete residue system mod {self.p}"


class InadmissibleSystemError(ValueError):
    """Raised where an admissible system is a precondition."""

    def __init__(self, obstruction: Obstruction):
        super().__init__(f"inadmissible system: {obstruction.describe()}")
        self.obstruction = obstruction


def is_admissible(system: TupleSystem) -> Obstruction | None:
    """None when admissible, else the smallest obstructing prime.

    The factorization of q is the factor list the CrtClass carries; a
    bare q below 2**64 is factored directly, anything larger without
    factors is an error.
    """
    q = system.crt.modulus
    t = system.crt.residue
    factors = system.crt.primes
    if factors is None:
        if q >= CERTIFIED_LIMIT:
            raise ValueError("explicit factor list required for q >= 2**64")
        factors = prime_factors(q)
    m = len(system.offsets)
    for p in sorted(set(factors) | set(primes_up_to(m))):
        if q % p == 0:
            for i, d in enumerate(system.offsets):
                if (t + d) % p == 0:
                    return Obstruction(p, FIXED_PRIME_DIVIDES, index=i)
        elif p <= m:
            if len({d % p for d in system.offsets}) == p:
                return Obstruction(p, COMPLETE_RESIDUE_SYSTEM)
    return None
