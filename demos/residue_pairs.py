#!/usr/bin/env python3
"""A walk through compatible residue pairs.

A pair of residue sets U, V mod p is called prime-compatible when the
differences u - v with u only in U and v only in V hit every nonzero
class mod p. That is the whole trick behind extending two integer sets
by one element each while controlling every new difference mod p: pick
the new elements on a (u, v) combination realizing the class you want.

Run:  python3 demos/residue_pairs.py
"""

import random

from sdpc.modular import ResidueSet
from sdpc.pairs import (
    capacity_bound,
    explicit_pair,
    is_prime_compatible,
    randomized_extend_with_stats,
)


def show_pair(pair):
    u_only = sorted(pair.u.difference(pair.v))
    v_only = sorted(pair.v.difference(pair.u))
    common = sorted(set(pair.u) & set(pair.v))
    print(f"  p = {pair.p}")
    print(f"  U = {sorted(pair.u)}")
    print(f"  V = {sorted(pair.v)}")
    print(f"  U only {u_only}, V only {v_only}, shared {common}")
    print(f"  reserved residues: {list(pair.reserved) or 'none'}")


def main():
    print("1. compatibility by hand, p = 5")
    print("-" * 55)
    u = ResidueSet.from_members(5, (0, 1, 2))
    v = ResidueSet.from_members(5, (1, 3, 4))
    print(f"  U = {sorted(u)}, V = {sorted(v)}")
    covered = sorted({(a - b) % 5 for a in (0, 2) for b in (3, 4)})
    print(f"  differences from exclusive parts: {covered}")
    print(f"  is_prime_compatible: {is_prime_compatible(u, v)}")
    print("  every class 1..4 appears, so any target difference mod 5")
    print("  can be realized by one new element on each side.")

    print()
    print("2. the closed-form pair, available for every prime from 7 up")
    print("-" * 55)
    for p in (7, 13, 31):
        show_pair(explicit_pair(p))
        print()
    print("  note 1 and 11 always end up exclusive to U and 6 exclusive")
    print("  to V. The seed sets A = {1, 11}, B = {6} therefore sit")
    print("  correctly inside every one of these pairs from the start.")

    print()
    print("3. how much room a prime offers")
    print("-" * 55)
    for p in (7, 101, 1009):
        print(f"  capacity_bound({p}) = {capacity_bound(p)}")
    print("  a randomized pair must keep its shared part at or below")
    print("  this size, which is what limits how many integers the")
    print("  construction may already hold when p starts being managed.")
    print("  small primes offer no randomized room at all (7 is even")
    print("  negative); they rely on hand-built or closed-form pairs.")

    print()
    print("4. randomized extension around a prescribed core")
    print("-" * 55)
    core = frozenset(range(0, 40, 2))
    pair, attempts = randomized_extend_with_stats(core, 101, 2, random.Random(7))
    print(f"  core of {len(core)} residues pushed into both sides of a")
    print(f"  pair mod 101, two reserves set aside, found on attempt {attempts}")
    print(f"  reserves: {pair.reserved}")
    got = is_prime_compatible(pair.u, pair.v)
    print(f"  compatible: {got}")
    print("  the coin flips come from a seeded stream, so the")
    print("  same seed always rebuilds the same pair.")


if __name__ == "__main__":
    main()
