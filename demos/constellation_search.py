#!/usr/bin/env python3
"""Finding prime constellations inside a residue class.

Given a class t mod q and offsets d_1 < ... < d_k, the search looks for
x = t (mod q) making every x + d_i a prime beyond 3 in absolute value.
Before any sieving starts, the offsets are screened for congruence
obstructions; a system that covers all residues of some small prime can
never succeed and is reported as inadmissible instead of spinning.

Run:  python3 demos/constellation_search.py
"""

from sdpc.admissible import TupleSystem, is_admissible
from sdpc.modular import CrtClass
from sdpc.search import ConstellationTask, search_with_count


def main():
    print("1. admissibility comes first")
    print("-" * 55)
    good = TupleSystem(CrtClass(30, 25, (2, 3, 5)), (-18, -8, -6))
    print(f"  class 25 mod 30 with offsets {good.offsets}:", end=" ")
    print("admissible" if is_admissible(good) is None else "inadmissible")

    bad = TupleSystem(CrtClass(6, 1, (2, 3)), (0, 2))
    obstruction = is_admissible(bad)
    print(f"  class 1 mod 6 with offsets {bad.offsets}:")
    print(f"    {obstruction.describe()}")
    print("  (x + 2 is a multiple of 3 for every x in that class)")

    print()
    print("2. a small search, verified by eye")
    print("-" * 55)
    task = ConstellationTask(good, start=19)
    x, _ = search_with_count(task)
    values = [x + d for d in good.offsets]
    print(f"  witness x = {x}, values {values}")
    print("  all three values are primes beyond 3, so x qualifies;")
    print("  2 and 3 never count, they collide with the wheel moduli.")

    print()
    print("3. skipping a known witness")
    print("-" * 55)
    again = ConstellationTask(good, start=x + 1)
    y, _ = search_with_count(again)
    print(f"  searched from {x + 1}, the next witness is {y}")
    print(f"  values {[y + d for d in good.offsets]}")

    print()
    print("4. exhaustion is an outcome, not an error in the data")
    print("-" * 55)
    rare = ConstellationTask(
        TupleSystem(CrtClass(30, 17, (2, 3, 5)), (0, 2)),
        start=10**6 + 38,
        budget=5,
    )
    found, examined = search_with_count(rare)
    if found is not None:
        print("  unexpectedly found something")
    else:
        print(f"  twin search near 10^6 with a budget of 5 candidates:")
        print(f"    exhausted after {examined}")
    print("  the count is exact, so budgets compose across resumed runs.")

    print()
    print("5. a deeper run, still fast thanks to the segmented sieve")
    print("-" * 55)
    deep = ConstellationTask(
        TupleSystem(CrtClass(30, 11, (2, 3, 5)), (0, 2, 6)),
        start=10**10,
    )
    z, _ = search_with_count(deep)
    print(f"  first x = 11 mod 30 past 10^10 with x, x+2, x+6 prime: {z}")


if __name__ == "__main__":
    main()
