#!/usr/bin/env python3
"""Survey elementary quotient structure at desk scale.

For each rank k on [n], counts the rank-k decorated permutations, the
elementary flag pairs below them, and the distribution of recovered
shift-set sizes.  A compact end-to-end exercise of the enumeration,
quotient, and shift-recovery machinery.

    python scripts/quotient_survey.py --n 5

An argument the library refuses (such as an n above the flag-pair bound)
prints ``error: ...`` to stderr and exits 2, as the ``positroids`` CLI does;
the bound is checked before anything is printed to stdout.
"""
import argparse
import sys
import time
from collections import Counter

from positroids import all_decorated_permutations, census_records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5)
    args = parser.parse_args()
    try:
        survey(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def survey(n: int) -> None:
    records = census_records("flag-pairs", None, n)  # refuses before any output
    ranks = Counter(dp.rank for dp in all_decorated_permutations(n))
    print(f"decorated permutations on [{n}]: {sum(ranks.values())}")
    for k in range(n + 1):
        print(f"  rank {k}: {ranks[k]}")

    start = time.perf_counter()
    sizes = {k: Counter() for k in range(1, n + 1)}
    for record in records:
        sizes[record["k"]][len(record["shift_set"])] += 1
    for k, counts in sizes.items():
        dist = ", ".join(f"|A|={s}: {c}" for s, c in sorted(counts.items()))
        print(f"elementary flag pairs with rank(pi)={k}: {counts.total()}  ({dist})")
    print(f"done in {time.perf_counter() - start:.2f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
