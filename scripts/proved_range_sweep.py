#!/usr/bin/env python3
"""Sweep the proved range: classify every (r, n) with r up to a bound and
print the per-r certificate breakdown.  Any integral value found would be
a counterexample to the nonintegrality conjecture."""

import argparse
import sys

from binsum.experiments import scan_density


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r-max", type=int, default=22)
    ap.add_argument("--n-max", type=int, default=1500)
    ap.add_argument("--oracle-cutoff", type=int, default=3000)
    args = ap.parse_args()

    header = f"{'r':>4} {'sylvester':>10} {'order':>8} {'oracle':>7} {'undecided':>10} {'integral':>9} {'secs':>7}"
    print(header)
    print("-" * len(header))
    total_integral = 0
    for r in range(1, args.r_max + 1):
        rep = scan_density(r, 1, args.n_max, args.oracle_cutoff)
        oracle = rep.counts["oracle_nonintegral"] + rep.counts["oracle_integral"]
        total_integral += rep.counts["oracle_integral"]
        print(
            f"{r:>4} {rep.cert_counts['sylvester']:>10} {rep.cert_counts['order']:>8} "
            f"{oracle:>7} {rep.counts['undecided']:>10} "
            f"{rep.counts['oracle_integral']:>9} {rep.elapsed:>7.2f}"
        )
        if rep.integral_witnesses:
            print(f"     !! integral at n = {rep.integral_witnesses}")
    if total_integral:
        print("COUNTEREXAMPLE FOUND", file=sys.stderr)
        return 1
    print(f"\nno integral values for r <= {args.r_max}, n <= {args.n_max}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
