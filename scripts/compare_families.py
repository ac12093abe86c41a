#!/usr/bin/env python3
"""Tabulate packet numbers of the constructed families against the baseline.

For each size, builds the family array, verifies it (validity, minimal
rate, packet-number floor) and prints the exact F ratio to the baseline
scheme at the same user count and memory ratio.

Usage:
  python scripts/compare_families.py [--max-q 8]
"""

from __future__ import annotations

import argparse

from dpda import (
    bounds_for_array,
    compare_to_jcm,
    construct_even,
    construct_grid,
    construct_odd,
)
from dpda.bounds import format_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-q", type=int, default=8)
    args = parser.parse_args()

    rows = []
    families = [
        ("grid", construct_grid, range(2, args.max_q + 1)),
        ("even", construct_even, range(2, args.max_q + 1)),
        ("odd", construct_odd, range(1, args.max_q + 1)),
    ]
    for name, builder, qs in families:
        for q in qs:
            p = builder(q)
            report = bounds_for_array(p)
            assert report.meets_rate_bound and report.meets_f_bound, (name, q)
            cmp = compare_to_jcm(p)
            rows.append([
                name, q, p.k, f"{p.z}/{p.f}", p.f, cmp.f_jcm,
                cmp.ratio, cmp.rate,
            ])
    print(format_table(
        ["family", "q", "K", "Z/F", "F", "F_baseline", "F_ratio", "rate"],
        rows,
    ), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
