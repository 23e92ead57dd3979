#!/usr/bin/env python3
"""Explore exponent bounds implied by group capacities.

For each requested group the script computes the exact subgroup
capacity, the upper bounds, and the cubic degree sum, then asks which
matrix-multiplication exponent a capacity at each level would certify
via capacity^(x/3) <= degree sum at exponent x. A group whose bounds
all sit at or below the cubic degree sum certifies nothing below 3,
which is the expected outcome; the script makes the margin visible.
"""

import argparse
import sys

from tppb.bounds import bounds_report, solve_omega_bound
from tppb.cli import parse_group_spec, realize_group_spec
from tppb.errors import NoRootInRange
from tppb.groups import check_order_limit

DEFAULT_SPECS = [
    "sym:3",
    "sym:4",
    "alt:4",
    "alt:5",
    "dihedral:24",
    "dicyclic:24",
    "product(sym:3,sym:3)",
    "product(sym:4,cyclic:2)",
    "dihedral:50",
    "product(cyclic:5,dihedral:10)",
]


def implied_exponent(capacity: int, degrees) -> str:
    if capacity is None:
        return "n/a"
    try:
        root = solve_omega_bound(capacity, degrees)
    except NoRootInRange:
        return "<2"
    return "none" if root is None else f"{root:.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "specs",
        nargs="*",
        default=DEFAULT_SPECS,
        help="group specs to analyze (default: a builtin selection)",
    )
    parser.add_argument(
        "--order-limit", type=check_order_limit, default=None, help="refuse larger groups"
    )
    args = parser.parse_args(argv)

    header = ("group", "order", "beta_g", "h", "t", "d3", "x(beta_g)", "x(h)", "x(d3+1)")
    rows = [header]
    for text in args.specs:
        spec = parse_group_spec(text)
        G = realize_group_spec(spec, order_limit=args.order_limit)
        report = bounds_report(G, group_name=spec.name, exact_beta=True)
        degrees = report.degrees
        rows.append(
            (
                spec.name,
                str(G.order),
                str(report.beta_g_or_blank),
                str(report.h),
                str(report.t),
                str(report.d3),
                implied_exponent(report.beta_g_or_blank, degrees),
                implied_exponent(report.h, degrees),
                implied_exponent(report.d3 + 1, degrees),
            )
        )

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    print()
    print(
        "x(v) is the exponent bound a capacity of v would certify for this"
        " group; 'none' means v does not exceed the cubic degree sum."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
