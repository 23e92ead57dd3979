#!/usr/bin/env python3
"""Recompute the exclusion tallies for the shipped group catalogs.

Runs the batch pipeline over every manifest in catalogs/, writes one CSV
per manifest into the output directory, and prints the per-group bound
table plus the summary tally line for each catalog.
"""

import argparse
import csv
import sys
from pathlib import Path

from tppb import errors
from tppb.cli import main as tppb_main
from tppb.groups import check_order_limit

REPO_ROOT = Path(__file__).resolve().parent.parent
CATALOG_DIR = REPO_ROOT / "catalogs"

TABLE_COLUMNS = (
    "name",
    "order",
    "subgroup_count",
    "class_count",
    "d3",
    "t",
    "b",
    "h",
    "t_le_d3",
    "h_le_d3",
    "beta_g",
)


def print_table(csv_path: Path) -> None:
    with open(csv_path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    picks = [header.index(c) for c in TABLE_COLUMNS]
    table = [TABLE_COLUMNS] + [[row[i] for i in picks] for row in body]
    widths = [max(len(r[i]) for r in table) for i in range(len(TABLE_COLUMNS))]
    for row in table:
        print("  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir", default=str(REPO_ROOT / "results"), help="CSV output directory"
    )
    parser.add_argument(
        "--exact-beta",
        action="store_true",
        help="also run the exhaustive subgroup-capacity search per group",
    )
    parser.add_argument("--jobs", default=1, help="parallel workers, at least 1")
    args = parser.parse_args(argv)
    try:
        jobs = check_order_limit(args.jobs, "jobs")
    except errors.BadParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for manifest in sorted(CATALOG_DIR.glob("*.manifest")):
        out = out_dir / (manifest.stem + ".csv")
        cli_args = ["batch", str(manifest), "--out", str(out)]
        if args.exact_beta:
            cli_args.append("--exact-beta")
        cli_args += ["--jobs", str(jobs)]
        print(f"== {manifest.name} -> {out}")
        code = tppb_main(cli_args)
        failures += code != 0
        print_table(out)
        print()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
