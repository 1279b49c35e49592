#!/usr/bin/env python3
"""Regenerate both accuracy tables from scratch and write them as CSV.

Usage:
    python3 scripts/make_tables.py [OUT_DIR]

Produces ``hooke_table.csv`` (harmonically confined electron pairs at
omega = 1/4, 1/2, 1, 4) and ``atoms_table.csv`` (He, Be, Ne, Ar from the
bundled Slater bases) in OUT_DIR (default: current directory).  Every
row is computed in this process by ``kedsum.cli.hooke_row`` and
``atom_row``, the functions behind ``kedsum hooke`` and ``kedsum atom``;
nothing is hard-coded, so the files double as a regression snapshot.
"""

import argparse
import csv
import time
from pathlib import Path

from kedsum.atoms import bundled_basis
from kedsum.cli import atom_row, hooke_row
from kedsum.resum import table_headers

HOOKE_OMEGAS = (0.25, 0.5, 1.0, 4.0)
ATOM_ORDER = ("he", "be", "ne", "ar")


def write_table(path, first_header, rows):
    headers = table_headers(first_header, "T_ref")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)
    print(f"wrote {path}")
    print("  " + "  ".join(headers))
    for row in rows:
        print("  " + "  ".join(row))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", type=Path, default=Path("."),
                        help="directory for the two CSV files "
                             "(default: current directory)")
    out_dir = parser.parse_args().out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.time()
    write_table(out_dir / "hooke_table.csv", "omega",
                [hooke_row(omega) for omega in HOOKE_OMEGAS])
    write_table(out_dir / "atoms_table.csv", "element",
                [atom_row(bundled_basis(key)) for key in ATOM_ORDER])
    print(f"done in {time.time() - start:.1f} s")


if __name__ == "__main__":
    main()
