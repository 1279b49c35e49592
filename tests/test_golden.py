"""Golden snapshot of both accuracy tables.

``tests/golden/*.csv`` are the files ``scripts/make_tables.py`` wrote
before the density-to-tau path was made array-native.  The rows are
rebuilt here from the session fixtures (the same grids, references and
reports the acceptance tests use, so no row is computed twice) and
written the way the script writes them; the bytes must not move.
"""

import csv
import io
from pathlib import Path

from kedsum.resum import ALL_METHODS

GOLDEN = Path(__file__).parent / "golden"


def _csv_bytes(first_header, rows):
    headers = [first_header, "T_ref"] + [f"err%[{m.label}]"
                                         for m in ALL_METHODS]
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _row(key, bundle):
    return [key, f"{bundle.t_ref:.6g}"] + [f"{e:+.2f}" for e in bundle.errors]


def test_hooke_table_matches_snapshot(analytic_half, hooke_bundle):
    rows = [_row(f"{omega:g}",
                 analytic_half if omega == 0.5 else hooke_bundle(omega))
            for omega in (0.25, 0.5, 1.0, 4.0)]
    assert _csv_bytes("omega", rows) == (
        GOLDEN / "hooke_table.csv").read_bytes()


def test_atoms_table_matches_snapshot(atom_bundle):
    rows = [_row(atom_bundle(key).basis.element, atom_bundle(key))
            for key in ("he", "be", "ne", "ar")]
    assert _csv_bytes("element", rows) == (
        GOLDEN / "atoms_table.csv").read_bytes()
