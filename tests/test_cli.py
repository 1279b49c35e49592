"""End-to-end checks of the command-line interface.

The CLI is plumbing over the library, so rows are asserted against
values computed through the library API in the same process; physics
comparisons against published numbers live in the acceptance suite.
"""

import csv
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import kedsum
from kedsum.atoms import BasisError
from kedsum.cli import DUMP_COLUMNS, main
from kedsum.hooke import SolverError
from kedsum.radial import grid_for_density, load_density_table, \
    tabulated_derivatives
from kedsum.resum import ResumMethod, integrate_method

PERCENT_RE = re.compile(r"^[+-]\d+\.\d{2}$")
ROOT = Path(__file__).resolve().parents[1]
SRC = Path(kedsum.__file__).resolve().parents[1]


@pytest.fixture()
def runner():
    return CliRunner()


def _row_fields(output):
    """Split the second (data) line of a two-line table."""
    lines = [ln for ln in output.strip().splitlines() if ln.strip()]
    assert len(lines) >= 2, output
    return lines[0].split(), lines[1].split()


# ---------------------------------------------------------------------------
# Table rows.
# ---------------------------------------------------------------------------

def test_hooke_row_omega_half(runner):
    result = runner.invoke(main, ["hooke", "--omega", "0.5"])
    assert result.exit_code == 0, result.output
    headers, fields = _row_fields(result.output)
    assert headers[:2] == ["omega", "T_s"]
    assert fields[0] == "0.5"
    assert float(fields[1]) == pytest.approx(0.63525, abs=2e-4)
    expected = (-11.9, -0.78, 16.5, 1.27, -0.26)
    for field, want in zip(fields[2:], expected):
        assert PERCENT_RE.match(field), field
        assert float(field) == pytest.approx(want, abs=0.05)


def test_hooke_row_is_deterministic(runner):
    first = runner.invoke(main, ["hooke", "--omega", "0.5"])
    second = runner.invoke(main, ["hooke", "--omega", "0.5"])
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_hooke_row_omega_quarter_matches_library(runner, hooke_bundle):
    # The solver route: every printed cell must be the library value
    # rendered at the documented precision (energies %.6g, errors +.2f).
    bundle = hooke_bundle(0.25)
    result = runner.invoke(main, ["hooke", "--omega", "0.25"])
    assert result.exit_code == 0, result.output
    _, fields = _row_fields(result.output)
    assert fields[1] == f"{bundle.t_ref:.6g}"
    for field, err in zip(fields[2:], bundle.errors):
        assert field == f"{err:+.2f}"


def test_hooke_methods_subset(runner):
    result = runner.invoke(
        main, ["hooke", "--omega", "0.5", "--methods", "t0,pade21"])
    assert result.exit_code == 0, result.output
    headers, fields = _row_fields(result.output)
    assert headers == ["omega", "T_s", "err%[T0]", "err%[T[2/1]]"]
    assert len(fields) == 4


def test_hooke_row_csv_mirror(runner, tmp_path):
    target = tmp_path / "row.csv"
    result = runner.invoke(
        main, ["hooke", "--omega", "0.5", "--csv", str(target)])
    assert result.exit_code == 0, result.output
    assert f"wrote {target}" in result.output
    headers, fields = _row_fields(result.output)
    with open(target, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == headers
    assert rows[1] == fields


def test_atom_row_helium(runner):
    result = runner.invoke(main, ["atom", "--basis", "he"])
    assert result.exit_code == 0, result.output
    headers, fields = _row_fields(result.output)
    assert headers[:2] == ["element", "T_HF"]
    assert fields[0] == "He"
    assert float(fields[1]) == pytest.approx(2.8617, rel=1e-3)
    expected = (-10.5, 0.59, 3.57, 2.01, 0.53)
    for field, want in zip(fields[2:], expected):
        assert float(field) == pytest.approx(want, abs=0.2)


def test_readme_rows_are_verbatim(runner):
    # Every "$ kedsum ..." block of the README is the command's output.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [block.split("```", 1)[0]
              for block in readme.split("```text\n")[1:]]
    commands = [b for b in blocks if b.startswith("$ kedsum ")]
    assert len(commands) == 2
    for block in commands:
        command, expected = block.split("\n", 1)
        result = runner.invoke(main, shlex.split(command)[2:])
        assert result.exit_code == 0, result.output
        assert result.output == expected


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "version 0.1.0" in result.output


# ---------------------------------------------------------------------------
# Exit codes: 2 usage, 3 bad data, 4 numerical failure.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args, fragment", [
    (["hooke", "--omega", "-1"], "must be positive"),
    (["hooke", "--omega", "0.5", "--methods", "bogus"], "unknown method"),
    (["hooke"], "Missing option"),
    (["dump", "--omega", "0.5", "--basis", "he", "--csv", "x.csv"],
     "exactly one"),
    (["dump", "--omega", "0.5"], "Missing option"),
    (["dump", "--omega", "0.5", "--csv", "x.csv", "--points", "1"],
     "at least 2"),
    (["dump", "--basis", "he", "--csv", "x.csv", "--rmax", "inf"],
     "--rmax must be finite"),
    (["dump", "--basis", "he", "--csv", "x.csv", "--rmax", "1e-320"],
     "rmax * 1e-4 is positive"),
    (["dump", "--basis", "he", "--csv", "x.csv", "--rmax", "-1"],
     "--rmax must be finite"),
])
def test_usage_errors_exit_2(runner, args, fragment):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert fragment in result.output


def test_missing_basis_exits_3(runner):
    result = runner.invoke(main, ["atom", "--basis", "/nonexistent/x.json"])
    assert result.exit_code == 3
    assert "neither a file nor a bundled basis" in result.output


def test_malformed_basis_file_exits_3(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"element": "He"}), encoding="utf-8")
    result = runner.invoke(main, ["atom", "--basis", str(bad)])
    assert result.exit_code == 3
    assert "missing key" in result.output


def test_bad_table_exits_3(runner, tmp_path):
    out = tmp_path / "out.csv"
    result = runner.invoke(
        main, ["dump", "--table", "/nonexistent/табле.dat",
               "--csv", str(out)])
    assert result.exit_code == 3

    three_cols = tmp_path / "three.dat"
    three_cols.write_text("0.1 0.5 9\n0.2 0.4 9\n", encoding="utf-8")
    result = runner.invoke(
        main, ["dump", "--table", str(three_cols), "--csv", str(out)])
    assert result.exit_code == 3
    assert "two columns" in result.output

    header_only = tmp_path / "header.csv"
    header_only.write_text("r,rho\n", encoding="utf-8")
    result = runner.invoke(
        main, ["dump", "--table", str(header_only), "--csv", str(out)])
    assert result.exit_code == 3
    assert "no samples" in result.output


@pytest.mark.parametrize("column,index,value", [
    (1, 20, np.nan), (1, 20, np.inf), (0, 0, np.nan), (0, 59, np.inf),
])
def test_non_finite_table_sample_exits_3(runner, tmp_path, column, index,
                                         value):
    r = np.linspace(0.05, 12.0, 60)
    samples = np.column_stack((r, np.exp(-2.0 * r)))
    samples[index, column] = value
    table = tmp_path / "bad.dat"
    np.savetxt(table, samples)
    result = runner.invoke(main, ["dump", "--table", str(table),
                                  "--csv", str(tmp_path / "out.csv")])
    assert result.exit_code == 3, result.output
    assert f"error: sample {index} is not finite" in result.output


def test_density_refused_inside_a_row_exits_4(runner, tmp_path):
    # A valid basis so tight that rho has underflowed to 0 at r = 1, the
    # tail rule's first radius, where kedf refuses it with a ValueError.
    basis = tmp_path / "tight.json"
    basis.write_text(json.dumps({
        "element": "X", "electron_count": 2,
        "shells": [{"l": 0, "occ": 2,
                    "primitives": [{"n": 1, "zeta": 1000.0}],
                    "coeffs": [1.0]}]}), encoding="utf-8")
    result = runner.invoke(main, ["atom", "--basis", str(basis)])
    assert result.exit_code == 4, result.output
    assert "error: tau4 needs rho > 0" in result.output


def test_solver_failure_exits_4(runner, monkeypatch):
    def explode(params, **kwargs):
        raise SolverError("synthetic breakdown")

    monkeypatch.setattr("kedsum.hooke.solve_general", explode)
    result = runner.invoke(main, ["hooke", "--omega", "0.3"])
    assert result.exit_code == 4
    assert "solver failed" in result.output


@pytest.mark.parametrize("omega", ["3e-4", "2e-4", "1e-4"])
def test_short_box_refusal_names_no_bound_the_box_meets(runner, omega):
    # Below omega ~ 4e-4 the repulsion spreads the state past
    # 10/sqrt(omega), so even the default box of 12/sqrt(omega), which
    # meets that bound, is too short.
    result = runner.invoke(main, ["hooke", "--omega", omega])
    assert result.exit_code == 4, result.output
    box = float(re.search(r"the box \[0, (\S+)\] is too short",
                          result.output).group(1))
    bounds = re.findall(r"at or above (\S+)", result.output)
    assert all(float(bound) > box for bound in bounds), result.output


# ---------------------------------------------------------------------------
# The dump subcommand.
# ---------------------------------------------------------------------------

def _read_dump(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_dump_helium_columns_flags_and_window(runner, tmp_path):
    target = tmp_path / "he.csv"
    result = runner.invoke(main, ["dump", "--basis", "he",
                                  "--csv", str(target)])
    assert result.exit_code == 0, result.output
    header, rows = _read_dump(target)
    assert header == DUMP_COLUMNS
    assert len(rows) == 400

    radii = [float(row[0]) for row in rows]
    assert all(a < b for a, b in zip(radii, radii[1:]))

    mid = rows[200]
    tau0, tau2, sum2 = float(mid[2]), float(mid[3]), float(mid[6])
    assert sum2 == pytest.approx(tau0 + tau2, rel=1e-9)

    flagged = [row for row in rows if "pade21-pole" in row[-1]]
    assert flagged, "no rows marked near the [2/1] denominator zero"

    # Sixth order falls below fourth in a narrow shell around r ~ 0.17.
    window = [float(row[0]) for row in rows
              if abs(float(row[5])) < abs(float(row[4]))]
    assert window
    assert 0.12 < min(window) < max(window) < 0.22


@pytest.fixture(scope="module")
def omega_half_dump(tmp_path_factory):
    target = tmp_path_factory.mktemp("dump") / "hooke.csv"
    result = CliRunner().invoke(main, ["dump", "--omega", "0.5",
                                       "--csv", str(target)])
    assert result.exit_code == 0, result.output
    return target


def test_dump_roundtrip_reproduces_t0(omega_half_dump, analytic_half):
    r, rho = load_density_table(omega_half_dump)
    model = tabulated_derivatives(r, rho, label="roundtrip")
    grid = grid_for_density(model)
    recovered = integrate_method(model, ResumMethod.T0, grid).T
    reference = analytic_half.reports[ResumMethod.T0].T
    assert recovered == pytest.approx(reference, rel=1e-4)


def test_dump_reingests_with_comment_above_header(runner, omega_half_dump,
                                                 tmp_path):
    table = tmp_path / "annotated.csv"
    table.write_text("# omega = 1/2 pair\n"
                     + omega_half_dump.read_text(encoding="utf-8"),
                     encoding="utf-8")
    target = tmp_path / "again.csv"
    result = runner.invoke(main, ["dump", "--table", str(table),
                                  "--csv", str(target)])
    assert result.exit_code == 0, result.output
    _, rows = _read_dump(target)
    _, original = _read_dump(omega_half_dump)
    assert [row[:2] for row in rows] == [row[:2] for row in original]


def test_dump_hooke_has_ordered_magnitude_window(omega_half_dump):
    _, rows = _read_dump(omega_half_dump)
    ordered = [row for row in rows
               if abs(float(row[5])) < abs(float(row[4]))
               < abs(float(row[3])) < abs(float(row[2]))]
    assert ordered, "no radius with |tau6|<|tau4|<|tau2|<|tau0|"


def test_dump_reads_scientific_notation_table(runner, tmp_path):
    table = tmp_path / "he.dat"
    r = np.geomspace(1e-4, 20.0, 200)
    np.savetxt(table, np.c_[r, np.exp(-2.0 * r)])
    target = tmp_path / "out.csv"
    result = runner.invoke(main, ["dump", "--table", str(table),
                                  "--csv", str(target)])
    assert result.exit_code == 0, result.output
    _, rows = _read_dump(target)
    assert [float(row[0]) for row in rows] == pytest.approx(r, rel=1e-11)


def test_dump_uniform_table_derivative_terms_vanish(runner, tmp_path):
    table = tmp_path / "uniform.dat"
    radii = np.linspace(0.01, 2.0, 300)
    table.write_text(
        "\n".join(f"{r:.10f} 0.7" for r in radii) + "\n", encoding="utf-8")
    target = tmp_path / "uniform.csv"
    result = runner.invoke(main, ["dump", "--table", str(table),
                                  "--csv", str(target)])
    assert result.exit_code == 0, result.output
    _, rows = _read_dump(target)
    assert len(rows) == 300
    interior = [row for row in rows if 0.3 < float(row[0]) < 1.7]
    assert interior
    for row in interior:
        tau0 = float(row[2])
        assert tau0 > 0.0
        for cell in (row[3], row[4], row[5]):
            assert abs(float(cell)) < 1e-10 * tau0


def test_dump_rmax_beyond_support_is_a_usage_error(runner, tmp_path):
    # A Hooke density's Chebyshev table ends at its support radius (27
    # bohr at omega = 1/4, 27.6 at 1/2); past it the profile reads NaN.
    for omega, rmax in (("0.25", "200"), ("0.5", "30")):
        result = runner.invoke(main, ["dump", "--omega", omega,
                                      "--rmax", rmax, "--points", "50",
                                      "--csv", str(tmp_path / "out.csv")])
        assert result.exit_code == 2, result.output
        assert "support radius" in result.output
        assert not (tmp_path / "out.csv").exists()


def test_dump_numerical_failure_exits_4(runner, tmp_path, monkeypatch):
    def broken_scan(*args, **kwargs):
        raise ValueError("denominator is not finite at r=1.5")

    monkeypatch.setattr("kedsum.cli.method_poles", broken_scan)
    result = runner.invoke(main, ["dump", "--basis", "he",
                                  "--csv", str(tmp_path / "he.csv")])
    assert result.exit_code == 4, result.output
    assert "denominator is not finite at r=1.5" in result.output


def test_dump_refuses_non_finite_columns(runner, tmp_path):
    # At r = 1e-304, 1/r^2 overflows and tau4 reads inf.
    target = tmp_path / "he.csv"
    result = runner.invoke(main, ["dump", "--basis", "he", "--rmax", "1e-300",
                                  "--points", "3", "--csv", str(target)])
    assert result.exit_code == 4, result.output
    assert "column tau4 is not finite at r=1e-304" in result.output
    assert not target.exists()


def test_dump_table_rmax_below_first_sample_is_a_usage_error(runner,
                                                            tmp_path):
    # The spline extrapolates below the table's first radius.
    table = tmp_path / "he.dat"
    r = np.geomspace(1e-2, 20.0, 200)
    np.savetxt(table, np.c_[r, np.exp(-2.0 * r)])
    target = tmp_path / "out.csv"
    result = runner.invoke(main, ["dump", "--table", str(table),
                                  "--rmax", "10", "--points", "5",
                                  "--csv", str(target)])
    assert result.exit_code == 2, result.output
    assert "first radius 0.001 below the table's first radius 0.01" \
        in result.output
    assert not target.exists()


def test_dump_table_skips_a_first_radius_of_zero(runner, tmp_path):
    # The table reader accepts r = 0, where the tau terms divide by r;
    # the dump writes every positive radius of the table.
    table = tmp_path / "origin.dat"
    r = np.concatenate(([0.0], np.geomspace(1e-3, 20.0, 200)))
    np.savetxt(table, np.c_[r, np.exp(-2.0 * r)])
    target = tmp_path / "out.csv"
    result = runner.invoke(main, ["dump", "--table", str(table),
                                  "--csv", str(target)])
    assert result.exit_code == 0, result.output
    _, rows = _read_dump(target)
    assert len(rows) == 200
    assert float(rows[0][0]) == 1e-3


def test_dump_flags_every_pole_that_integration_reports(runner, tmp_path,
                                                        atom_bundle):
    target = tmp_path / "he.csv"
    result = runner.invoke(main, ["dump", "--basis", "he",
                                  "--csv", str(target)])
    assert result.exit_code == 0, result.output
    _, rows = _read_dump(target)
    flagged = [float(row[0]) for row in rows if "pade21-pole" in row[-1]]
    poles = atom_bundle("he").reports[ResumMethod.PADE21].poles
    assert poles
    for pole in poles:
        assert any(abs(r - pole) < 0.05 * pole for r in flagged), pole


# ---------------------------------------------------------------------------
# Fresh interpreters.
# ---------------------------------------------------------------------------

def _python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_scipy_integrate_unloaded(tmp_path):
    # No scipy module at all: not on import, and not through an atom row,
    # the closed-form Hooke row at omega = 1/2 or a solver row at
    # omega = 1/4, whose collocation solve and density kernel are numpy.
    # Only tabulated densities load scipy, for their splines.
    loaded = ("print(sorted(m for m in sys.modules "
              "if m.startswith('scipy')))")
    for run in ["", "kedsum.cli.main(['atom', '--basis', 'ar'], "
                    "standalone_mode=False); "
                    "kedsum.cli.main(['hooke', '--omega', '0.5'], "
                    "standalone_mode=False); "
                    "kedsum.cli.main(['hooke', '--omega', '0.25'], "
                    "standalone_mode=False); "]:
        done = _python(["-c", f"import sys, kedsum.cli; {run}{loaded}"],
                       tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]", done.stdout
    assert done.stdout.startswith("element")
    assert "\n  0.5 " in done.stdout, done.stdout
    assert "\n 0.25 " in done.stdout, done.stdout


def test_dump_non_finite_columns_exit_4_under_warnings_as_errors(tmp_path):
    done = _python(["-W", "error", "-m", "kedsum.cli", "dump", "--basis", "he",
                    "--rmax", "1e-300", "--points", "3", "--csv", "he.csv"],
                   tmp_path)
    assert done.returncode == 4, done.stderr
    assert "column tau4 is not finite at r=1e-304" in done.stderr
    assert "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_make_tables_fails_on_a_missing_basis(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "make_tables", ROOT / "scripts" / "make_tables.py")
    make_tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_tables)
    monkeypatch.setattr(make_tables, "HOOKE_OMEGAS", (0.5,))
    monkeypatch.setattr(make_tables, "ATOM_ORDER", ("he", "xx"))
    monkeypatch.setattr(sys, "argv", ["make_tables.py", str(tmp_path)])
    with pytest.raises(BasisError, match="no bundled basis for 'xx'"):
        make_tables.main()
    assert (tmp_path / "hooke_table.csv").exists()
    assert not (tmp_path / "atoms_table.csv").exists()


def test_make_tables_help_writes_nothing(tmp_path):
    done = _python([str(ROOT / "scripts" / "make_tables.py"), "--help"],
                   tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
    assert list(tmp_path.iterdir()) == []
