"""Command-line front end: accuracy tables and per-radius diagnostics.

Three subcommands: ``hooke`` prints one table row for a harmonically
confined electron pair, ``atom`` does the same for a Slater-basis
atomic density, and ``dump`` writes the raw tau terms radius by radius
to CSV for plotting.  ``hooke_row`` and ``atom_row`` compute the table
rows, for the two commands and for ``scripts/make_tables.py`` alike.
Exit codes: 0 success, 2 usage, 3 bad data, 4 numerical failure.
"""

from __future__ import annotations

import csv
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import __version__
from .atoms import BasisError, STOBasisSet, bundled_basis, density_model, \
    hf_kinetic, list_bundled, parse_sto
from .hooke import SolverError, table_density
from .kedf import tau_point
from .radial import PV_WINDOW_FRACTION, DensityModel, PrincipalValueError, \
    QuadratureError, grid_for_density, load_density_table, \
    tabulated_derivatives
from .resum import ALL_METHODS, EVALUATORS, PadePole, ResumMethod, \
    error_columns, method_poles, table_headers

EXIT_DATA = 3
EXIT_NUMERICAL = 4
# What a numerical failure in a row raises; the CLI exits 4 on each.
NUMERICAL_ERRORS = (QuadratureError, PrincipalValueError, PadePole)


def hooke_row(omega: float, interacting: bool = True,
              methods=ALL_METHODS) -> list[str]:
    """One Hooke table row: omega, T_s and each method's percent error."""
    model, t_ref = table_density(omega, interacting=interacting)
    return [f"{omega:g}"] + error_columns(model, t_ref, methods)


def atom_row(basis: STOBasisSet, methods=ALL_METHODS) -> list[str]:
    """One atom table row: element, T_HF and each method's percent error."""
    return [basis.element] + error_columns(density_model(basis),
                                           hf_kinetic(basis), methods)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextmanager
def _exits(data=(), numerical=()):
    """Exit 3 on a ``BasisError`` or one of ``data``; exit 4 on a solver
    failure, on ``NUMERICAL_ERRORS`` or on one of ``numerical``."""
    try:
        yield
    except SolverError as exc:
        _fail(EXIT_NUMERICAL, f"solver failed: {exc}")
    except (BasisError, *data) as exc:
        _fail(EXIT_DATA, str(exc))
    except (*NUMERICAL_ERRORS, *numerical) as exc:
        _fail(EXIT_NUMERICAL, str(exc))


def _parse_methods(spec: str) -> tuple[ResumMethod, ...]:
    if spec.strip().lower() == "all":
        return ALL_METHODS
    try:
        methods = tuple(ResumMethod.parse(token)
                        for token in spec.split(",") if token.strip())
    except ValueError as exc:
        raise click.BadParameter(str(exc))
    if not methods:
        raise click.BadParameter("no methods given")
    return methods


def _emit_row(headers, make_row, csv_path):
    """Compute a row, print it aligned under its headers, and mirror it
    to CSV when asked.  A ``ValueError`` past the basis checks, such as
    a density kedf refuses, exits 4 as a numerical failure."""
    with _exits(numerical=(ValueError,)):
        row = make_row()
    widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
    click.echo("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    click.echo("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    if csv_path:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(headers)
            writer.writerow(row)
        click.echo(f"wrote {csv_path}")


_METHODS_OPTION = click.option(
    "--methods", default="all", show_default=True,
    help=f"Comma-separated subset of {','.join(m.value for m in ALL_METHODS)}"
         f", or of the row labels {','.join(m.label for m in ALL_METHODS)}.")
_CSV_OPTION = click.option(
    "--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
    help="Also write the row to this CSV file.")


@click.group()
@click.version_option(version=__version__)
def main():
    """Gradient-expansion kinetic energies on spherical densities."""


@main.command()
@click.option("--omega", type=float, required=True,
              help="Confinement frequency (hartree).")
@click.option("--non-interacting", is_flag=True, default=False,
              help="Drop the electron-electron repulsion.")
@_METHODS_OPTION
@_CSV_OPTION
def hooke(omega, non_interacting, methods, csv_path):
    """One accuracy-table row for a harmonically confined pair."""
    if not (omega > 0.0 and math.isfinite(omega)):
        raise click.BadParameter("--omega must be positive")
    method_list = _parse_methods(methods)
    _emit_row(table_headers("omega", "T_s", method_list),
              lambda: hooke_row(omega, not non_interacting, method_list),
              csv_path)


def _load_basis(spec: str) -> STOBasisSet:
    path = Path(spec)
    if path.is_file():
        return parse_sto(path)
    key = spec.strip().lower()
    if key in list_bundled():
        return bundled_basis(key)
    raise BasisError(f"{spec!r} is neither a file nor a bundled basis "
                     f"({', '.join(list_bundled())})")


@main.command()
@click.option("--basis", required=True,
              help="Basis JSON path, or a bundled element key (e.g. ne).")
@_METHODS_OPTION
@_CSV_OPTION
def atom(basis, methods, csv_path):
    """One accuracy-table row for a Slater-basis atomic density."""
    method_list = _parse_methods(methods)
    _emit_row(table_headers("element", "T_HF", method_list),
              lambda: atom_row(_load_basis(basis), method_list), csv_path)


DUMP_COLUMNS = ["r", "rho", "tau0", "tau2", "tau4", "tau6",
                "sum2", "sum4", "pade11", "pade21", "flags"]


def _dump_model(omega, basis, table) -> tuple[DensityModel, np.ndarray | None]:
    if sum(x is not None for x in (omega, basis, table)) != 1:
        raise click.UsageError(
            "pick exactly one of --omega, --basis, --table")
    if omega is not None:
        if not (omega > 0.0 and math.isfinite(omega)):
            raise click.BadParameter("--omega must be positive")
        return table_density(omega)[0], None
    if basis is not None:
        return density_model(_load_basis(basis)), None
    r, rho = load_density_table(table)
    return tabulated_derivatives(r, rho, label=str(table)), r


@main.command()
@click.option("--omega", type=float, default=None,
              help="Harmonic pair density at this frequency.")
@click.option("--basis", default=None,
              help="Atomic density from this basis file or element key.")
@click.option("--table", type=click.Path(exists=False), default=None,
              help="Tabulated density (r rho file, or a previous dump).")
@click.option("--rmax", type=float, default=None,
              help="Largest radius [default: the tail-rule radius].")
@click.option("--points", type=int, default=400, show_default=True,
              help="Number of radii (log-spaced).")
@click.option("--csv", "csv_path", required=True,
              type=click.Path(dir_okay=False),
              help="Destination CSV file.")
def dump(omega, basis, table, rmax, points, csv_path):
    """Write per-radius tau terms and resummations to CSV."""
    if points < 2:
        raise click.BadParameter("--points must be at least 2")
    with _exits(data=(ValueError, OSError)):
        model, native_r = _dump_model(omega, basis, table)
    if rmax is not None:
        if not (math.isfinite(rmax) and rmax * 1e-4 > 0.0):
            raise click.BadParameter(
                f"--rmax must be finite, and large enough that the first "
                f"radius rmax * 1e-4 is positive; got {rmax:g}")
        if model.r_support is not None and rmax > model.r_support:
            raise click.BadParameter(
                f"--rmax {rmax:g} lies beyond the density's support "
                f"radius {model.r_support:.6g} bohr")
        if native_r is not None and rmax * 1e-4 < native_r[0]:
            raise click.BadParameter(
                f"--rmax {rmax:g} puts the first radius {rmax * 1e-4:.6g} "
                f"below the table's first radius {native_r[0]:.6g} bohr")

    pades = (ResumMethod.PADE11, ResumMethod.PADE21)
    with _exits(numerical=(ValueError,)):
        grid = grid_for_density(model)
        if rmax is None and native_r is not None:
            radii = native_r[native_r > 0.0]
        else:
            rmax = grid.r_max if rmax is None else rmax
            radii = np.geomspace(rmax * 1e-4, rmax, points)
        near_pole = {}
        for method, poles in zip(pades, method_poles(model, pades, grid)):
            poles = np.array(poles)
            near_pole[f"{method.value}-pole"] = np.any(
                np.abs(radii[:, None] - poles) < PV_WINDOW_FRACTION * poles,
                axis=1)
        # Overflow at tiny radii is refused below as a non-finite column.
        with np.errstate(all="ignore"):
            jet = model.eval(radii)
            p = tau_point(jet, radii)
            columns = np.array(
                [radii, jet[0], *p] + [EVALUATORS[m](p) for m in (
                    ResumMethod.T02, ResumMethod.T024, *pades)])
        bad = np.argwhere(~np.isfinite(columns.T))
        if bad.size:
            i, k = bad[0]
            raise ValueError(f"dump column {DUMP_COLUMNS[k]} is not finite "
                             f"at r={radii[i]:.12g} (got {columns[k, i]})")

    rows = [[f"{c:.12g}" for c in cells]
            + [" ".join(f for f, near in near_pole.items() if near[i])]
            for i, cells in enumerate(columns.T)]
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DUMP_COLUMNS)
        writer.writerows(rows)
    click.echo(f"wrote {len(rows)} rows to {csv_path}")


if __name__ == "__main__":
    main()
