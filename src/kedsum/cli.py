"""Command-line front end: accuracy tables and per-radius diagnostics.

Three subcommands: ``hooke`` prints one table row for a harmonically
confined electron pair, ``atom`` does the same for a Slater-basis
atomic density, and ``dump`` writes the raw tau terms radius by radius
to CSV for plotting.  Exit codes: 0 success, 2 usage, 3 bad data,
4 numerical failure.
"""

from __future__ import annotations

import csv
import math
import sys
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
    error_columns, method_poles, table_headers, tau_table

EXIT_DATA = 3
EXIT_NUMERICAL = 4
# What a numerical failure in a row raises; the CLI exits 4 on each.
NUMERICAL_ERRORS = (QuadratureError, PrincipalValueError, PadePole)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_methods(spec: str) -> tuple[ResumMethod, ...]:
    if spec.strip().lower() == "all":
        return ALL_METHODS
    methods = []
    for token in spec.split(","):
        if not token.strip():
            continue
        try:
            methods.append(ResumMethod.parse(token))
        except ValueError as exc:
            raise click.BadParameter(str(exc))
    if not methods:
        raise click.BadParameter("no methods given")
    return tuple(methods)


def _emit_row(headers, row, csv_path):
    """Print an aligned row; mirror it to CSV when asked."""
    widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
    click.echo("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    click.echo("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    if csv_path:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(headers)
            writer.writerow(row)
        click.echo(f"wrote {csv_path}")


@click.group()
@click.version_option(version=__version__)
def main():
    """Gradient-expansion kinetic energies on spherical densities."""


@main.command()
@click.option("--omega", type=float, required=True,
              help="Confinement frequency (hartree).")
@click.option("--non-interacting", is_flag=True, default=False,
              help="Drop the electron-electron repulsion.")
@click.option("--methods", default="all", show_default=True,
              help="Comma-separated subset of t0,t02,t024,pade11,pade21.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False),
              default=None, help="Also write the row to this CSV file.")
def hooke(omega, non_interacting, methods, csv_path):
    """One accuracy-table row for a harmonically confined pair."""
    if not (omega > 0.0 and math.isfinite(omega)):
        raise click.BadParameter("--omega must be positive")
    method_list = _parse_methods(methods)
    try:
        model, t_ref = table_density(omega, interacting=not non_interacting)
        cells = error_columns(model, t_ref, method_list)
    except SolverError as exc:
        _fail(EXIT_NUMERICAL, f"solver failed: {exc}")
    except NUMERICAL_ERRORS as exc:
        _fail(EXIT_NUMERICAL, str(exc))
    _emit_row(table_headers("omega", "T_s", method_list),
              [f"{omega:g}"] + cells, csv_path)


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
@click.option("--methods", default="all", show_default=True,
              help="Comma-separated subset of t0,t02,t024,pade11,pade21.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False),
              default=None, help="Also write the row to this CSV file.")
def atom(basis, methods, csv_path):
    """One accuracy-table row for a Slater-basis atomic density."""
    method_list = _parse_methods(methods)
    try:
        basis_set = _load_basis(basis)
    except BasisError as exc:
        _fail(EXIT_DATA, str(exc))
    try:
        model = density_model(basis_set)
        t_ref = hf_kinetic(basis_set)
        cells = error_columns(model, t_ref, method_list)
    except NUMERICAL_ERRORS as exc:
        _fail(EXIT_NUMERICAL, str(exc))
    _emit_row(table_headers("element", "T_HF", method_list),
              [basis_set.element] + cells, csv_path)


DUMP_COLUMNS = ["r", "rho", "tau0", "tau2", "tau4", "tau6",
                "sum2", "sum4", "pade11", "pade21", "flags"]


def _dump_model(omega, basis, table) -> tuple[DensityModel, np.ndarray | None]:
    sources = sum(x is not None for x in (omega, basis, table))
    if sources != 1:
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
    try:
        model, native_r = _dump_model(omega, basis, table)
    except (BasisError, ValueError, OSError) as exc:
        _fail(EXIT_DATA, str(exc))
    except SolverError as exc:
        _fail(EXIT_NUMERICAL, f"solver failed: {exc}")
    except QuadratureError as exc:
        _fail(EXIT_NUMERICAL, str(exc))

    if native_r is not None and rmax is None:
        radii = native_r
    else:
        if rmax is None:
            rmax = grid_for_density(model).r_max
        elif not (math.isfinite(rmax) and rmax * 1e-4 > 0.0):
            raise click.BadParameter(
                f"--rmax must be finite, and large enough that the first "
                f"radius rmax * 1e-4 is positive; got {rmax:g}")
        elif model.r_support is not None and rmax > model.r_support:
            raise click.BadParameter(
                f"--rmax {rmax:g} lies beyond the density's support "
                f"radius {model.r_support:.6g} bohr")
        radii = np.geomspace(rmax * 1e-4, rmax, points)

    try:
        grid = grid_for_density(model)
        table = tau_table(model, grid)
        near_pole = {}
        for method in ALL_METHODS:
            near = np.zeros(radii.shape, dtype=bool)
            for pole in method_poles(model, method, grid, table):
                near |= np.abs(radii - pole) < PV_WINDOW_FRACTION * pole
            near_pole[f"{method.value}-pole"] = near
        jet = model.eval(radii)
        p = tau_point(jet, radii)
        # sum2, sum4, pade11, pade21: every method after T0 (= tau0).
        columns = np.array([radii, jet[0], *p]
                           + [EVALUATORS[m](p) for m in ALL_METHODS[1:]])
    except (*NUMERICAL_ERRORS, ValueError) as exc:
        _fail(EXIT_NUMERICAL, str(exc))

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
