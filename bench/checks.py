"""Correctness checks on the rows a run produced.

Each check compares a row value with a number computed apart from the
program (``reference``), with a published row, or with a property the
method must have.  None compares with a stored copy of earlier output.
Checks run after the timed passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import UnivariateSpline

import reference
from kedsum import hooke, radial, resum

# The program asks QUADPACK for 1e-10 relative (radial.QUAD_RELTOL) and
# the numpy reference is good to about 1e-14, so 10x the request.
QUAD_TOL = 1e-9
# The densities' own sum rule, as acceptance criterion 10 states it.
COUNT_TOL = 1e-8
# Published atom rows: T_HF to 0.1 %, every column to 0.2 pp (criterion 4).
ATOM_T_TOL, ATOM_COL_TOL = 1e-3, 0.2
# Published omega = 1/2 row: T_s to 2e-4 Ha, columns to 0.05 pp (criterion 1).
HALF_T_TOL, HALF_COL_TOL = 2e-4, 0.05
# Published solver rows: T_s to 0.2 %, columns to 0.3 pp (criterion 2).
SOLVER_T_TOL, SOLVER_COL_TOL = 2e-3, 0.3
# The published T0+T2+T4 entries are rounded to 0.1 pp.
ROUNDING = 0.05
# Numerov's eigenvalue error is O(h^4): h^4 = 4.9e-10 Ha at omega = 1/10
# and 3.2e-11 Ha at omega = 1/2 (h = 12 / sqrt(omega) / 8000).
TAUT_E_TOL = 1e-8
LABELS = tuple(method.label for method in resum.ALL_METHODS)
T024 = LABELS.index("T0+T2+T4")


@dataclass(frozen=True)
class Check:
    """got against want: |got - want| <= tol ("abs"), <= tol |want|
    ("rel"), or got >= want - tol ("min")."""

    name: str
    got: float
    want: float
    tol: float
    kind: str = "abs"

    @property
    def passed(self) -> bool:
        if self.kind == "abs":
            return abs(self.got - self.want) <= self.tol
        if self.kind == "rel":
            return abs(self.got - self.want) <= self.tol * abs(self.want)
        if self.kind == "min":
            return self.got >= self.want - self.tol
        raise ValueError(f"unknown check kind {self.kind!r}")

    def describe(self) -> str:
        verdict = "ok" if self.passed else "FAIL"
        return (f"{verdict:4} {self.name}: got {self.got:.12g}, want "
                f"{self.want:.12g} ({self.kind} tol {self.tol:.3g})")


def percent_errors(row) -> list[float]:
    return [100.0 * (t - row.t_ref) / row.t_ref for t in row.energies]


def spline_tolerances(radii, r_max: float,
                      basis: dict) -> tuple[float, float, float]:
    """Relative tolerances on T0, T0+T2 and N for a sampled density.

    The benchmark fits its own quintic spline of log rho to the same
    samples the program gets.  A spline's error peaks between samples,
    so it is measured at the log-midpoint of every sample interval up to
    r_max, against the numpy density.  To first order a relative error
    e0 in rho moves T0 by (5/3) e0 and N by e0 under their weights, and
    an error e1 in rho' moves T2 = int rho'^2 / (72 rho) by e0 + 2 e1.
    The midpoint sums of those weighted errors bound the shift; the
    tolerance is twice that bound plus the quadrature's own tolerance.
    """

    r = np.asarray(radii)
    log_fit = UnivariateSpline(r, np.log(reference.sto_density(basis, r)[0]),
                               k=5, s=0.0)
    inside = r[1:] <= r_max
    mid = np.sqrt(r[1:] * r[:-1])[inside]
    volume = 4.0 * math.pi * mid * mid * np.diff(r)[inside]
    rho, d1 = reference.sto_density(basis, mid)
    fit_rho = np.exp(log_fit(mid))
    fit_d1 = fit_rho * log_fit.derivative()(mid)
    e0 = np.abs(fit_rho / rho - 1.0)
    w0 = volume * reference.C_TF * rho ** (5.0 / 3.0)
    w2 = volume * d1 * d1 / (72.0 * rho)
    wn = volume * rho
    shift_t0 = 5.0 / 3.0 * np.sum(w0 * e0)
    shift_t2 = np.sum(w2 * e0
                      + volume * 2.0 * np.abs(d1 * (fit_d1 - d1))
                      / (72.0 * rho))
    t0, t2, count = np.sum(w0), np.sum(w2), np.sum(wn)
    return (2.0 * shift_t0 / t0 + QUAD_TOL,
            2.0 * (shift_t0 + shift_t2) / (t0 + t2) + QUAD_TOL,
            2.0 * np.sum(wn * e0) / count + COUNT_TOL)


def _published(row, name: str, t_tol: float, t_kind: str, col_tol: float,
               columns, t_table: float, expected) -> list[Check]:
    errors = percent_errors(row)
    out = [Check(f"{name} T_ref vs published", row.t_ref, t_table, t_tol,
                 t_kind)]
    for i in columns:
        out.append(Check(f"{name} err%[{LABELS[i]}] vs published",
                         errors[i], expected[i], col_tol))
    return out


def atom_checks(rows, tabulated: bool) -> list[Check]:
    out = []
    counts: dict[str, float] = {}
    tolerances: dict[str, tuple[float, float, float]] = {}
    for row in rows:
        key = row.key
        name = f"{'tabulated' if tabulated else 'atoms'} {key}"
        ref = reference.sto_integrals(key)
        if tabulated:
            if key not in tolerances:
                tolerances[key] = spline_tolerances(
                    row.radii, row.grid.r_max, reference.read_basis(key))
            tol_t0, tol_t02, tol_n = tolerances[key]
            count = row.model.electron_count
        else:
            tol_t0 = tol_t02 = QUAD_TOL
            tol_n = COUNT_TOL
            if key not in counts:
                counts[key] = radial.integrate_radial(row.model.rho,
                                                      row.grid)
            count = counts[key]
        out.append(Check(f"{name} T0 vs numpy", row.energies[0],
                         ref["t0"], tol_t0, "rel"))
        out.append(Check(f"{name} T0+T2 vs numpy", row.energies[1],
                         ref["t0"] + ref["t2"], tol_t02, "rel"))
        out.append(Check(f"{name} electron count", count,
                         ref["basis_count"], tol_n, "rel"))
        if key in reference.ATOM_ROWS:
            t_table, expected = reference.ATOM_ROWS[key]
            out += _published(row, name, ATOM_T_TOL, "rel", ATOM_COL_TOL,
                              range(5), t_table, expected)
    return out


def hooke_checks(rows) -> list[Check]:
    out = []
    for row in rows:
        omega = row.key
        name = f"hooke omega={omega:g}"
        if row.e_total is not None and omega in reference.TAUT_ENERGIES:
            out.append(Check(f"{name} E_total vs Taut", row.e_total,
                             reference.TAUT_ENERGIES[omega], TAUT_E_TOL))
        if omega not in reference.HOOKE_ROWS:
            continue
        t_table, expected = reference.HOOKE_ROWS[omega]
        if row.e_total is None:
            out += _published(row, name, HALF_T_TOL, "abs", HALF_COL_TOL,
                              range(5), t_table, expected)
            continue
        # The published solver rows stop at r sqrt(omega) = 5; the row
        # integrates the whole tail, and the tau4 tail beyond 5 is
        # positive, so its T0+T2+T4 may only lie above the table.
        out += _published(row, name, SOLVER_T_TOL, "rel", SOLVER_COL_TOL,
                          (0, 1, 3, 4), t_table, expected)
        out.append(Check(f"{name} err%[T0+T2+T4] not below published",
                         percent_errors(row)[T024], expected[T024],
                         ROUNDING, "min"))
    if any(row.key == 0.5 and row.e_total is None for row in rows):
        # The closed-form row has no energy; the solver at the same omega
        # must reproduce Taut's.
        solution = hooke.solve_general(hooke.HookeParams(omega=0.5))
        out.append(Check("hooke omega=0.5 solver E_total vs Taut",
                         solution.E_total, reference.TAUT_ENERGIES[0.5],
                         TAUT_E_TOL))
    return out


def workload_checks(workload: str, rows) -> list[Check]:
    """Every check on the rows that did not fail."""
    if workload == "hooke":
        return hooke_checks(rows)
    return atom_checks(rows, tabulated=(workload == "tabulated"))
