"""Workload inputs and the table rows the benchmark times.

A row is what ``kedsum atom``, ``kedsum hooke`` and
``scripts/make_tables.py`` compute for one density: the reference
kinetic energy plus the five estimates of ``resum.ALL_METHODS``.  Rows
call kedsum through module attributes (``radial.grid_for_density``,
not a name bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference
from kedsum import atoms, hooke, radial, resum

WORKLOADS = ("atoms", "hooke", "tabulated")
ATOM_KEYS = ("he", "be", "ne", "ar")
# omega = 1/2 uses the closed-form density; the others run the solver.
HOOKE_OMEGAS = (0.1, 0.25, 0.5, 1.0, 4.0)
CLOSED_FORM_OMEGA = 0.5
# Tabulated samples: log-spaced radii on [1e-4, 80] bohr, every interior
# radius moved by a uniform draw of up to 0.4 log-steps either way.
SAMPLE_COUNT = 400
SAMPLE_RANGE = (1e-4, 80.0)
SAMPLE_JITTER = 0.4


@dataclass(frozen=True)
class Row:
    """One table row and what its checks need to judge it."""

    key: str | float            # element key or omega
    t_ref: float
    energies: tuple[float, ...]  # T for each of resum.ALL_METHODS
    model: radial.DensityModel
    grid: radial.RadialGrid
    e_total: float | None = None      # solver rows
    radii: np.ndarray | None = None   # tabulated rows: the sample radii

    @property
    def values(self) -> tuple:
        """What the user sees: the key, T_ref and the five energies."""
        return (self.key, self.t_ref) + self.energies


def _table_row(key, model, t_ref, **extra) -> Row:
    grid = radial.grid_for_density(model)
    reports = resum.run_methods(model, resum.ALL_METHODS, grid, t_ref)
    return Row(key=key, t_ref=t_ref, energies=tuple(r.T for r in reports),
               model=model, grid=grid, **extra)


def atom_row(key: str, basis: atoms.STOBasisSet) -> Row:
    return _table_row(key, atoms.density_model(basis),
                      atoms.hf_kinetic(basis))


def hooke_row(omega: float) -> Row:
    if omega == CLOSED_FORM_OMEGA:
        model = hooke.analytic_density_omega_half()
        t_ref = hooke.singlet_ks_kinetic(model,
                                         radial.grid_for_density(model))
        return _table_row(omega, model, t_ref)
    solution = hooke.solve_general(hooke.HookeParams(omega=omega))
    return _table_row(omega, solution.density, solution.T_exact,
                      e_total=solution.E_total)


def tabulated_row(key: str, basis: atoms.STOBasisSet, r: np.ndarray,
                  rho: np.ndarray) -> Row:
    model = radial.tabulated_derivatives(r, rho, label=f"samples({key})")
    return _table_row(key, model, atoms.hf_kinetic(basis), radii=r)


def tabulated_samples(seed: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(r, rho) for every atom, drawn from one generator in ATOM_KEYS order.

    rho comes from the benchmark's own numpy evaluation of the basis
    JSON, so the program sees only sampled numbers.
    """

    rng = np.random.default_rng(seed)
    lo, hi = SAMPLE_RANGE
    samples = {}
    for key in ATOM_KEYS:
        u = np.linspace(math.log(lo), math.log(hi), SAMPLE_COUNT)
        step = u[1] - u[0]
        u[1:-1] += SAMPLE_JITTER * step * rng.uniform(-1.0, 1.0,
                                                      SAMPLE_COUNT - 2)
        r = np.exp(u)
        rho, _ = reference.sto_density(reference.read_basis(key), r)
        samples[key] = (r, rho)
    return samples


def load_inputs(workload: str,
                seed: int) -> list[tuple[str | float, Callable[[], Row]]]:
    """Everything set-up does: parse bases, draw samples, fill caches.

    Returns the workload's rows in table order, each as a key and a
    function that computes the row.
    """

    if workload == "atoms":
        bases = {key: atoms.bundled_basis(key) for key in ATOM_KEYS}
        return [(key, lambda k=key: atom_row(k, bases[k]))
                for key in ATOM_KEYS]
    if workload == "hooke":
        # The closed-form density's normalisation is lazy and kept for
        # the life of the process; set-up pays for it, as a CLI run does.
        hooke.analytic_density_omega_half()
        return [(omega, lambda w=omega: hooke_row(w))
                for omega in HOOKE_OMEGAS]
    if workload == "tabulated":
        bases = {key: atoms.bundled_basis(key) for key in ATOM_KEYS}
        samples = tabulated_samples(seed)
        return [(key, lambda k=key: tabulated_row(k, bases[k], *samples[k]))
                for key in ATOM_KEYS]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
