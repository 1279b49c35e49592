"""Shared fixtures.

The expensive objects (Hooke solver runs, atomic basis pipelines, the
resummation reports) are built once per session and cached behind
factory fixtures, so the acceptance tests and the module tests share
one computation of each.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import settings

from kedsum import atoms, hooke, radial, resum

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def _bundle(model, t_ref):
    grid = radial.grid_for_density(model)
    reports = resum.run_methods(model, resum.ALL_METHODS, grid, t_ref=t_ref)
    return SimpleNamespace(
        model=model,
        grid=grid,
        t_ref=t_ref,
        reports={rep.method: rep for rep in reports},
        errors=[rep.percent_error for rep in reports],
    )


@pytest.fixture(scope="session")
def analytic_half():
    """Analytic omega = 1/2 Hooke density with its method reports."""
    model = hooke.analytic_density_omega_half()
    grid = radial.grid_for_density(model)
    t_ref = hooke.singlet_ks_kinetic(model, grid)
    bundle = _bundle(model, t_ref)
    bundle.grid = grid
    return bundle


@pytest.fixture(scope="session")
def hooke_solution():
    """Factory: solve_general cached by (omega, interacting)."""
    cache: dict[tuple[float, bool], hooke.HookeSolution] = {}

    def get(omega: float, interacting: bool = True) -> hooke.HookeSolution:
        key = (omega, interacting)
        if key not in cache:
            cache[key] = hooke.solve_general(
                hooke.HookeParams(omega=omega, interacting=interacting))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def hooke_bundle(hooke_solution):
    """Factory: solver density + reports, cached by omega (interacting)."""
    cache: dict[float, SimpleNamespace] = {}

    def get(omega: float) -> SimpleNamespace:
        if omega not in cache:
            sol = hooke_solution(omega)
            bundle = _bundle(sol.density, sol.T_exact)
            bundle.solution = sol
            cache[omega] = bundle
        return cache[omega]

    return get


@pytest.fixture(scope="session")
def atom_bundle():
    """Factory: bundled atomic basis pipeline, cached by element key."""
    cache: dict[str, SimpleNamespace] = {}

    def get(element: str) -> SimpleNamespace:
        key = element.lower()
        if key not in cache:
            basis = atoms.bundled_basis(key)
            model = atoms.density_model(basis)
            bundle = _bundle(model, atoms.hf_kinetic(basis))
            bundle.basis = basis
            cache[key] = bundle
        return cache[key]

    return get


@pytest.fixture
def announce(capsys, request):
    """Print exactly one live pass/fail line for an acceptance criterion."""

    def _announce(criterion: str, ok: bool, detail: str = ""):
        with capsys.disabled():
            line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
            if detail:
                line += f" ({detail})"
            print(line, flush=True)

    return _announce
