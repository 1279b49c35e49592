"""Harmonically trapped electron pair: analytic density and exact solver."""

from __future__ import annotations

import math

import numpy as np
import pytest

from kedsum import hooke, radial


# ---------------------------------------------------------------------------
# Analytic omega = 1/2 density
# ---------------------------------------------------------------------------

def test_analytic_density_normalizes_to_two(analytic_half):
    count = radial.integrate_radial(analytic_half.model.rho,
                                    analytic_half.grid)
    assert count == pytest.approx(2.0, abs=1e-9)


def test_analytic_density_finite_positive_at_origin(analytic_half):
    tiny = analytic_half.model.rho(1e-12)
    small = analytic_half.model.rho(1e-6)
    assert 0.0 < tiny < 1.0
    assert tiny == pytest.approx(small, rel=1e-9)


def test_analytic_density_series_matches_closed_form_at_switch(
        analytic_half):
    # The implementation switches between a small-r series and the
    # closed form at r = 0.5.  Straddling the seam by +-h, the genuine
    # first-order change h * d1 (and h * d2 for the slope) must account
    # for essentially the whole difference; any residual beyond the
    # quadratic Taylor term would expose a branch mismatch.
    h = 1e-9
    below = analytic_half.model.eval(0.5 - h)
    above = analytic_half.model.eval(0.5 + h)
    rho_step = above.rho - below.rho
    assert rho_step == pytest.approx(2.0 * h * below.d1,
                                     abs=1e-12 * abs(below.rho))
    d1_step = above.d1 - below.d1
    assert d1_step == pytest.approx(2.0 * h * below.d2,
                                    abs=1e-10 * abs(below.d1))


def test_analytic_density_gaussian_tail_with_quadratic_prefactor(
        analytic_half):
    def ratio(r):
        return analytic_half.model.rho(r) * math.exp(0.5 * r * r) / (r * r)

    values = [ratio(r) for r in (5.0, 8.0, 12.0, 16.0)]
    assert all(v > 0.0 and math.isfinite(v) for v in values)
    # Successive differences shrink: the ratio settles toward a constant.
    assert abs(values[3] - values[2]) < abs(values[1] - values[0]) / 3.0


def test_analytic_density_monotone_beyond_maximum(analytic_half):
    radii = np.linspace(0.0, analytic_half.grid.r_max, 400)
    rho = np.array([analytic_half.model.rho(float(r)) for r in radii])
    peak = int(np.argmax(rho))
    assert np.all(np.diff(rho[peak:]) < 0.0)


# ---------------------------------------------------------------------------
# General solver
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        hooke.HookeParams(0.0)
    with pytest.raises(ValueError):
        hooke.HookeParams(-2.0)
    with pytest.raises(ValueError):
        hooke.HookeParams(math.inf)


def test_solver_reproduces_analytic_omega_half(hooke_solution,
                                               analytic_half):
    sol = hooke_solution(0.5)
    assert sol.T_exact == pytest.approx(0.63525, abs=2e-4)
    assert sol.E_total == pytest.approx(2.0, abs=1e-6)
    for r in np.linspace(0.05, 5.0, 40):
        assert sol.density.rho(float(r)) == pytest.approx(
            analytic_half.model.rho(float(r)), rel=1e-6)


def test_solver_energy_bookkeeping(hooke_solution):
    sol = hooke_solution(1.0)
    assert sol.E_total == sol.eps_cm + sol.eps_rel
    assert sol.eps_cm == pytest.approx(1.5)
    assert sol.T_exact == pytest.approx(1.32757, abs=5e-4)
    # Correlation kinetic energy is strictly positive for the
    # interacting pair: the wavefunction expectation exceeds the
    # non-interacting kinetic energy of the same density.
    assert sol.kinetic_expectation > sol.T_exact


@pytest.mark.parametrize("omega,expected,tol", [
    (0.25, 0.30036, 3e-4),
    (4.0, 5.62884, 6e-3),
])
def test_kinetic_exact_reference_values(hooke_solution, omega, expected,
                                        tol):
    sol = hooke_solution(omega)
    assert sol.T_exact == pytest.approx(expected, abs=tol)


def test_non_interacting_solution_is_oscillator_ground_state(
        hooke_solution):
    sol = hooke_solution(1.0, interacting=False)
    assert sol.T_exact == pytest.approx(1.5, abs=1e-9)
    assert sol.E_total == pytest.approx(3.0, abs=1e-8)
    assert sol.kinetic_expectation == pytest.approx(sol.T_exact, abs=1e-8)


def test_non_interacting_omega_half_kinetic(hooke_solution):
    sol = hooke_solution(0.5, interacting=False)
    assert sol.T_exact == pytest.approx(0.75, abs=1e-9)


def test_solution_density_normalization(hooke_solution):
    sol = hooke_solution(1.0)
    grid = radial.grid_for_density(sol.density)
    count = radial.integrate_radial(sol.density.rho, grid)
    assert count == pytest.approx(2.0, abs=1e-8)


def test_solver_density_monotone_beyond_maximum(hooke_solution):
    sol = hooke_solution(1.0)
    grid = radial.grid_for_density(sol.density)
    radii = np.linspace(0.0, grid.r_max, 300)
    rho = np.array([sol.density.rho(float(r)) for r in radii])
    peak = int(np.argmax(rho))
    assert np.all(np.diff(rho[peak:]) < 0.0)


def test_reconstruction_is_discretization_independent(hooke_solution):
    baseline = hooke_solution(1.0)
    refit = hooke.solve_general(hooke.HookeParams(1.0), quad_panels=96,
                                panel_order=14)
    assert refit.T_exact == pytest.approx(baseline.T_exact, rel=1e-8)
    for r in (0.05, 0.4, 1.1, 2.5, 4.0):
        assert refit.density.rho(r) == pytest.approx(
            baseline.density.rho(r), abs=1e-8)


def _normalized_taut_u(omega, poly, s):
    """u = s poly(s) exp(-omega s^2 / 4), scaled so int_0^inf u^2 = 1.

    The norm comes from the Gaussian moments
    int_0^inf s^k exp(-a s^2) ds = Gamma((k + 1)/2) / (2 a^((k + 1)/2)).
    """

    p = np.polynomial.Polynomial([0.0] + list(poly))
    a = 0.5 * omega
    norm = sum(coef * math.gamma(0.5 * (k + 1)) / (2.0 * a ** (0.5 * (k + 1)))
               for k, coef in enumerate((p * p).coef))
    return p(s) * np.exp(-0.25 * omega * s * s) / math.sqrt(norm)


@pytest.mark.parametrize("omega,eps_rel,poly", [
    # Taut, PRA 48, 3561 (1993): E = 1/2 at omega = 1/10 and E = 2 at
    # omega = 1/2, less the centre-of-mass energy 3 omega / 2.
    (0.1, 0.35, (1.0, 0.5, 0.05)),
    (0.5, 1.25, (1.0, 0.5)),
])
def test_numerov_solve_reproduces_taut_closed_forms(omega, eps_rel, poly):
    eps, s, u = hooke._solve_relative(omega, 1.0, 8001,
                                      12.0 / math.sqrt(omega))
    assert eps == pytest.approx(eps_rel, rel=1e-10)
    exact = _normalized_taut_u(omega, poly, s)
    assert np.max(np.abs(u - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_overflowing_sweep_names_itself():
    # From s = 80 inward the decaying tail grows like exp(s^2 / 4).
    with pytest.raises(hooke.SolverError, match="inward Numerov sweep"):
        hooke.solve_general(hooke.HookeParams(1.0), s_max=80.0)


def test_solver_error_when_eigenvalue_not_bracketed():
    with pytest.raises(hooke.SolverError):
        hooke.solve_general(hooke.HookeParams(1.0), s_max=0.5)


def test_singlet_ks_kinetic_on_gaussian_pair():
    # For rho = 2 (w/pi)^{3/2} e^{-w r^2} the von Weizsaecker integral
    # is exactly 3w/2, the oscillator ground-state kinetic energy.
    from kedsum import profiles

    omega = 0.7
    amp = 2.0 * (omega / math.pi) ** 1.5
    model = profiles.gaussian_density(alpha=omega, amplitude=amp)
    grid = radial.grid_for_density(model)
    assert hooke.singlet_ks_kinetic(model, grid) == pytest.approx(
        1.5 * omega, rel=1e-10)
