"""Harmonically trapped electron pair: analytic density and exact solver."""

from __future__ import annotations

import math
import re

import mpmath as mp
import numpy as np
import pytest

from kedsum import hooke, jets, radial


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
    # The profile switches between a small-r series and the Chebyshev
    # table at r = 0.6 / sqrt(2 omega).  Straddling the seam by +-h, the
    # genuine first-order change h * d1 (and h * d2 for the slope) must
    # account for essentially the whole difference; any residual beyond
    # the quadratic Taylor term would expose a branch mismatch.
    h = 1e-9
    switch = _series_switch(0.5)
    below = analytic_half.model.eval(switch - h)
    above = analytic_half.model.eval(switch + h)
    rho_step = above[0] - below[0]
    assert rho_step == pytest.approx(2.0 * h * below[1],
                                     abs=1e-12 * abs(below[0]))
    d1_step = above[1] - below[1]
    assert d1_step == pytest.approx(2.0 * h * below[2],
                                    abs=1e-10 * abs(below[1]))


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


def _taut_norm(omega, poly):
    """int_0^inf u^2 ds for u = s poly(s) exp(-omega s^2 / 4).

    From the Gaussian moments
    int_0^inf s^k exp(-a s^2) ds = Gamma((k + 1)/2) / (2 a^((k + 1)/2)).
    """

    p = np.polynomial.Polynomial([0.0] + list(poly))
    a = 0.5 * omega
    return sum(coef * math.gamma(0.5 * (k + 1)) / (2.0 * a ** (0.5 * (k + 1)))
               for k, coef in enumerate((p * p).coef))


def _normalized_taut_u(omega, poly, s):
    """u = s poly(s) exp(-omega s^2 / 4), scaled so int_0^inf u^2 = 1."""
    p = np.polynomial.Polynomial([0.0] + list(poly))
    return (p(s) * np.exp(-0.25 * omega * s * s)
            / math.sqrt(_taut_norm(omega, poly)))


def _check_exact_state(omega, lam, eps_exact, poly):
    # eps and u on 8,001 uniform s through the solver's interpolant.
    s_max = 12.0 / math.sqrt(omega)
    eps, u = hooke._solve_relative(omega, lam, s_max)
    assert eps == pytest.approx(eps_exact, rel=1e-13)
    s = np.linspace(0.0, s_max, 8001)
    exact = _normalized_taut_u(omega, poly, s)
    assert np.max(np.abs(u(s) - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("omega,eps_rel,poly", [
    # Taut, PRA 48, 3561 (1993): E = 1/2 at omega = 1/10 and E = 2 at
    # omega = 1/2, less the centre-of-mass energy 3 omega / 2.
    (0.1, 0.35, (1.0, 0.5, 0.05)),
    (0.5, 1.25, (1.0, 0.5)),
])
def test_relative_solve_reproduces_taut_closed_forms(omega, eps_rel, poly):
    _check_exact_state(omega, 1.0, eps_rel, poly)


@pytest.mark.parametrize("omega", [0.1, 0.25, 1.0, 4.0])
def test_relative_solve_reproduces_the_free_oscillator(omega):
    # Without the interaction u = s exp(-omega s^2 / 4), eps = 3 omega / 2.
    _check_exact_state(omega, 0.0, 1.5 * omega, (1.0,))


def test_under_resolved_state_names_itself():
    # At s_max = 80 the degree cannot follow exp(-s^2 / 4) down to its
    # tail: u's last Chebyshev coefficients stand at 6e-5 of the largest.
    with pytest.raises(hooke.SolverError, match="u is under-resolved"):
        hooke.solve_general(hooke.HookeParams(1.0), s_max=80.0)


@pytest.mark.parametrize("omega, lengths, hint", [
    (3e-4, 18.0, "largest; it needs a shorter box at omega=0.0003$"),
    (1e-4, 16.0, "largest; it needs a shorter box at omega=0.0001$"),
    (1.0, 25.0, "keep s_max below about 20 at omega=1$"),
], ids=["3e-4", "1e-4", "1"])
def test_under_resolved_hint_names_no_bound_the_box_meets(omega, lengths,
                                                          hint):
    # At omega = 3e-4 and 1e-4 the state is under-resolved in boxes
    # shorter than 20/sqrt(omega), though 14/sqrt(omega) solves; no hint
    # may ask for a box below a bound this one is already below.
    s_max = lengths / math.sqrt(omega)
    with pytest.raises(hooke.SolverError,
                       match="u is under-resolved") as caught:
        hooke.solve_general(hooke.HookeParams(omega), s_max=s_max)
    message = str(caught.value)
    assert re.search(hint, message)
    assert all(float(bound) < s_max
               for bound in re.findall(r"below about (\S+) at", message))


def test_solver_error_when_eigenvalue_not_bracketed():
    # On [0, 0.5] the lowest state is a box state at eps = 44.3.
    with pytest.raises(hooke.SolverError,
                       match="outside the ground-state bracket"):
        hooke.solve_general(hooke.HookeParams(1.0), s_max=0.5)


def test_box_too_short_to_hold_the_state_is_refused():
    # On [0, 4] at omega = 1 the eigenvalue stays in its bracket, but
    # the wall squeezes u, whose last fifth still holds 0.31 of its
    # peak, and T_s comes out 4.6% high.
    with pytest.raises(hooke.SolverError,
                       match="too short to hold.*at or above 10 at omega=1$"):
        hooke.solve_general(hooke.HookeParams(1.0), s_max=4.0)


@pytest.mark.parametrize("omega", [0.1, 1.0, 4.0])
def test_box_of_ten_oscillator_lengths_holds_the_state(hooke_solution,
                                                       omega):
    short = hooke.solve_general(hooke.HookeParams(omega),
                                s_max=10.0 / math.sqrt(omega))
    assert short.T_exact == pytest.approx(hooke_solution(omega).T_exact,
                                          rel=1e-12)


def test_solver_density_matches_the_taut_density(hooke_solution):
    # The kernel fed Taut's exact u at omega = 1/10 against the kernel
    # fed the solver's interpolant: any gap is the solver's.
    omega, poly = 0.1, (1.0, 0.5, 0.05)
    model = hooke_solution(omega).density
    exact = hooke._reconstruct_density(
        omega, lambda s: _normalized_taut_u(omega, poly, s),
        12.0 / math.sqrt(omega), "taut")
    r = radial._scan_nodes(radial.grid_for_density(model).r_max)
    want = exact.rho(r)
    live = want > 1e-12
    assert np.all(np.abs(model.rho(r[live]) - want[live])
                  <= 1e-12 * want[live])


def test_wider_box_keeps_the_ground_state(hooke_solution):
    # At s_max = 20 the tail of u below 1e-8 of its peak is rounding
    # noise whose sign flips; the node count ignores it.
    wide = hooke.solve_general(hooke.HookeParams(1.0), s_max=20.0)
    default = hooke_solution(1.0)
    assert wide.eps_rel == pytest.approx(default.eps_rel, rel=1e-12)
    assert wide.T_exact == pytest.approx(default.T_exact, rel=1e-12)


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


# ---------------------------------------------------------------------------
# Density kernel against oracles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def relative_state():
    """Factory: the solver's u(s) and the density built from it."""
    cache = {}

    def get(omega):
        if omega not in cache:
            s_max = 12.0 / math.sqrt(omega)
            _, u = hooke._solve_relative(omega, 1.0, s_max)
            cache[omega] = u, hooke._reconstruct_density(omega, u, s_max,
                                                         "kernel")
        return cache[omega]

    return get


def _series_switch(omega):
    # Below this radius the profile is the odd Taylor series of J / r.
    return 0.6 / math.sqrt(2.0 * omega)


def _panel_rule(u, panels=72, order=12):
    """Half-nodes s/2 and weights u^2/s ds of the kernel's panel rule."""
    x, w = np.polynomial.legendre.leggauss(order)
    width = 0.5 * float(u.domain[1]) / panels
    half = (width * np.arange(panels)[:, None]
            + 0.5 * width * (x + 1.0)).ravel()
    weight = np.tile(width * w, panels) * u(2.0 * half) ** 2 / (2.0 * half)
    return half, weight


def _direct_density(omega, half, weight, r):
    """The density jet summed over all 2 x 864 shifted nodes.

    One Gaussian and five Hermite functions per node, shift and radius:
    the kernel before its factorisation by panel.
    """
    root = math.sqrt(2.0 * omega)
    x = root * (r[:, None] + np.stack((-half, half))[:, None, :])
    kernel = jets.hermite_values(x, 4) * np.exp(-x * x)
    signs = np.cumprod([1.0] + [-root] * 4)[:, None]
    j_jet = signs * np.sum((kernel[:, 0] - kernel[:, 1]) * weight, axis=-1)
    pref = (2.0 * omega / math.pi) ** 1.5 / (2.0 * omega)
    return pref * jets.multiply(jets.power(r, -1), j_jet)


def _mp_density(omega, half, weight, r):
    """The same panel sum at 30 digits, by the Hermite recursion."""
    with mp.workdps(30):
        c = 2 * mp.mpf(omega)
        root = mp.sqrt(c)
        r = mp.mpf(r)
        scale = [(-root) ** k for k in range(5)]
        j_jet = [mp.mpf(0)] * 5
        for h, w in zip(half, weight):
            for sign in (-1, 1):
                x = root * (r + sign * mp.mpf(h))
                herm = [mp.mpf(1), 2 * x]
                for n in range(1, 4):
                    herm.append(2 * x * herm[n] - 2 * n * herm[n - 1])
                g = -sign * mp.mpf(w) * mp.exp(-x * x)
                for k in range(5):
                    j_jet[k] += g * scale[k] * herm[k]
        pref = (c / mp.pi) ** mp.mpf(1.5) / c
        # Leibniz with d^m (1/r) = (-1)^m m! / r^(m + 1).
        return np.array([float(pref * sum(
            mp.binomial(k, j) * j_jet[j] * (-1) ** (k - j)
            * mp.factorial(k - j) / r ** (k - j + 1) for j in range(k + 1)))
            for k in range(5)])


@pytest.mark.parametrize("omega", [0.1, 0.25, 1.0, 4.0])
def test_kernel_matches_the_direct_node_sum(relative_state, omega):
    # Every pole-scan node from the series switch on, where the
    # panel kernel applies; below it the direct sum's 1/r cancels.
    u, model = relative_state(omega)
    half, weight = _panel_rule(u)
    r = radial._scan_nodes(radial.grid_for_density(model).r_max)
    r = r[r >= _series_switch(omega)]
    want = np.concatenate([_direct_density(omega, half, weight, r[i:i + 64])
                           for i in range(0, r.size, 64)], axis=1)
    got = model.profile(r)
    assert np.all(np.abs(got[0] - want[0]) <= 1e-13 * want[0])
    for k in range(1, jets.ORDERS):
        assert np.max(np.abs(got[k] - want[k])) <= (
            1e-10 * np.max(np.abs(want[k]))), k


def test_kernel_matches_mpmath_at_switch_peak_and_tail(relative_state):
    # Either side of the series switch, where d^k(J/r) cancels most;
    # either side of 0.2 / sqrt(2 omega), where a 9th-order series once
    # gave way and missed rho'''' by up to 2.5e-4; at the density peak
    # and in the Gaussian tail.
    rel = np.array([1e-14, 1e-13, 1e-13, 1e-12, 1e-11])
    for omega in (0.25, 1.0):
        u, model = relative_state(omega)
        half, weight = _panel_rule(u)
        nodes = radial._scan_nodes(radial.grid_for_density(model).r_max)
        peak = float(nodes[np.argmax(model.rho(nodes))])
        short = 0.2 / math.sqrt(2.0 * omega)
        switch = _series_switch(omega)
        for r in (0.5 * short, 0.999 * short, 1.05 * short, 0.999 * switch,
                  1.001 * switch, peak, 0.5 * nodes[-1]):
            want = _mp_density(omega, half, weight, r)
            assert np.all(np.abs(model.profile(r) - want)
                          <= rel * np.abs(want)), (omega, r)


def test_analytic_density_matches_taut_closed_form_at_40_digits(
        analytic_half):
    # Taut's density, rho ~ exp(-r^2/2) {sqrt(pi/2) [7/4 + r^2/4
    # + (r + 1/r) erf(r/sqrt(2))] + exp(-r^2/2)}, normalised to N = 2
    # and differentiated by mpmath, on both sides of the series switch.
    rel = np.array([1e-13, 1e-13, 1e-13, 1e-12, 1e-11])
    with mp.workdps(40):
        def shape(r):
            return mp.exp(-r * r / 2) * (
                mp.sqrt(mp.pi / 2) * (mp.mpf(7) / 4 + r * r / 4
                                      + (r + 1 / r) * mp.erf(r / mp.sqrt(2)))
                + mp.exp(-r * r / 2))

        norm = 2 / (4 * mp.pi * mp.quad(lambda r: r * r * shape(r),
                                        [0, 1, 4, 10, mp.inf]))
        for r in np.geomspace(0.05, 16.0, 11):
            want = np.array([float(norm * mp.diff(shape, mp.mpf(r), k))
                             for k in range(5)])
            got = analytic_half.model.eval(float(r))
            assert np.all(np.abs(got - want) <= rel * np.abs(want)), r


@pytest.mark.parametrize("omega", [0.1, 4.0])
def test_solver_profile_is_bit_invariant_to_batching(hooke_solution, omega):
    model = hooke_solution(omega).density
    switch = _series_switch(omega)
    r = np.geomspace(0.3 * switch, 6.0 / math.sqrt(omega), 16)
    assert np.any(r < switch) and np.any(r > switch)
    batch = model.profile(r)
    for i, radius in enumerate(r):
        np.testing.assert_array_equal(model.profile(float(radius)),
                                      batch[:, i])


def _assert_bit_invariant_at_edges(model, edges, nodes):
    """One batch of the radii one ulp either side of the series switch
    and of every table panel edge, filled up to 1,600 radii with grid
    nodes, gives each radius the jet it gets alone."""
    sides = np.concatenate((np.nextafter(edges, 0.0),
                            np.nextafter(edges, np.inf)))
    radii = np.sort(np.concatenate((sides, nodes[sides.size:])))
    assert radii.size == 1600
    batch = model.eval(radii)
    single = np.array([model.profile(float(r)) for r in radii]).T
    np.testing.assert_array_equal(single, batch)


def test_closed_form_profile_is_bit_invariant_to_batching(analytic_half):
    edges = hooke._table_edges(0.5, 24.0 / math.sqrt(0.5))
    assert edges[0] == _series_switch(0.5)
    _assert_bit_invariant_at_edges(
        analytic_half.model, edges,
        radial._scan_nodes(analytic_half.grid.r_max))


def test_solver_table_is_bit_invariant_at_panel_edges(hooke_solution):
    model = hooke_solution(0.25).density
    edges = hooke._table_edges(0.25, 12.0 / math.sqrt(0.25))
    assert edges[-1] == model.r_support
    _assert_bit_invariant_at_edges(
        model, edges,
        radial._scan_nodes(radial.grid_for_density(model).r_max))


def test_ks_kinetic_matches_an_independent_taut_oracle(hooke_solution):
    # T_s at omega = 1/10 from Taut's closed-form u(s): rho and rho' by
    # QUADPACK over s at each r, then (1/8) int rho'^2 / rho d^3r.
    # Measured 1.2e-12 apart; the tolerance keeps a 10x margin.
    from scipy.integrate import quad

    omega, poly = 0.1, (1.0, 0.5, 0.05)
    c = 2.0 * omega
    pref = (2.0 * omega / math.pi) ** 1.5 / (2.0 * omega)
    norm = _taut_norm(omega, poly)

    def u2_over_s(s):
        p = s * sum(coef * s ** k for k, coef in enumerate(poly))
        return p * p * math.exp(-0.5 * omega * s * s) / (norm * s)

    def rho_and_slope(r):
        # K = exp(-c (r - s/2)^2) - exp(-c (r + s/2)^2) and dK/dr, each
        # written without the cancellation at small r s.
        def kernel(s):
            return (math.exp(-c * (r - 0.5 * s) ** 2)
                    * -math.expm1(-2.0 * c * r * s))

        def slope(s):
            return 2.0 * c * math.exp(-c * (r - 0.5 * s) ** 2) * (
                s * math.exp(-2.0 * c * r * s)
                + (r - 0.5 * s) * math.expm1(-2.0 * c * r * s))

        top = 2.0 * r + 20.0 / math.sqrt(c)
        j, dj = (quad(lambda s: u2_over_s(s) * f(s), 0.0, top, epsabs=0.0,
                      epsrel=1e-11, limit=200, points=[2.0 * r])[0]
                 for f in (kernel, slope))
        return pref * j / r, pref * (dj - j / r) / r

    def integrand(r):
        rho, d1 = rho_and_slope(r)
        return 4.0 * math.pi * r * r * d1 * d1 / (8.0 * rho)

    t_s = quad(integrand, 0.0, 12.0 / math.sqrt(omega), epsabs=0.0,
               epsrel=1e-13, limit=200, points=[2.0, 5.0, 10.0, 20.0])[0]
    assert hooke_solution(omega).T_exact == pytest.approx(t_s, rel=1.2e-11)
