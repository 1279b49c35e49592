"""Gradient-expansion terms: closed forms, scaling, and the 3D oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cartesian_oracle
from kedsum import kedf, profiles, radial

# The order of kedf.contractions' tuple.
CONTRACTIONS = ("g2", "lap", "glap2", "lap4", "g_dot_glap", "g_hess2")


def _derivs(rho, d1=0.0, d2=0.0, d3=0.0, d4=0.0):
    return np.array([rho, d1, d2, d3, d4])


ORACLE_MODELS = {
    "gaussian": profiles.gaussian_density(1.0),
    "exponential": profiles.exponential_density(1.0),
    "polygauss": profiles.polynomial_gaussian_density(1.0),
}


# ---------------------------------------------------------------------------
# Gradient contractions
# ---------------------------------------------------------------------------

def test_laplacian_of_r_squared():
    c = kedf.contractions(_derivs(1.0, d1=2.0, d2=2.0), 1.0)
    assert c[CONTRACTIONS.index("lap")] == pytest.approx(6.0, rel=0, abs=0)


def test_biharmonic_of_r_fourth():
    c = kedf.contractions(_derivs(1.0, d1=4.0, d2=12.0, d3=24.0, d4=24.0),
                          1.0)
    assert c[CONTRACTIONS.index("lap4")] == pytest.approx(120.0, rel=0, abs=0)


def test_contractions_match_cartesian_oracle_for_gaussian():
    model = ORACLE_MODELS["gaussian"]
    r = 0.7
    ref = cartesian_oracle.cartesian_taus("gaussian", r)
    c = kedf.contractions(model.eval(r), r)
    assert len(c) == len(CONTRACTIONS)
    for field, value in zip(CONTRACTIONS, c):
        assert value == pytest.approx(ref[field], rel=1e-6)


def test_contractions_require_positive_radius():
    with pytest.raises(ValueError):
        kedf.contractions(_derivs(1.0), 0.0)
    with pytest.raises(ValueError):
        kedf.contractions(_derivs(1.0), -0.5)


# ---------------------------------------------------------------------------
# Individual terms
# ---------------------------------------------------------------------------

def test_tau0_constant_and_values():
    assert kedf.C_TF == pytest.approx(0.3 * (3.0 * math.pi ** 2) ** (2 / 3),
                                      rel=1e-15)
    assert kedf.tau0(1.0) == pytest.approx(2.871234, abs=1e-6)
    assert kedf.tau0(0.0) == 0.0
    assert kedf.tau0(8.0) == pytest.approx(32.0 * kedf.C_TF, rel=1e-14)
    with pytest.raises(ValueError):
        kedf.tau0(-1.0)


def test_tau2_exponential_density_identity():
    # For rho = e^{-r}: (rho')^2 / rho = rho, so tau2 = e^{-r}/72.
    for r in (0.0, 0.6, 1.3, 4.0):
        rho = math.exp(-r)
        assert kedf.tau2(rho, rho * rho) == pytest.approx(rho / 72.0,
                                                          rel=1e-15)
    assert kedf.tau2(1.0, 1.0) == pytest.approx(1.0 / 72.0, rel=1e-15)


def test_tau2_gaussian_value():
    model = ORACLE_MODELS["gaussian"]
    rho, d1 = model.eval(1.0)[:2]
    assert kedf.tau2(rho, d1 * d1) == pytest.approx(
        math.exp(-1.0) / 18.0, rel=1e-12)


def test_tau2_zero_density_edge_cases():
    assert kedf.tau2(0.0, 0.0) == 0.0
    with pytest.raises(ValueError, match="vanishing density"):
        kedf.tau2(0.0, 1.0)
    with pytest.raises(ValueError):
        kedf.tau2(-1.0, 0.0)


def test_tau4_tau6_uniform_density_vanish():
    c = kedf.contractions(_derivs(0.37), 1.0)
    assert kedf.tau4(c, 0.37) == 0.0
    assert kedf.tau6(c, 0.37) == 0.0
    with pytest.raises(ValueError):
        kedf.tau4(c, 0.0)
    with pytest.raises(ValueError):
        kedf.tau6(c, 0.0)


@pytest.mark.parametrize("name,r", [("gaussian", 0.7)])
def test_tau4_matches_oracle_tightly(name, r):
    model = ORACLE_MODELS[name]
    d = model.eval(r)
    ref = cartesian_oracle.cartesian_taus(name, r)
    assert kedf.tau4(kedf.contractions(d, r), d[0]) == pytest.approx(
        ref["tau4"], rel=1e-8)


@pytest.mark.parametrize("name", cartesian_oracle.ORACLE_PROFILES)
@pytest.mark.parametrize("r", cartesian_oracle.ORACLE_RADII)
def test_tau4_tau6_oracle_grid(name, r):
    model = ORACLE_MODELS[name]
    d = model.eval(r)
    assert d[0] > 1e-6
    c = kedf.contractions(d, r)
    ref = cartesian_oracle.cartesian_taus(name, r)
    assert kedf.tau4(c, d[0]) == pytest.approx(ref["tau4"], rel=1e-5)
    assert kedf.tau6(c, d[0]) == pytest.approx(ref["tau6"], rel=1e-5)


def test_tau4_tau6_amplitude_scaling_factor_two():
    model = ORACLE_MODELS["gaussian"]
    r = 0.9
    d = model.eval(r)
    scaled = profiles.scale_density(model, 8.0).eval(r)
    c, cs = kedf.contractions(d, r), kedf.contractions(scaled, r)
    assert kedf.tau4(cs, scaled[0]) == pytest.approx(
        2.0 * kedf.tau4(c, d[0]), rel=1e-14)
    assert kedf.tau6(cs, scaled[0]) == pytest.approx(
        0.5 * kedf.tau6(c, d[0]), rel=1e-14)


def test_terms_survive_deep_tail_without_underflow():
    model = ORACLE_MODELS["gaussian"]
    r = 7.5  # rho ~ 4e-25: rho**2 is representable, rho**4 is not
    d = model.eval(r)
    p = kedf.tau_point(d, r)
    assert all(math.isfinite(v) for v in p)
    assert p[1] == pytest.approx(d[1] * d[1] / (72.0 * d[0]), rel=1e-12)


# ---------------------------------------------------------------------------
# tau_point
# ---------------------------------------------------------------------------

def test_tau_point_uniform_density():
    p = kedf.tau_point(_derivs(1.0), 0.5)
    assert p[0] == pytest.approx(2.871234, abs=1e-6)
    assert list(p[1:]) == [0.0, 0.0, 0.0]


def test_tau_point_exponential_density():
    model = profiles.exponential_density(1.0)
    p = kedf.tau_point(model.eval(2.0), 2.0)
    assert p[1] == pytest.approx(math.exp(-2.0) / 72.0, rel=1e-12)
    d = model.eval(2.0)
    c = kedf.contractions(d, 2.0)
    assert p[2] == kedf.tau4(c, d[0])
    assert p[3] == kedf.tau6(c, d[0])


def test_hooke_density_has_ordered_convergence_window(analytic_half):
    """Somewhere the four terms are strictly ordered in magnitude."""
    model = analytic_half.model
    radii = np.linspace(0.4, 2.0, 120)
    ordered = []
    for r in radii:
        p = kedf.tau_point(model.eval(float(r)), float(r))
        t0, t2, t4, t6 = np.abs(p)
        ordered.append(t6 < t4 < t2 < t0)
    assert any(ordered)
    # The physical statement is a contiguous window, not isolated
    # points.
    first, last = ordered.index(True), len(ordered) - ordered[::-1].index(True) - 1
    assert all(ordered[first:last + 1])


# ---------------------------------------------------------------------------
# Integrated anchors and properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("omega,expected", [
    (0.25, 0.053723928437),
    (1.0, 0.214895713748),
    (4.0, 0.859582854990),
])
def test_integrated_tau4_of_oscillator_gaussians(omega, expected):
    """Frozen quadrature anchors for the fourth-order term.

    The density is the two-electron harmonic ground state
    2 (omega/pi)^{3/2} e^{-omega r^2}; values generated once with an
    independent high-precision evaluation and pinned here.
    """

    amp = 2.0 * (omega / math.pi) ** 1.5
    model = profiles.gaussian_density(alpha=omega, amplitude=amp)
    grid = radial.grid_for_density(model)

    def f(r):
        d = model.eval(r)
        return kedf.tau4(kedf.contractions(d, r), d[0])

    assert radial.integrate_radial(f, grid) == pytest.approx(expected,
                                                             rel=1e-9)


@given(st.sampled_from(list(ORACLE_MODELS)),
       st.floats(0.05, 6.0),
       st.floats(math.log(0.01), math.log(100.0)))
def test_pointwise_scaling_property(name, r, log_g):
    g = math.exp(log_g)
    model = ORACLE_MODELS[name]
    base = kedf.tau_point(model.eval(r), r)
    scaled = kedf.tau_point(profiles.scale_density(model, g).eval(r), r)
    for row, power in enumerate((5.0 / 3.0, 1.0, 1.0 / 3.0, -1.0 / 3.0)):
        want = g ** power * base[row]
        assert scaled[row] == pytest.approx(want, rel=1e-12, abs=1e-290)


@given(st.sampled_from(list(ORACLE_MODELS)), st.floats(0.05, 6.0))
def test_tau0_tau2_nonnegative(name, r):
    p = kedf.tau_point(ORACLE_MODELS[name].eval(r), r)
    assert p[0] >= 0.0
    assert p[1] >= 0.0
