"""Derivative-bundle primitives: closed forms vs arbitrary-precision FD."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kedsum import jets, profiles


def _mp_jet(f, r, orders=jets.ORDERS):
    with mp.workdps(40):
        return [float(mp.diff(f, mp.mpf(repr(r)), k)) for k in range(orders)]


@pytest.mark.parametrize("r", [0.3, 1.1, 2.7])
def test_multiply_reproduces_product_derivatives(r):
    jet = jets.multiply(jets.power(r, 3), jets.exponential(r, 2.0))
    want = _mp_jet(lambda t: t ** 3 * mp.exp(-2 * t), r)
    assert jet == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("a,center", [(1.3, 0.0), (0.5, 2.0)])
def test_gaussian_jet(a, center):
    r = 0.9
    jet = jets.gaussian(r, a, center=center)
    want = _mp_jet(lambda t: mp.exp(-a * (t - center) ** 2), r)
    assert jet == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_exponential_jet():
    r, zeta = 1.7, 2.4
    jet = jets.exponential(r, zeta)
    base = math.exp(-zeta * r)
    want = [base, -zeta * base, zeta ** 2 * base,
            -zeta ** 3 * base, zeta ** 4 * base]
    assert jet == pytest.approx(want, rel=1e-14)


def test_power_and_polynomial_are_exact():
    r = 1.5
    assert jets.power(r, 4) == pytest.approx(
        [r ** 4, 4 * r ** 3, 12 * r ** 2, 24 * r, 24.0], rel=0, abs=0)
    # 2 + r^2 and its derivatives.
    assert jets.polynomial(r, (2.0, 0.0, 1.0)) == pytest.approx(
        [4.25, 3.0, 2.0, 0.0, 0.0], rel=0, abs=0)


def test_hermite_values_match_explicit_polynomials():
    x = 0.8
    h = jets.hermite_values(x, 4)
    assert h == pytest.approx([
        1.0,
        2 * x,
        4 * x * x - 2,
        8 * x ** 3 - 12 * x,
        16 * x ** 4 - 48 * x * x + 12,
    ], rel=1e-15)


def test_jets_broadcast_over_batches():
    r = np.array([0.2, 0.9, 3.0])
    batch = jets.gaussian(r, 1.0)
    assert batch.shape == (jets.ORDERS, 3)
    single = jets.gaussian(0.9, 1.0)
    assert batch[:, 1] == pytest.approx(single, rel=0, abs=0)


@given(st.floats(0.05, 4.0), st.floats(0.05, 4.0), st.floats(0.1, 3.0))
@example(0.5, 0.5, 0.5)  # the d^2 entry cancels to ~1e-16 here
def test_multiply_commutes(a, zeta, r):
    left = jets.multiply(jets.gaussian(r, a), jets.exponential(r, zeta))
    right = jets.multiply(jets.exponential(r, zeta), jets.gaussian(r, a))
    assert left == pytest.approx(right, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("factory,count", [
    (lambda: profiles.gaussian_density(1.0), math.pi ** 1.5),
    (lambda: profiles.exponential_density(2.0), math.pi),
    (lambda: profiles.polynomial_gaussian_density(1.0),
     math.pi ** 1.5 * 2.5),
])
def test_profile_electron_counts(factory, count):
    model = factory()
    assert model.electron_count == pytest.approx(count, rel=1e-12)


def test_profile_jets_are_consistent():
    model = profiles.polynomial_gaussian_density(alpha=0.8)
    want = _mp_jet(lambda t: (1 + t * t) * mp.exp(-mp.mpf("0.8") * t * t),
                   1.3)
    assert list(model.eval(1.3)) == pytest.approx(want, rel=1e-12)


def test_scale_density_validates_and_scales():
    base = profiles.gaussian_density(1.0)
    doubled = profiles.scale_density(base, 2.0)
    assert doubled.rho(0.7) == pytest.approx(2.0 * base.rho(0.7), rel=1e-15)
    assert doubled.electron_count == pytest.approx(
        2.0 * base.electron_count, rel=1e-15)
    with pytest.raises(ValueError):
        profiles.scale_density(base, 0.0)
    with pytest.raises(ValueError):
        profiles.gaussian_density(-1.0)
