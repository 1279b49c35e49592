"""Gradient expansion of the kinetic energy density, orders 0 through 6.

The kinetic energy density of a slowly varying electron gas expands in
even gradient orders: the Thomas-Fermi term, the familiar second-order
(von Weizsacker-like) correction, Hodges' fourth-order term, and the
sixth-order term first assembled by Murphy.  On a spherically symmetric
density every gradient contraction collapses to an expression in the
radial derivatives rho', rho'', rho''', rho'''' -- those reductions live
here and are validated against a brute-force 3-d Cartesian oracle in the
test suite.

Everything is plain arrays.  The input is a density jet, the ``(5,)``
or ``(5, n)`` array rho, rho', ..., rho'''' that ``DensityModel.eval``
returns; ``contractions`` turns it into a tuple of six contractions, and
``tau_point`` into the ``(4,)`` or ``(4, n)`` table of tau0, tau2, tau4
and tau6.  Every function works elementwise on a batch of radii (1-d
arrays), or on one radius: the same code fills the tau table on a whole
grid, weighs the tail rule's radius ladder, and evaluates each step of
the pole scan and each refinement round of the quadrature.

All coefficients are exact rationals times powers of (3 pi^2); nothing
is pre-rounded to decimals.  Atomic units throughout: energies in
hartree, lengths in bohr, tau in hartree/bohr^3.
"""

from __future__ import annotations

import math

import numpy as np

# Thomas-Fermi constant (3/10) (3 pi^2)^(2/3) and the prefactors of the
# fourth- and sixth-order terms.
C_TF = 0.3 * (3.0 * math.pi ** 2) ** (2.0 / 3.0)
_C4 = (3.0 * math.pi ** 2) ** (-2.0 / 3.0) / 540.0
_C6 = (3.0 * math.pi ** 2) ** (-4.0 / 3.0) / 45360.0


def contractions(jet, r) -> tuple:
    """Spherical reduction of the 3-d gradient contractions.

    From the density jet at r, the tuple

    g2         (grad rho)^2
    lap        laplacian of rho
    glap2      (grad laplacian rho)^2
    lap4       biharmonic (laplacian of laplacian) of rho
    g_dot_glap grad rho . grad laplacian rho
    g_hess2    (grad rho . (hessian rho))^2, i.e. |H grad rho|^2
               projected: for spherical symmetry (rho' rho'')^2

    With L = rho'' + 2 rho'/r the Laplacian, the gradient of L is radial
    with magnitude L' = rho''' + 2 rho''/r - 2 rho'/r^2, and the
    biharmonic collapses to rho'''' + 4 rho'''/r.  The Hessian maps the
    (radial) gradient onto rho' rho'' r_hat.
    """

    if np.any(r <= 0.0):
        raise ValueError(
            f"contractions need r > 0, got r={float(np.min(r))!r}")
    _, d1, d2, d3, d4 = jet
    inv_r = 1.0 / r
    slope_curvature = d1 * d2
    lap = d2 + 2.0 * d1 * inv_r
    lap_prime = d3 + 2.0 * d2 * inv_r - 2.0 * d1 * inv_r * inv_r
    return (d1 * d1, lap, lap_prime * lap_prime, d4 + 4.0 * d3 * inv_r,
            d1 * lap_prime, slope_curvature * slope_curvature)


def _require_density(rho, name: str, strict: bool):
    """Refuse negative densities (and zero ones when ``strict``)."""
    if np.any(rho <= 0.0 if strict else rho < 0.0):
        bound = "rho > 0" if strict else "rho >= 0"
        raise ValueError(f"{name} needs {bound}, got rho="
                         f"{float(np.min(rho))!r}")


def tau0(rho):
    """Thomas-Fermi term C_TF rho^(5/3)."""
    _require_density(rho, "tau0", strict=False)
    return C_TF * rho ** (5.0 / 3.0)


def tau2(rho, g2):
    """Second-order term (grad rho)^2 / (72 rho).

    Zero where the density and its gradient both vanish; a vanishing
    density with a nonzero gradient has no limit and raises.
    """
    _require_density(rho, "tau2", strict=False)
    vanishing = rho == 0.0
    if not np.any(vanishing):
        return g2 / (72.0 * rho)
    if np.any(vanishing & (g2 != 0.0)):
        raise ValueError("tau2 undefined: vanishing density with a "
                         "nonzero gradient")
    return np.where(vanishing, 0.0,
                    g2 / (72.0 * np.where(vanishing, 1.0, rho)))[()]


def tau4(c, rho):
    """Fourth-order term (Hodges), from the ``contractions`` tuple."""
    _require_density(rho, "tau4", strict=True)
    g2, lap = c[:2]
    q = lap / rho
    # Dividing twice instead of forming rho**2 keeps the intermediates
    # representable far out in the tail, where rho**2 underflows long
    # before the ratio leaves the float range.
    p = g2 / rho / rho
    return _C4 * rho ** (1.0 / 3.0) * (q * q - 9.0 / 8.0 * q * p
                                       + 1.0 / 3.0 * p * p)


def tau6(c, rho):
    """Sixth-order term (Murphy); diverges in atomic cusps and tails."""
    _require_density(rho, "tau6", strict=True)
    g2, lap, glap2, lap4, g_dot_glap, g_hess2 = c
    q = lap / rho
    p = g2 / rho / rho
    bracket = (
        13.0 * (glap2 / rho / rho)
        + 2575.0 / 144.0 * q * q * q
        + 249.0 / 16.0 * p * (lap4 / rho)
        + 1499.0 / 18.0 * p * q * q
        - 1307.0 / 36.0 * p * (g_dot_glap / rho / rho)
        + 343.0 / 18.0 * (g_hess2 / rho / rho / rho / rho)
        + 8341.0 / 72.0 * q * p * p
        - 1600495.0 / 2592.0 * p * p * p
    )
    return _C6 * rho ** (-1.0 / 3.0) * bracket


def tau_point(jet, r) -> np.ndarray:
    """tau0, tau2, tau4 and tau6 from the density jet at radius r, as a
    ``(4,)`` array, or at every radius of a batch as a ``(4, n)`` table."""
    rho = jet[0]
    c = contractions(jet, r)
    return np.array([tau0(rho), tau2(rho, c[0]), tau4(c, rho),
                     tau6(c, rho)])
