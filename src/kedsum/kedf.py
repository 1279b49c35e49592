"""Gradient expansion of the kinetic energy density, orders 0 through 6.

The kinetic energy density of a slowly varying electron gas expands in
even gradient orders: the Thomas-Fermi term, the familiar second-order
(von Weizsacker-like) correction, Hodges' fourth-order term, and the
sixth-order term first assembled by Murphy.  On a spherically symmetric
density every gradient contraction collapses to an expression in the
radial derivatives rho', rho'', rho''', rho'''' -- those reductions live
here and are validated against a brute-force 3-d Cartesian oracle in the
test suite.

Every function works elementwise on a batch of radii (1-d arrays), or
on one radius: the same code fills the tau table on a whole grid, weighs
the tail rule's radius ladder, and evaluates each bisection step of the
pole scan and each refinement round of the quadrature.

All coefficients are exact rationals times powers of (3 pi^2); nothing
is pre-rounded to decimals.  Atomic units throughout: energies in
hartree, lengths in bohr, tau in hartree/bohr^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .radial import DensityDerivatives

# Thomas-Fermi constant (3/10) (3 pi^2)^(2/3) and the prefactors of the
# fourth- and sixth-order terms.
C_TF = 0.3 * (3.0 * math.pi ** 2) ** (2.0 / 3.0)
_C4 = (3.0 * math.pi ** 2) ** (-2.0 / 3.0) / 540.0
_C6 = (3.0 * math.pi ** 2) ** (-4.0 / 3.0) / 45360.0


@dataclass(frozen=True)
class Contractions:
    """Scalar gradient contractions of rho at one radius or a batch.

    g2         (grad rho)^2
    lap        laplacian of rho
    glap2      (grad laplacian rho)^2
    lap4       biharmonic (laplacian of laplacian) of rho
    g_dot_glap grad rho . grad laplacian rho
    g_hess2    (grad rho . (hessian rho))^2, i.e. |H grad rho|^2
               projected: for spherical symmetry (rho' rho'')^2
    """

    g2: float | np.ndarray
    lap: float | np.ndarray
    glap2: float | np.ndarray
    lap4: float | np.ndarray
    g_dot_glap: float | np.ndarray
    g_hess2: float | np.ndarray


@dataclass(frozen=True)
class TauPoint:
    """The four expansion terms of the kinetic energy density.

    At a batch of radii each field is a 1-d array, and the four rows
    make up the (4, n) tau table; at one radius they are scalars.
    """

    tau0: float | np.ndarray
    tau2: float | np.ndarray
    tau4: float | np.ndarray
    tau6: float | np.ndarray


def contractions(d: DensityDerivatives, r) -> Contractions:
    """Spherical reduction of the 3-d gradient contractions.

    With L = rho'' + 2 rho'/r the Laplacian, the gradient of L is radial
    with magnitude L' = rho''' + 2 rho''/r - 2 rho'/r^2, and the
    biharmonic collapses to rho'''' + 4 rho'''/r.  The Hessian maps the
    (radial) gradient onto rho' rho'' r_hat.
    """

    if np.any(r <= 0.0):
        raise ValueError(
            f"contractions need r > 0, got r={float(np.min(r))!r}")
    inv_r = 1.0 / r
    slope_curvature = d.d1 * d.d2
    lap = d.d2 + 2.0 * d.d1 * inv_r
    lap_prime = d.d3 + 2.0 * d.d2 * inv_r - 2.0 * d.d1 * inv_r * inv_r
    return Contractions(
        g2=d.d1 * d.d1,
        lap=lap,
        glap2=lap_prime * lap_prime,
        lap4=d.d4 + 4.0 * d.d3 * inv_r,
        g_dot_glap=d.d1 * lap_prime,
        g_hess2=slope_curvature * slope_curvature,
    )


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


def tau4(c: Contractions, rho):
    """Fourth-order term (Hodges)."""
    _require_density(rho, "tau4", strict=True)
    q = c.lap / rho
    # Dividing twice instead of forming rho**2 keeps the intermediates
    # representable far out in the tail, where rho**2 underflows long
    # before the ratio leaves the float range.
    p = c.g2 / rho / rho
    return _C4 * rho ** (1.0 / 3.0) * (q * q - 9.0 / 8.0 * q * p
                                       + 1.0 / 3.0 * p * p)


def tau6(c: Contractions, rho):
    """Sixth-order term (Murphy); diverges in atomic cusps and tails."""
    _require_density(rho, "tau6", strict=True)
    q = c.lap / rho
    p = c.g2 / rho / rho
    bracket = (
        13.0 * (c.glap2 / rho / rho)
        + 2575.0 / 144.0 * q * q * q
        + 249.0 / 16.0 * p * (c.lap4 / rho)
        + 1499.0 / 18.0 * p * q * q
        - 1307.0 / 36.0 * p * (c.g_dot_glap / rho / rho)
        + 343.0 / 18.0 * (c.g_hess2 / rho / rho / rho / rho)
        + 8341.0 / 72.0 * q * p * p
        - 1600495.0 / 2592.0 * p * p * p
    )
    return _C6 * rho ** (-1.0 / 3.0) * bracket


def tau_point(d: DensityDerivatives, r) -> TauPoint:
    """All four expansion terms at radius r, or at every radius of a
    batch (then a (4, n) table)."""
    c = contractions(d, r)
    return TauPoint(
        tau0=tau0(d.rho),
        tau2=tau2(d.rho, c.g2),
        tau4=tau4(c, d.rho),
        tau6=tau6(c, d.rho),
    )
