"""Derivative bundles: a value and its first four radial derivatives.

The sixth-order gradient correction needs density derivatives up to
fourth order, and hand-differentiating every density profile four times
is a reliable way to ship sign errors.  Instead, profiles are assembled
from a few primitive factors whose derivatives are known in closed form
(powers, polynomials, Gaussians and decaying exponentials) and
combined with the Leibniz product rule.

A jet is an ndarray whose leading axis indexes the derivative order:
``jet[k] = d^k f / dr^k`` for ``k = 0..4``.  Trailing axes broadcast, so
a jet can hold one point (shape ``(5,)``) or a batch (shape ``(5, n)``).
"""

from __future__ import annotations

import numpy as np

ORDERS = 5  # value plus four derivatives


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Leibniz product: (fg)^(k) = sum_j C(k,j) f^(j) g^(k-j).

    Terms j and k-j share a binomial and are added as a pair before the
    pairs are summed, so ``multiply(a, b)`` and ``multiply(b, a)`` round
    identically even where the sum cancels.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    a0, a1, a2, a3, a4 = a
    b0, b1, b2, b3, b4 = b
    out = np.empty(a.shape)
    out[0] = a0 * b0
    out[1] = a0 * b1 + a1 * b0
    out[2] = (a0 * b2 + a2 * b0) + 2.0 * (a1 * b1)
    out[3] = (a0 * b3 + a3 * b0) + 3.0 * (a1 * b2 + a2 * b1)
    out[4] = (((a0 * b4 + a4 * b0) + 4.0 * (a1 * b3 + a3 * b1))
              + 6.0 * (a2 * b2))
    return out


def power(r, m: int) -> np.ndarray:
    """r**m with integer m, negative allowed (r must stay positive)."""
    r = np.asarray(r, dtype=float)
    out = np.empty((ORDERS,) + r.shape)
    coeff = 1.0
    for k in range(ORDERS):
        if 0 <= m < k:
            # Derivative order exceeded a nonnegative integer power.
            out[k] = 0.0
            continue
        out[k] = coeff * r ** (m - k)
        coeff *= m - k
    return out


def polynomial(r, coeffs) -> np.ndarray:
    """sum_m coeffs[m] * r**m, derivatives taken term by term.

    d^k/dr^k sum_m c_m r^m = sum_j c_(j+k) (j+k)!/j! r^j: one column of
    derivative coefficients per power of r, summed by Horner's rule on
    one jet-shaped accumulator.  Every step is elementwise, so a radius
    gets the same bits alone as in a batch.
    """
    r = np.asarray(r, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    size = coeffs.size
    m = np.arange(size)
    table = np.zeros((ORDERS, size))
    fall = np.ones(size)
    for k in range(min(ORDERS, size)):
        table[k, :size - k] = (coeffs * fall)[k:]
        fall = fall * (m - k)
    table = table.reshape((ORDERS, size) + (1,) * r.ndim)
    out = np.zeros((ORDERS,) + r.shape)
    for j in range(size - 1, -1, -1):
        out *= r
        out += table[:, j]
    return out


def hermite_values(x, n_max: int) -> np.ndarray:
    """Physicists' Hermite polynomials H_0..H_n_max at x (recursion)."""
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 2.0 * x
    for n in range(1, n_max):
        out[n + 1] = 2.0 * x * out[n] - 2.0 * n * out[n - 1]
    return out


def gaussian(r, a: float, center: float = 0.0) -> np.ndarray:
    """exp(-a (r - center)^2); d^k = (-sqrt(a))^k H_k(x) exp(-x^2)."""
    r = np.asarray(r, dtype=float)
    root = np.sqrt(a)
    x = root * (r - center)
    base = np.exp(-x * x)
    herm = hermite_values(x, ORDERS - 1)
    out = np.empty((ORDERS,) + r.shape)
    sign = 1.0
    for k in range(ORDERS):
        out[k] = sign * herm[k] * base
        sign *= -root
    return out


def exponential(r, zeta: float) -> np.ndarray:
    """exp(-zeta r)."""
    r = np.asarray(r, dtype=float)
    base = np.exp(-zeta * r)
    out = np.empty((ORDERS,) + r.shape)
    fac = 1.0
    for k in range(ORDERS):
        out[k] = fac * base
        fac *= -zeta
    return out

