"""Two electrons in a harmonic trap (Hooke's-law atom).

The Hamiltonian -(1/2)(lap_1 + lap_2) + (omega^2/2)(r_1^2 + r_2^2)
+ lambda/r_12 separates exactly into center-of-mass and relative
motion.  The CM factor is a harmonic oscillator ground state at every
omega; the relative s-wave radial equation

    -u'' + (omega^2/4) s^2 u + (lambda/s) u = eps u       (mu = 1/2)

is solved here by Chebyshev collocation on [0, s_max], with numpy's
dense eigensolver and no scipy.  For omega = 1/2 the interacting
ground state is known in closed form, which provides both an exact
density (with four analytic derivatives) and an end-to-end check on
the numerical route.

The kinetic reference attached to solutions is the *non-interacting*
(Kohn-Sham) kinetic energy of the ground-state density: for a
two-electron singlet the exact KS orbital is sqrt(rho/2), so

    T_s = (1/8) int (grad rho)^2 / rho d^3r,

which is what gradient-expansion functionals approximate.  The full
wavefunction expectation <T> = T_cm + T_rel is kept alongside as a
diagnostic; the two coincide only when the interaction is switched off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import jets
from .radial import (DensityModel, RadialGrid, blockwise, grid_for_density,
                     integrate_radial)


class SolverError(RuntimeError):
    """Eigenvalue search or density reconstruction failed."""


@dataclass(frozen=True)
class HookeParams:
    omega: float
    interacting: bool = True

    def __post_init__(self):
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError(f"omega must be positive, got {self.omega!r}")


@dataclass(frozen=True)
class HookeSolution:
    """Ground state summary: density plus energy bookkeeping."""

    params: HookeParams
    density: DensityModel
    T_exact: float              # KS kinetic energy of the density
    E_total: float              # eps_cm + eps_rel
    eps_cm: float
    eps_rel: float
    kinetic_expectation: float  # <T> of the correlated wavefunction


def singlet_ks_kinetic(model: DensityModel, grid: RadialGrid) -> float:
    """(1/8) int (grad rho)^2 / rho: exact T_s for a 2e singlet."""

    def integrand(r):
        rho, d1 = model.eval(r)[:2]
        live = rho > 0.0
        return np.where(live, d1 * d1
                        / (8.0 * np.where(live, rho, 1.0)), 0.0)[()]

    return integrate_radial(integrand, grid)


# ---------------------------------------------------------------------------
# Analytic omega = 1/2 density.
#
# The closed-form ground state Psi = N0 (1 + r12/2) exp(-(r1^2+r2^2)/4),
# N0^2 = [4 pi^(5/2) (8 + 5 sqrt(pi))]^(-1), integrates to the density
#
#   rho(r) propto exp(-r^2/2) { sqrt(pi/2) [7/4 + r^2/4
#                + (r + 1/r) erf(r/sqrt(2))] + exp(-r^2/2) }
#
# The proportionality constant is fixed numerically by the N = 2 sum
# rule rather than trusted from transcription.
# ---------------------------------------------------------------------------

_SQRT_PI_HALF = math.sqrt(math.pi / 2.0)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_N0_SQUARED = 1.0 / (4.0 * math.pi ** 2.5 * (8.0 + 5.0 * math.sqrt(math.pi)))

# Small-r series of the bracket: sqrt(pi/2)(7/4 + r^2/4) plus the even
# power series of sqrt(pi/2)(r + 1/r) erf(r/sqrt(2)), which is
# sum_k (-1)^k (r^(2k) + r^(2k+2)) / (2^k k! (2k+1)).  Converges to
# machine precision for r < 1/2 with ~20 terms.
_SERIES_SWITCH = 0.5


def _bracket_series_coeffs(n_terms: int = 22) -> np.ndarray:
    coeffs = np.zeros(2 * n_terms + 4)
    coeffs[0] += _SQRT_PI_HALF * 7.0 / 4.0
    coeffs[2] += _SQRT_PI_HALF / 4.0
    term = 1.0
    for k in range(n_terms):
        coeffs[2 * k] += term
        coeffs[2 * k + 2] += term
        term *= -1.0 / (2.0 * (k + 1.0) * (2.0 * k + 3.0) / (2.0 * k + 1.0))
    return coeffs


_BRACKET_COEFFS = _bracket_series_coeffs()


def _piecewise(r, switch: float, near, far) -> np.ndarray:
    """Jet from ``near`` below ``switch`` and ``far`` from it on.

    r is a float or a 1-d array; each branch sees only its own radii,
    as a 1-d array, so neither is ever evaluated outside its range.
    """

    r = np.asarray(r, dtype=float)
    flat = r.reshape(-1)
    out = np.empty((jets.ORDERS, flat.size))
    small = flat < switch
    if np.any(small):
        out[:, small] = near(flat[small])
    if not np.all(small):
        out[:, ~small] = far(flat[~small])
    return out.reshape((jets.ORDERS,) + r.shape)


def _bracket_far(r: np.ndarray) -> np.ndarray:
    q = jets.power(r, 1) + jets.power(r, -1)
    return _SQRT_PI_HALF * (jets.polynomial(r, (1.75, 0.0, 0.25))
                            + jets.multiply(q, jets.erf_scaled(r, _INV_SQRT2)))


def _bracket_jet(r) -> np.ndarray:
    """Jet of the curly bracket, exact-arithmetic safe near r = 0."""
    poly = _piecewise(r, _SERIES_SWITCH,
                      lambda x: jets.polynomial(x, _BRACKET_COEFFS),
                      _bracket_far)
    return poly + jets.gaussian(r, 0.5)


def _display_profile(r) -> np.ndarray:
    return _N0_SQUARED * jets.multiply(jets.gaussian(r, 0.5),
                                       _bracket_jet(r))


@cache
def analytic_density_omega_half() -> DensityModel:
    """The exact omega = 1/2 density, rescaled onto the N = 2 sum rule."""
    raw = DensityModel(profile=_display_profile, electron_count=2.0,
                       label="hooke(omega=0.5, analytic)")
    grid = grid_for_density(raw)
    measured = integrate_radial(raw.rho, grid)
    scale = 2.0 / measured

    def profile(r) -> np.ndarray:
        return scale * _display_profile(r)

    return DensityModel(profile=profile, electron_count=2.0,
                        label="hooke(omega=0.5, analytic)")


# ---------------------------------------------------------------------------
# Chebyshev collocation for the relative motion.
#
# u is analytic on [0, inf) (its series at s = 0 has integer powers), so
# its Chebyshev interpolant on [0, s_max] converges geometrically
# (Trefethen, Spectral Methods in MATLAB, 2000).  One transform takes
# values at the Chebyshev-Lobatto points to coefficients; it also gives
# the second-derivative matrix, the interpolant and Clenshaw-Curtis
# integrals.  Degree 60 resolves u to rounding for s_max up to about
# 20/sqrt(omega).
# ---------------------------------------------------------------------------

_DEGREE = 60
_THETA = np.pi * np.arange(_DEGREE + 1) / _DEGREE
_LOBATTO = -np.cos(_THETA)  # increasing from -1 to 1
_ENDS = np.r_[0.5, np.ones(_DEGREE - 1), 0.5]
# Values at _LOBATTO to Chebyshev coefficients: the DCT-I
# a_k = (2/N) sum_j'' f_j T_k(x_j), with T_k(x_j) = cos(k (pi - theta_j))
# and the end terms (j or k = 0, N) halved.
_TO_COEFFS = ((2.0 / _DEGREE) * _ENDS[:, None] * _ENDS
              * np.cos(np.outer(np.arange(_DEGREE + 1), np.pi - _THETA)))
# d^2/dx^2 on [-1, 1]: differentiate the coefficients, evaluate at the
# points.
_SECOND_DERIVATIVE = (np.polynomial.chebyshev.chebvander(_LOBATTO,
                                                         _DEGREE - 2)
                      @ np.polynomial.chebyshev.chebder(_TO_COEFFS, 2))
# int_-1^1 T_j dx = 2/(1 - j^2) for even j and 0 for odd j.
_CC_MOMENTS = 2.0 / (1.0 - np.arange(0, _DEGREE + 1, 2) ** 2)
# A coefficient tail above this fraction of the largest coefficient
# means the degree does not resolve u (Aurentz and Trefethen,
# "Chopping a Chebyshev series", ACM TOMS 43, 2017).
_TAIL = 1e-13
# Sign changes count only where |u| exceeds this fraction of its peak;
# below it the deep tail is rounding noise.
_NODE_FLOOR = 1e-8


def _clenshaw_curtis(values: np.ndarray, s_max: float) -> float:
    """int_0^s_max f ds from f at the Lobatto points of [0, s_max]."""
    return 0.5 * s_max * float(np.dot((_TO_COEFFS @ values)[::2],
                                      _CC_MOMENTS))


def _lobatto_points(s_max: float) -> np.ndarray:
    return 0.5 * s_max * (1.0 + _LOBATTO)


def _solve_relative(omega: float, lam: float, s_max: float):
    """Ground-state eigenvalue and normalized u(s) on [0, s_max].

    u(0) = u(s_max) = 0, so the unknowns are u at the interior Lobatto
    points and the ground state is the lowest eigenvalue of the dense
    interior operator.  u comes back as its Chebyshev interpolant, a
    ``numpy.polynomial.Chebyshev`` on the domain [0, s_max].
    """

    s = _lobatto_points(s_max)
    inner = s[1:-1]
    operator = (-(2.0 / s_max) ** 2 * _SECOND_DERIVATIVE[1:-1, 1:-1]
                + np.diag(0.25 * omega * omega * inner ** 2 + lam / inner))
    values, vectors = np.linalg.eig(operator)
    lowest = int(np.argmin(values.real))
    eps = float(values.real[lowest])
    u = np.zeros_like(s)
    u[1:-1] = vectors[:, lowest].real

    coeffs = _TO_COEFFS @ u
    tail = float(np.max(np.abs(coeffs[-2:])) / np.max(np.abs(coeffs)))
    if tail > _TAIL:
        raise SolverError(
            f"u is under-resolved on [0, {s_max:g}] at degree {_DEGREE}: "
            f"its last Chebyshev coefficients are {tail:.2g} of the "
            f"largest; keep s_max below about {20.0 / math.sqrt(omega):.3g} "
            f"at omega={omega:g}")
    lo = 1.45 * omega
    hi = 1.5 * omega + 4.0 * math.sqrt(omega) + 4.0
    if not lo <= eps <= hi:
        raise SolverError(
            f"lowest eigenvalue eps={eps:.10g} for omega={omega:g}, "
            f"lambda={lam:g} lies outside the ground-state bracket "
            f"[{lo:g}, {hi:g}]")

    scale = 1.0 / math.sqrt(_clenshaw_curtis(u * u, s_max))
    if u[np.argmax(np.abs(u))] < 0.0:
        scale = -scale
    u *= scale
    live = u[np.abs(u) > _NODE_FLOOR * np.max(np.abs(u))]
    nodes = int(np.count_nonzero(live[:-1] * live[1:] < 0.0))
    if nodes != 0:
        raise SolverError(
            f"lowest state at eps={eps:.10g} has {nodes} interior nodes; "
            "expected the nodeless ground state")
    return eps, np.polynomial.Chebyshev(scale * coeffs,
                                        domain=[0.0, s_max])


# ---------------------------------------------------------------------------
# Density reconstruction.
#
# With |Phi_cm|^2 = (2 omega/pi)^(3/2) exp(-2 omega R^2) and
# |phi_rel|^2 = u(s)^2/(4 pi s^2), the angular integral in
# rho(r) = 2 int |Phi_cm(r - s/2)|^2 |phi_rel(s)|^2 d^3s is elementary:
#
#   rho(r) = C J(r) / r,  J(r) = int_0^inf (u^2/s)
#              [exp(-c(r - s/2)^2) - exp(-c(r + s/2)^2)] ds,
#   c = 2 omega,  C = (2 omega/pi)^(3/2) / (2 omega).
#
# J is a Gauss-Legendre sum over uniform panels: panel p starts at
# s/2 = a_p, and its nodes sit at s/2 = a_p + t_i with the same offsets
# t_i in every panel.  The k-th r-derivative of a shifted Gaussian is
# (-sqrt(c))^k H_k(x) exp(-x^2), and with x = sqrt(c)(r -+ a_p -+ t_i)
# = u + y_i, u = sqrt(c)(r -+ a_p) and y_i = -+sqrt(c) t_i, both factors
# split into a panel part and an offset part:
#
#   exp(-x^2) = exp(-u^2) exp(+-2c r t_i) exp(-2c a_p t_i - c t_i^2),
#   H_k(x)    = sum_j C(k,j) H_(k-j)(u) (2 y_i)^j
#
# (the Hermite addition formula, DLMF 18.18).  The last exponential goes
# into the weights w_pi, so the offsets sum in one contraction,
# M_j(r, p) = sum_i exp(+-2c r t_i) (2 y_i)^j w_pi, and
#
#   J^(k)(r) = (-sqrt(c))^k sum_(-+, p, j) C(k,j) H_(k-j)(u) exp(-u^2) M_j
#
# with the sign of each shift's Gaussian: 2 x 72 plus 2 x 12
# exponentials per radius instead of one per node and shift.  This form
# of the addition formula, in powers of the small 2 y_i, cancels less
# than the one in powers of 2u.  Every sum runs along a last axis of
# fixed length with no BLAS call, so a radius gets the same bits alone
# as in a batch.  Near the origin d^k(J/r) cancels, and a short odd
# Taylor series in r takes over.  The closed form integrates to exactly
# 2 electrons, which is verified after reconstruction.
# ---------------------------------------------------------------------------

# The kernel's two shifts, r - s/2 (sign -1) and r + s/2 (sign +1), and
# the addition formula's C(k, j) at [k, (shift, m, j)] where m + j = k:
# one sum along the last axis takes every order of J over both shifts.
_SHIFT = np.array([-1.0, 1.0])
_ADDITION = np.tile([[float(math.comb(k, j) * (m + j == k))
                      for m in range(jets.ORDERS) for j in range(jets.ORDERS)]
                     for k in range(jets.ORDERS)], 2)


def _reconstruct_density(omega: float, u, s_max: float, label: str,
                         quad_panels: int = 72,
                         panel_order: int = 12) -> DensityModel:
    """rho = C J(r)/r from the relative state u(s) on [0, s_max].

    u is a callable, the solver's Chebyshev interpolant or a closed
    form, read at the Gauss-Legendre nodes of ``quad_panels`` equal
    panels of ``panel_order`` points on [0, s_max].  From ``switch``
    on, the jet of J is the panel sum factorised as above; below it, an
    odd Taylor series from the moments J^(k)(0).  The profile keeps no
    array larger than the (panel_order, quad_panels) weights, since
    callers may hold many models at once.
    """

    c = 2.0 * omega
    sqrt_c = math.sqrt(c)
    pref = (2.0 * omega / math.pi) ** 1.5 / (2.0 * omega)

    # Panel starts a_p and node offsets t_i along s/2, so s = 2(a_p + t_i).
    x, w = np.polynomial.legendre.leggauss(panel_order)
    width = 0.5 * s_max / quad_panels
    a = width * np.arange(quad_panels)
    t = 0.5 * width * (x + 1.0)
    half_nodes = a[:, None] + t
    nodes = 2.0 * half_nodes
    w_of_s = width * w * u(nodes) ** 2 / nodes

    # Odd moments J_k(0) for the near-origin series of rho = C J(r)/r.
    x0 = sqrt_c * half_nodes
    herm0 = jets.hermite_values(x0, 9)
    gauss0 = np.exp(-x0 * x0)
    series_coeffs = np.zeros(9)
    for k_odd in (1, 3, 5, 7, 9):
        j_k = 2.0 * sqrt_c ** k_odd * float(
            np.sum(w_of_s * herm0[k_odd] * gauss0))
        series_coeffs[k_odd - 1] = pref * j_k / math.factorial(k_odd)
    switch = 0.2 / sqrt_c

    weights = np.ascontiguousarray(
        (w_of_s * np.exp(-c * t * (2.0 * a[:, None] + t))).T)
    scale = pref * np.cumprod([1.0] + [-sqrt_c] * (jets.ORDERS - 1))[:, None]

    @partial(blockwise, width=jets.ORDERS * 2 * quad_panels)
    def far(r: np.ndarray) -> np.ndarray:
        # Arrays are at most (5, 2, r.size, quad_panels), the width
        # blockwise sizes r.size by.  einsum without optimize makes
        # no BLAS call, and each sum keeps its order.
        # a_p and the offset factors (2 y_i)^j exp(+-2c r t_i), with the
        # + or - of the difference, are rebuilt on every call, which
        # costs little and keeps the model small.
        two_y = (2.0 * sqrt_c * _SHIFT)[:, None, None] * t
        offsets = np.empty((jets.ORDERS, 2, r.size, t.size))
        offsets[0] = np.exp(np.multiply.outer(_SHIFT, r)[..., None]
                            * (-2.0 * c * t)) * -_SHIFT[:, None, None]
        for j in range(1, jets.ORDERS):
            offsets[j] = offsets[j - 1] * two_y
        m = np.einsum("jsri,ip->jsrp", offsets, weights)
        a_p = width * np.arange(quad_panels)
        u_shift = sqrt_c * (r[:, None] + _SHIFT[:, None, None] * a_p)
        panel = (jets.hermite_values(u_shift, jets.ORDERS - 1)
                 * np.exp(-u_shift * u_shift))
        pairs = np.einsum("msrp,jsrp->rsmj", panel, m).reshape(r.size, -1)
        j_jet = scale * np.einsum("kq,rq->kr", _ADDITION, pairs)
        return jets.multiply(jets.power(r, -1), j_jet)

    def profile(r) -> np.ndarray:
        return _piecewise(r, switch,
                          lambda x: jets.polynomial(x, series_coeffs), far)

    # Beyond s_max/2 plus the representable width of exp(-c t^2) every
    # kernel underflows to zero; stop trusting the profile well before.
    support = 0.5 * s_max + 0.8 * math.sqrt(708.0 / c)
    return DensityModel(profile=profile, electron_count=2.0, label=label,
                        r_support=support)


def solve_general(params: HookeParams, s_max: float | None = None,
                  quad_panels: int = 72,
                  panel_order: int = 12) -> HookeSolution:
    """Solve the ground state at any omega and rebuild the density.

    The relative equation is solved by Chebyshev collocation of degree
    60 on [0, s_max], 12/sqrt(omega) by default.  The solve is rejected
    when u is under-resolved (s_max beyond about 20/sqrt(omega)), when
    the lowest eigenvalue leaves [1.45 omega, 1.5 omega + 4 sqrt(omega)
    + 4], when u has a node, or when the reconstructed density misses
    the N = 2 sum rule by more than 1e-6.
    """

    omega = params.omega
    lam = 1.0 if params.interacting else 0.0
    if s_max is None:
        s_max = 12.0 / math.sqrt(omega)
    eps_rel, u = _solve_relative(omega, lam, s_max)

    # <T_rel> = eps_rel - <V_rel>, avoiding numerical differentiation.
    # The integrand is 0 at s = 0, where u vanishes like s.
    s = _lobatto_points(s_max)[1:]
    pot_density = np.r_[0.0, (0.25 * omega * omega * s * s + lam / s)
                        * u(s) ** 2]
    t_rel = eps_rel - _clenshaw_curtis(pot_density, s_max)

    eps_cm = 1.5 * omega
    label = (f"hooke(omega={omega:g}, "
             f"{'interacting' if params.interacting else 'non-interacting'})")
    density = _reconstruct_density(omega, u, s_max, label,
                                   quad_panels=quad_panels,
                                   panel_order=panel_order)

    grid = grid_for_density(density)
    count = integrate_radial(density.rho, grid)
    if abs(count - 2.0) > 1e-6:
        raise SolverError(
            f"reconstructed density integrates to {count:.10f}, not 2")

    t_s = singlet_ks_kinetic(density, grid)
    return HookeSolution(
        params=params,
        density=density,
        T_exact=t_s,
        E_total=eps_cm + eps_rel,
        eps_cm=eps_cm,
        eps_rel=eps_rel,
        kinetic_expectation=0.75 * omega + t_rel,
    )


def table_density(omega: float,
                  interacting: bool = True) -> tuple[DensityModel, float]:
    """The density and reference T_s of one accuracy-table row.

    The interacting pair at omega = 1/2 uses the closed form, with T_s
    integrated on its tail-rule grid; every other case runs the solver.
    """

    if interacting and omega == 0.5:
        model = analytic_density_omega_half()
        return model, singlet_ks_kinetic(model, grid_for_density(model))
    solution = solve_general(HookeParams(omega=omega,
                                         interacting=interacting))
    return solution.density, solution.T_exact
