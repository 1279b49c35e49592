"""Two electrons in a harmonic trap (Hooke's-law atom).

The Hamiltonian -(1/2)(lap_1 + lap_2) + (omega^2/2)(r_1^2 + r_2^2)
+ lambda/r_12 separates exactly into center-of-mass and relative
motion.  The CM factor is a harmonic oscillator ground state at every
omega; the relative s-wave radial equation

    -u'' + (omega^2/4) s^2 u + (lambda/s) u = eps u       (mu = 1/2)

is solved here by Numerov integration with outward/inward matching.
For omega = 1/2 the interacting ground state is known in closed form,
which provides both an exact density (with four analytic derivatives)
and an end-to-end check on the numerical route.

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
# Numerov solver for the relative motion.
# ---------------------------------------------------------------------------

def _series_start(s: np.ndarray, eps: float, omega: float,
                  lam: float) -> np.ndarray:
    """Five-term small-s series u = s + a2 s^2 + ... for the start-up."""
    a2 = lam / 2.0
    b3 = (lam * lam / 2.0 - eps) / 6.0
    b4 = lam * (b3 - eps / 2.0) / 12.0
    b5 = (lam * b4 - eps * b3 + omega * omega / 4.0) / 20.0
    return s * (1.0 + s * (a2 + s * (b3 + s * (b4 + s * b5))))


def _sweep(c: np.ndarray, start, direction: str, eps: float) -> np.ndarray:
    """One Numerov sweep along ``c``, from its first two values ``start``.

    The recurrence c[j+1] u[j+1] = (12 - 10 c[j]) u[j] - c[j-1] u[j-1]
    is a lower-triangular system with two sub-diagonals whose first two
    rows are the identity; LAPACK's ``dtbtrs`` solves it by forward
    substitution, which is the recurrence itself, without pivoting.
    """

    from scipy.linalg.lapack import dtbtrs

    ab = np.empty((3, c.size))  # LAPACK lower band storage
    ab[0] = c
    ab[0, :2] = 1.0
    ab[1] = 10.0 * c - 12.0
    ab[1, 0] = 0.0
    ab[2] = c
    rhs = np.zeros((c.size, 1))
    rhs[:2, 0] = start
    u, info = dtbtrs(ab, rhs, uplo="L")
    if info != 0:
        raise SolverError(f"{direction} Numerov sweep at eps={eps:g}: "
                          f"dtbtrs returned info={info}")
    u = u[:, 0]
    if not np.all(np.isfinite(u)):
        raise SolverError(f"{direction} Numerov sweep at eps={eps:g} "
                          "overflowed; the grid reaches too far into "
                          "the classically forbidden region")
    return u


def _numerov_sweeps(eps: float, omega: float, lam: float,
                    s: np.ndarray):
    """Outward and inward Numerov solutions and the matching index.

    The outward sweep starts from the small-s series at s[1] and s[2]
    and runs to s[m+2]; the inward one starts from a decaying tail at
    the last two nodes and runs down to s[m-2].  Each is one banded
    triangular solve (``_sweep``), the inward one on the reversed grid.
    """

    h = s[1] - s[0]
    n = s.size
    w = np.empty(n)
    w[0] = 0.0  # never used: u(0) = 0 kills the first coefficient
    w[1:] = 0.25 * omega * omega * s[1:] ** 2 - eps
    if lam != 0.0:
        w[1:] += lam / s[1:]
    c = 1.0 - (h * h / 12.0) * w

    turning = 2.0 * math.sqrt(max(eps, 1e-12)) / omega
    m = int(np.clip(turning / h, 0.15 * n, 0.70 * n))

    u_out = np.zeros(n)
    u_out[1:m + 3] = _sweep(c[1:m + 3], _series_start(s[1:3], eps, omega,
                                                      lam), "outward", eps)
    tail = (1e-18,
            1e-18 * math.exp(omega * (2.0 * s[-1] * h - h * h) / 4.0))
    u_in = np.zeros(n)
    u_in[m - 2:] = _sweep(c[::-1][:n - m + 2], tail, "inward", eps)[::-1]
    return u_out, u_in, m, h


def _simpson(y: np.ndarray, s: np.ndarray) -> float:
    """Composite Simpson rule for y on the uniform grid s (odd length)."""
    if s.size % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd number of points, "
                         f"got {s.size}")
    h = (s[-1] - s[0]) / (s.size - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2])
                            + 2.0 * np.sum(y[2:-1:2])))


def _wronskian(eps: float, omega: float, lam: float, s: np.ndarray) -> float:
    """Matching determinant W = u_out' u_in - u_in' u_out at the seam.

    Unlike a log-derivative mismatch, W is a smooth function of eps with
    zeros exactly at the eigenvalues and no poles (a log-derivative has
    one wherever u_out vanishes at the matching node, typically just
    above each eigenvalue, which can hide the sign change from a coarse
    scan).  Each sweep is normalized by its own peak near the seam so
    the scan sees O(1) numbers; positive scalings do not move zeros.
    """

    u_out, u_in, m, h = _numerov_sweeps(eps, omega, lam, s)
    scale_out = float(np.max(np.abs(u_out[m - 1:m + 2])))
    scale_in = float(np.max(np.abs(u_in[m - 1:m + 2])))
    if scale_out == 0.0 or scale_in == 0.0:
        raise SolverError(
            f"dead matching window at eps={eps:g}: sweep vanished")
    w = ((u_out[m + 1] - u_out[m - 1]) * u_in[m]
         - (u_in[m + 1] - u_in[m - 1]) * u_out[m])
    return w / (2.0 * h * scale_out * scale_in)


def _solve_relative(omega: float, lam: float, n_points: int,
                    s_max: float):
    """Ground-state eigenvalue and normalized u(s) on a uniform grid."""
    from scipy.optimize import brentq

    s = np.linspace(0.0, s_max, n_points)
    lo = 1.45 * omega
    hi = 1.5 * omega + 4.0 * math.sqrt(omega) + 4.0
    scan = np.linspace(lo, hi, 90)
    bracket = None
    prev_eps, prev_w = scan[0], _wronskian(scan[0], omega, lam, s)
    for eps in scan[1:]:
        cur = _wronskian(eps, omega, lam, s)
        if prev_w * cur <= 0.0:
            bracket = (prev_eps, eps)
            break
        prev_eps, prev_w = eps, cur
    if bracket is None:
        raise SolverError(
            f"no ground-state bracket for omega={omega:g}, lambda={lam:g} "
            f"in [{lo:g}, {hi:g}]")
    eps = brentq(_wronskian, bracket[0], bracket[1],
                 args=(omega, lam, s), xtol=1e-13, rtol=8.9e-16)

    u_out, u_in, m, h = _numerov_sweeps(eps, omega, lam, s)
    u = np.empty_like(s)
    u[:m + 1] = u_out[:m + 1]
    u[m:] = u_in[m:] * (u_out[m] / u_in[m])
    norm = _simpson(u * u, s)
    u /= math.sqrt(norm)
    if u[np.argmax(np.abs(u))] < 0.0:
        u = -u
    nodes = int(np.count_nonzero(u[1:-1] * u[2:] < 0.0))
    if nodes != 0:
        raise SolverError(
            f"matched state at eps={eps:.10g} has {nodes} interior nodes; "
            "expected the nodeless ground state")
    return float(eps), s, u


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


def _reconstruct_density(omega: float, s: np.ndarray, u: np.ndarray,
                         label: str, quad_panels: int = 72,
                         panel_order: int = 12) -> DensityModel:
    """rho = C J(r)/r from u(s) on the uniform grid ``s``.

    u is read through a quintic spline at the Gauss-Legendre nodes of
    ``quad_panels`` equal panels of ``panel_order`` points on
    [0, s[-1]].  From ``switch`` on, the jet of J is the panel sum
    factorised as above; below it, an odd Taylor series from the
    moments J^(k)(0).  The profile keeps no array larger than the
    (panel_order, quad_panels) weights, since callers may hold many
    models at once.
    """

    from scipy.interpolate import InterpolatedUnivariateSpline

    c = 2.0 * omega
    sqrt_c = math.sqrt(c)
    pref = (2.0 * omega / math.pi) ** 1.5 / (2.0 * omega)

    # Panel starts a_p and node offsets t_i along s/2, so s = 2(a_p + t_i).
    x, w = np.polynomial.legendre.leggauss(panel_order)
    width = 0.5 * float(s[-1]) / quad_panels
    a = width * np.arange(quad_panels)
    t = 0.5 * width * (x + 1.0)
    half_nodes = a[:, None] + t
    nodes = 2.0 * half_nodes
    u_spline = InterpolatedUnivariateSpline(s, u, k=5)
    w_of_s = width * w * u_spline(nodes) ** 2 / nodes

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
    support = 0.5 * float(s[-1]) + 0.8 * math.sqrt(708.0 / c)
    return DensityModel(profile=profile, electron_count=2.0, label=label,
                        r_support=support)


def solve_general(params: HookeParams, n_points: int = 8001,
                  s_max: float | None = None, quad_panels: int = 72,
                  panel_order: int = 12) -> HookeSolution:
    """Solve the ground state at any omega and rebuild the density.

    The relative equation is integrated by Numerov sweeps matched at the
    classical turning point; the eigenvalue is bracketed by a mismatch
    scan filtered to zero interior nodes, then polished by Brent.  The
    reconstructed density must pass the N = 2 sum rule to 1e-6 or the
    solve is rejected.
    """

    omega = params.omega
    lam = 1.0 if params.interacting else 0.0
    if s_max is None:
        s_max = 12.0 / math.sqrt(omega)
    eps_rel, s, u = _solve_relative(omega, lam, n_points, s_max)

    # <T_rel> = eps_rel - <V_rel>, avoiding numerical differentiation.
    v_pot = 0.25 * omega * omega * s ** 2
    pot_density = v_pot * u * u
    if lam != 0.0:
        coulomb = np.zeros_like(s)
        coulomb[1:] = lam * u[1:] ** 2 / s[1:]
        pot_density = pot_density + coulomb
    t_rel = eps_rel - _simpson(pot_density, s)

    eps_cm = 1.5 * omega
    label = (f"hooke(omega={omega:g}, "
             f"{'interacting' if params.interacting else 'non-interacting'})")
    density = _reconstruct_density(omega, s, u, label,
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
        eps_rel=float(eps_rel),
        kinetic_expectation=0.75 * omega + float(t_rel),
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
