"""Two electrons in a harmonic trap (Hooke's-law atom).

The Hamiltonian -(1/2)(lap_1 + lap_2) + (omega^2/2)(r_1^2 + r_2^2)
+ lambda/r_12 separates exactly into center-of-mass and relative
motion.  The CM factor is a harmonic oscillator ground state at every
omega; the relative s-wave radial equation

    -u'' + (omega^2/4) s^2 u + (lambda/s) u = eps u       (mu = 1/2)

is solved here by Chebyshev collocation on [0, s_max], with numpy's
dense eigensolver and no scipy.  For omega = 1/2 the interacting u(s)
is known in closed form (Taut, 1993); the same reconstruction turns it
into an exact density, an end-to-end check on the numerical route.

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
from functools import cache

import numpy as np

from . import jets
from .radial import (DensityModel, RadialGrid, grid_for_density,
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
# |u| over the last fifth of the box above this fraction of its peak
# means the box is too short to hold the state.  At s_max = 8/sqrt(omega)
# it stands at 2.7e-4 or more and T_s is off by up to 3e-9; at
# 10/sqrt(omega) it is below 6e-6 and T_s holds to 3e-14.
_BOX_EDGE = 1e-4


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
        bound = 20.0 / math.sqrt(omega)
        hint = (f"keep s_max below about {bound:.3g}" if s_max >= bound
                else "it needs a shorter box")
        raise SolverError(
            f"u is under-resolved on [0, {s_max:g}] at degree {_DEGREE}: "
            f"its last Chebyshev coefficients are {tail:.2g} of the "
            f"largest; {hint} at omega={omega:g}")
    lo = 1.45 * omega
    hi = 1.5 * omega + 4.0 * math.sqrt(omega) + 4.0
    if not lo <= eps <= hi:
        raise SolverError(
            f"lowest eigenvalue eps={eps:.10g} for omega={omega:g}, "
            f"lambda={lam:g} lies outside the ground-state bracket "
            f"[{lo:g}, {hi:g}]")
    edge = float(np.max(np.abs(u[s >= 0.8 * s_max])) / np.max(np.abs(u)))
    if edge > _BOX_EDGE:
        bound = 10.0 / math.sqrt(omega)
        hint = (f"keep s_max at or above {bound:.3g} at omega={omega:g}"
                if s_max < bound else f"at omega={omega:g} the repulsion "
                "spreads it past 10/sqrt(omega), so it needs a longer box")
        raise SolverError(
            f"the box [0, {s_max:g}] is too short to hold the state: |u| "
            f"over its last fifth reaches {edge:.2g} of its peak; {hint}")

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
# J is a Gauss-Legendre sum over equal panels in s, and the k-th
# r-derivative of a shifted Gaussian is (-sqrt(c))^k H_k(x) exp(-x^2),
# x = sqrt(c)(r -+ s/2).  The density is fixed once u is, so the node
# sum is evaluated once per solve and tabulated: q_k = rho^(k)
# exp(omega r^2), which is O(1) and slowly varying where rho ~
# exp(-omega r^2) poly(r), at 16 Chebyshev points on each of equal
# panels about 1.25/sqrt(omega) wide, read back by Clenshaw's recurrence
# (Trefethen, Approximation Theory and Approximation Practice, 2013).
# Near the origin d^k(J/r) cancels, so below 0.6/sqrt(c) the table
# gives way to the even Taylor series of J/r, from the odd moments
# J^(k)(0) through k = 35.  Both branches work radius by radius, so a
# radius gets the same bits alone as in a batch.  The reconstructed
# density's N = 2 sum rule is verified after reconstruction.
# ---------------------------------------------------------------------------

_SERIES_ORDER = 35          # the last odd moment of the near-origin series
_TABLE_POINTS = 16          # Chebyshev points per table panel
_TABLE_THETA = np.pi * (np.arange(_TABLE_POINTS) + 0.5) / _TABLE_POINTS
# Values at the points cos(theta_i) to Chebyshev coefficients:
# a_j = (2/n) sum_i f_i cos(j theta_i), with a_0 halved.
_TO_TABLE_COEFFS = ((2.0 / _TABLE_POINTS)
                    * np.cos(np.outer(np.arange(_TABLE_POINTS), _TABLE_THETA)))
_TO_TABLE_COEFFS[0] *= 0.5
# Radii per node-sum call while the table is built: the call's largest
# arrays hold 5 x 2 x 864 floats a radius at the default panel rule.
_BUILD_RADII = 2


def _table_edges(omega: float, s_max: float) -> np.ndarray:
    """The series switch, then every table panel edge up to the support.

    The tail rule cuts the rows off at 11-13/sqrt(omega), well inside.
    """
    switch = 0.6 / math.sqrt(2.0 * omega)
    support = 0.5 * s_max + 7.5 / math.sqrt(omega)
    panels = math.ceil((support - switch) * math.sqrt(omega) / 1.25)
    return np.linspace(switch, support, panels + 1)


def _node_sum(r: np.ndarray, root: float, shifts: np.ndarray,
              signed: np.ndarray) -> np.ndarray:
    """J's jet at radii r, one Gaussian per node, shift and radius.

    ``shifts`` holds -s/2 and then +s/2 at every node, and ``signed``
    the weights, negated for the second shift.
    """
    x = root * (r[:, None] + shifts)
    kernel = jets.hermite_values(x, jets.ORDERS - 1) * np.exp(-x * x)
    return np.cumprod([1.0] + [-root] * (jets.ORDERS - 1))[:, None] * (
        np.sum(kernel * signed, axis=-1))


def _reconstruct_density(omega: float, u, s_max: float, label: str,
                         quad_panels: int = 72,
                         panel_order: int = 12) -> DensityModel:
    """rho = C J(r)/r from the relative state u(s) on [0, s_max].

    u is a callable, the solver's Chebyshev interpolant or a closed
    form, read at the Gauss-Legendre nodes of ``quad_panels`` equal
    panels of ``panel_order`` points on [0, s_max].  The profile keeps
    only the series and the Chebyshev table, since callers may hold
    many models at once; past the support it reads NaN.
    """

    c = 2.0 * omega
    root = math.sqrt(c)
    pref = (c / math.pi) ** 1.5 / c

    # Half-nodes s/2 and weights u^2/s ds of the panel rule.
    x, w = np.polynomial.legendre.leggauss(panel_order)
    step = 0.5 * s_max / quad_panels
    half = (step * np.arange(quad_panels)[:, None]
            + 0.5 * step * (x + 1.0)).ravel()
    weight = np.tile(step * w, quad_panels) * u(2.0 * half) ** 2 / (2.0 * half)

    # J is odd in r, so J/r = sum over odd k of J^(k)(0) r^(k-1) / k!,
    # with J^(k)(0) = 2 c^(k/2) sum_n w_n H_k(x_n) exp(-x_n^2).
    x0 = root * half
    moments = jets.hermite_values(x0, _SERIES_ORDER) * np.exp(-x0 * x0)
    series = np.zeros(_SERIES_ORDER)
    for k in range(1, _SERIES_ORDER + 1, 2):
        series[k - 1] = (2.0 * pref * root ** k / math.factorial(k)
                         * float(np.sum(weight * moments[k])))

    edges = _table_edges(omega, s_max)
    switch, support = float(edges[0]), float(edges[-1])
    panels = edges.size - 1
    width = (support - switch) / panels
    radii = (switch + width * (np.arange(panels)[:, None]
                               + 0.5 * (1.0 + np.cos(_TABLE_THETA)))).ravel()
    shifts, signed = np.r_[-half, half], np.r_[weight, -weight]
    j_jet = np.concatenate([_node_sum(radii[i:i + _BUILD_RADII], root,
                                      shifts, signed)
                            for i in range(0, radii.size, _BUILD_RADII)],
                           axis=1)
    scaled = (pref * jets.multiply(jets.power(radii, -1), j_jet)
              * np.exp(omega * radii * radii))
    # table[j, k, p]: the j-th Chebyshev coefficient of q_k on panel p.
    table = np.einsum("ji,kpi->jkp", _TO_TABLE_COEFFS,
                      scaled.reshape(jets.ORDERS, panels, _TABLE_POINTS))

    def profile(r) -> np.ndarray:
        # Each branch sees only its own radii, as a 1-d array.
        r = np.asarray(r, dtype=float)
        flat = r.reshape(-1)
        out = np.empty((jets.ORDERS, flat.size))
        near = flat < switch
        if np.any(near):
            out[:, near] = jets.polynomial(flat[near], series)
        if not np.all(near):
            far = flat[~near]
            t = (far - switch) / width
            p = np.floor(np.fmin(t, panels - 1)).astype(int)
            x = 2.0 * (t - p) - 1.0
            b1 = b2 = 0.0
            for row in table[:0:-1]:
                b1, b2 = row[:, p] + 2.0 * x * b1 - b2, b1
            q = table[0][:, p] + x * b1 - b2
            out[:, ~near] = np.where(far <= support,
                                     q * np.exp(-omega * far * far), np.nan)
        return out.reshape((jets.ORDERS,) + r.shape)

    return DensityModel(profile=profile, electron_count=2.0, label=label,
                        r_support=support)


@cache
def analytic_density_omega_half() -> DensityModel:
    """The exact omega = 1/2 density, built from Taut's closed form.

    Taut's u(s) = s (1 + s/2) exp(-s^2/8) / sqrt(8 + 5 sqrt(pi)) goes
    through the solver rows' reconstruction, on a box of
    s_max = 24/sqrt(omega), so the Gaussian tail holds out to r = 16.
    """
    def u(s: np.ndarray) -> np.ndarray:
        return (s * (1.0 + 0.5 * s) * np.exp(-0.125 * s * s)
                / math.sqrt(8.0 + 5.0 * math.sqrt(math.pi)))

    return _reconstruct_density(0.5, u, 24.0 / math.sqrt(0.5),
                                "hooke(omega=0.5, analytic)")


def solve_general(params: HookeParams, s_max: float | None = None,
                  quad_panels: int = 72,
                  panel_order: int = 12) -> HookeSolution:
    """Solve the ground state at any omega and rebuild the density.

    The relative equation is solved by Chebyshev collocation of degree
    60 on [0, s_max], 12/sqrt(omega) by default.  The solve is rejected
    when u is under-resolved (s_max beyond about 20/sqrt(omega), less
    below omega = 3e-3), when the lowest eigenvalue leaves [1.45 omega,
    1.5 omega + 4 sqrt(omega) + 4], when the box is too short to hold u
    (s_max below about 9/sqrt(omega)), when u has a node, or when the
    reconstructed density misses the N = 2 sum rule by more than 1e-6.
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

    The interacting pair at omega = 1/2 uses Taut's closed-form state,
    with T_s integrated on its tail-rule grid; every other case runs
    the solver.
    """

    if interacting and omega == 0.5:
        model = analytic_density_omega_half()
        return model, singlet_ks_kinetic(model, grid_for_density(model))
    solution = solve_general(HookeParams(omega=omega,
                                         interacting=interacting))
    return solution.density, solution.T_exact
