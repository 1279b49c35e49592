"""Radial grids, density models, quadrature and principal-value integrals.

Everything in this package lives on spherically symmetric densities, so
the only geometry is the radial half-line.  This module owns:

* ``DensityModel`` -- a density profile that maps radii to the
  ``(5, n)`` jet of rho and its first four radial derivatives, and
  ``blockwise`` for profiles whose temporaries grow with the batch,
* ``RadialGrid`` -- the integration cutoff r_max,
* ``integrate_radial`` -- adaptive quadrature of ``4 pi r^2 f(r)``,
* ``find_poles`` -- sign changes of denominators, read in one batched
  call on its own power-spaced nodes up to the cutoff, narrowed by
  vectorised Illinois steps and finished by a secant step,
* ``principal_value_integrate`` -- Cauchy principal values across simple
  poles of resummed integrands, with one pole list per row: symmetric
  windows around the poles, and the plain segments between them with
  each row's A/(r - r*) tails subtracted and added back in closed form,
  every row on one interval list cut at every window and at the
  density's knots,
* ``tabulated_derivatives`` -- densities interpolated through
  ``(r, rho)`` samples by a quintic spline in ``log rho``, whose
  interior knots the model carries as its ``breakpoints``.

``quad``, ``find_poles`` and ``principal_value_integrate`` take stacks:
callables that map a 1-d array of n radii to an ``(m, n)`` array of m
rows, and refuse any other shape with ``ValueError``;
``integrate_radial`` hands its one integrand on as a one-row stack.
``quad`` is a globally adaptive Gauss-Kronrod 10/21 rule in numpy that
evaluates each refinement round in runs of at most ``QUAD_CALL_RADII``
radii, holds each row to its own tolerance, and raises
``QuadratureError`` when it cannot meet it, so no caller reads a status.
Splines are FITPACK's: ``tabulated_derivatives`` imports scipy when it
is called, and it is the only code that does, so atoms and Hooke
densities never load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import kedf

FOUR_PI = 4.0 * math.pi

# Relative accuracy asked of every radial integral, and the most
# bisections one integral may make: the intervals refinement adds to the
# starting list, which a tabulated row cuts at each of its knots.
QUAD_RELTOL = 1e-10
QUAD_ABSTOL = 1e-13
QUAD_LIMIT = 400
# Radii one call of a ``quad`` integrand takes at most, which bounds a
# round's temporaries, and the pole scan's node count.  A tabulated row
# starts from its knot intervals, about 8k radii (six calls) on a
# 400-sample table.  On the benchmark's tables one pass then traces a
# peak of 0.38 MB; 4,096 radii a call took two or three calls and 0.79 MB.
QUAD_CALL_RADII = 1600

# The 21-point Kronrod rule on [-1, 1] and its embedded 10-point Gauss
# rule, as tabulated in QUADPACK's qk21 (Piessens et al., 1983): the
# nonnegative nodes from 1 down to 0, and the Gauss weights of every
# second one of them.  In the full ascending table the Gauss nodes are
# GK21_NODES[1::2].
_KRONROD_HALF = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
])
_KRONROD_HALF_WEIGHTS = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980355420,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_GAUSS_HALF_WEIGHTS = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
GK21_NODES = np.concatenate((-_KRONROD_HALF[:-1], _KRONROD_HALF[::-1]))
GK21_WEIGHTS = np.concatenate((_KRONROD_HALF_WEIGHTS[:-1],
                               _KRONROD_HALF_WEIGHTS[::-1]))
GAUSS10_WEIGHTS = np.concatenate((_GAUSS_HALF_WEIGHTS,
                                  _GAUSS_HALF_WEIGHTS[::-1]))
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

# Tail rule: r_max is grown until the integrand weight
# 4 pi r^2 (tau0 + tau2 + |tau4|) drops below this.  Bounding the
# Thomas-Fermi weight alone is not enough: the bare fourth-order term
# decays like r^6 rho^(1/3), orders of magnitude more slowly than
# rho^(5/3), and truncating its tail visibly shifts the fourth-order
# rows of the accuracy tables.
TAIL_TOLERANCE = 3e-13

# Floats one ``blockwise`` kernel call may put in each of its largest
# per-radius arrays.  Only the atomic density, whose temporaries grow
# with the batch, uses it: ``(5, n, distinct primitives)`` arrays, 60
# floats a radius on Ar, so 273 radii a call.  On a 2-core VM, a pass
# over the atom rows took 0.167 s at 17 Ar radii a call, 0.120 s at 68,
# 0.110 s at 273 and 0.116 s at 546.  With every temporary of a call,
# one 1,600-radius evaluation peaks at 0.49 MB on Ar, against 4.1 MB
# unblocked.  The tabulated spline and the Hooke table take whole
# arrays.
BLOCK_FLOATS = 2 ** 14

# Principal-value window: delta = min(PV_WINDOW_FRACTION * r_pole,
# half the distance to the nearest pole or domain endpoint).
PV_WINDOW_FRACTION = 0.05
# Poles separated by less than twice this floor abort the run.
PV_SEPARATION_FLOOR = 1e-7
# Relative rounding error of a window integral.  Close poles make their
# windows grow like 1/separation and cancel each other down to T, so a
# principal value whose windows' rounding exceeds the quadrature
# tolerance on T is refused: on e^-r/((r - a)(r - b)), T is off by
# about 1e-12 sum|windows|/|T| relative.
PV_WINDOW_ROUNDOFF = 1e-13

_PV_GAUSS_NODES, _PV_GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(64)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed; carries the best estimates seen."""

    def __init__(self, message: str, best_estimate: float = math.nan,
                 achieved_error: float = math.inf):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_error = achieved_error


class PrincipalValueError(RuntimeError):
    """Pole layout or residue estimation made the PV integral unsafe."""


@dataclass(frozen=True)
class DensityModel:
    """A radial density with four derivatives available at any r > 0.

    ``profile`` maps a 1-d array of n radii to a ``(5, n)`` derivative
    jet (see ``jets``) of rho and its first four derivatives, and a
    float or 0-d array to a ``(5,)`` jet.  ``eval`` returns that jet as
    it is and ``rho`` its first row, each calling ``profile`` once on
    the whole array.  A profile whose temporaries grow with the
    batch bounds them itself (see ``blockwise``).  ``electron_count`` is
    the analytic or measured value of ``4 pi int r^2 rho dr``; shipped
    models must satisfy it to 1e-8 relative.  ``r_support`` bounds the
    trustworthy domain for models that only exist on a finite table.
    ``breakpoints`` are the radii where the profile is not smooth: the
    interior knots of a tabulated model's spline, a view of the knot
    array the spline holds, and none for an analytic model.
    """

    profile: Callable[[float | np.ndarray], np.ndarray]
    electron_count: float
    label: str = ""
    r_support: float | None = None
    breakpoints: Sequence[float] = field(default=(), compare=False)

    def eval(self, r) -> np.ndarray:
        return self.profile(np.asarray(r, dtype=float))

    def rho(self, r):
        return self.profile(np.asarray(r, dtype=float))[0]


def blockwise(profile: Callable, width: int) -> Callable:
    """``profile`` on BLOCK_FLOATS // width radii a call, for a kernel
    whose largest arrays hold ``width`` floats a radius."""
    block = max(1, BLOCK_FLOATS // width)

    def blocked(r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if r.size <= block:
            return profile(r)
        return np.concatenate([profile(r[i:i + block])
                               for i in range(0, r.size, block)], axis=1)

    return blocked


@dataclass(frozen=True)
class RadialGrid:
    """The integration cutoff: every radial integral runs over [0, r_max].

    A finite, positive r_max is the grid's one field; the pole scan lays
    its own nodes up to it (see ``find_poles``).
    """

    r_max: float

    def __post_init__(self):
        if not 0.0 < self.r_max < math.inf:
            raise ValueError(f"grid cutoff r_max must be finite and "
                             f"positive, got {self.r_max!r}")


def grid_for_density(model: DensityModel) -> RadialGrid:
    """The grid whose cutoff r_max the tail rule picks for ``model``.

    r_max is the first radius of the ladder 1.25^k, evaluated as one
    batch, where the integrand weight 4 pi r^2 (tau0 + tau2 + |tau4|)
    is not above ``TAIL_TOLERANCE`` (capped at the model's support when
    finite).  The fourth-order term has the slowest-decaying tail of any
    integrand this package sums, so everything beyond the cutoff is
    negligible against the table precision targeted here; the
    Thomas-Fermi weight alone is smaller still.
    """

    cap = model.r_support
    start = 1.0 if cap is None else min(1.0, cap)
    # Repeated multiplication, through the first radius past 1e4.
    steps = math.ceil(math.log(1e4 / start) / math.log(1.25)) + 1
    ladder = np.cumprod(np.concatenate(([start], np.full(steps, 1.25))))
    stop = (ladder > 1e4) | (cap is not None and ladder >= cap)
    stop[0] = False  # the start is weighed even when it is the cap
    end = int(np.argmax(stop))
    radii = ladder[:end]

    jet = model.eval(radii)
    live = jet[0] > 0.0
    r = radii[live]
    p = kedf.tau_point(jet[:, live], r)
    weight = np.zeros(radii.size)
    weight[live] = FOUR_PI * r * r * (p[0] + p[1] + np.abs(p[2]))
    # Not "<=": a NaN weight ends the ladder, as any non-positive rho does.
    below = ~(weight > TAIL_TOLERANCE)
    if np.any(below):
        r_max = float(radii[np.argmax(below)])
    elif cap is not None and ladder[end] >= cap:
        r_max = cap
    else:
        raise ValueError("tail rule did not terminate; density does "
                         "not decay")
    return RadialGrid(r_max)


def _as_stack(values, n: int) -> np.ndarray:
    """values as an (m, n) float array, or ValueError naming its shape."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != n:
        raise ValueError(f"expected an (m, {n}) stack, got {values.shape}")
    return values


def _gk21(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """QUADPACK's qk21 of the stack f on every interval [lo_i, hi_i].

    f is called on runs of whole intervals, at most ``QUAD_CALL_RADII``
    radii a call, and each run is reduced to its ``(m, k)`` estimates and
    error estimates, each row's bits as in a one-row stack, and its node
    values dropped, before the next call.  The error is the Gauss-Kronrod
    difference, scaled against the integrand's spread over the interval
    and floored at 50 ulps of the integral of |f|.  After the last run, a
    value that is not finite raises ``QuadratureError`` naming the
    smallest such radius of the round, and its row when m > 1.
    """

    width = max(1, QUAD_CALL_RADII // GK21_NODES.size)
    estimates, errors, failures = [], [], {}
    for i in range(0, lo.size, width):
        center = 0.5 * (lo[i:i + width] + hi[i:i + width])
        half = 0.5 * (hi[i:i + width] - lo[i:i + width])
        radii = (center[:, None] + half[:, None] * GK21_NODES).ravel()
        rows = _as_stack(f(radii), radii.size)
        bad = ~np.isfinite(rows)
        if np.any(bad):
            j = int(np.argmin(np.where(np.any(bad, axis=0), radii, np.inf)))
            row = int(np.argmax(bad[:, j]))
            which = "integrand" if len(rows) == 1 else f"integrand row {row}"
            failures[radii[j]] = (f"{which} is not finite at "
                                  f"r={radii[j]:.12g} (got {rows[row, j]})")
            del rows, bad
            continue
        # A stacked matmul rounds each row as a one-row stack would.
        rows = rows.reshape(len(rows), -1, GK21_NODES.size)
        kronrod = rows @ GK21_WEIGHTS
        mean = 0.5 * kronrod
        abs_half = np.abs(half)
        resabs = (np.abs(rows) @ GK21_WEIGHTS) * abs_half
        resasc = (np.abs(rows - mean[..., None]) @ GK21_WEIGHTS) * abs_half
        error = np.abs((kronrod - rows[..., 1::2] @ GAUSS10_WEIGHTS) * half)
        nonflat = resasc != 0.0
        ratio = (200.0 * error / np.where(nonflat, resasc, 1.0)) ** 1.5
        error = np.where(nonflat, resasc * np.minimum(1.0, ratio), error)
        floor = resabs > _TINY / (50.0 * _EPS)
        error = np.where(floor, np.maximum(50.0 * _EPS * resabs, error), error)
        estimates.append(kronrod * half)
        errors.append(error)
        del rows, bad, kronrod, mean, resabs, resasc, error, ratio
    if failures:
        raise QuadratureError(failures[min(failures)])
    return np.concatenate(estimates, axis=1), np.concatenate(errors, axis=1)


def quad(f: Callable, a, b):
    """Globally adaptive Gauss-Kronrod 10/21 estimates of int_a^b f.

    f maps a 1-d array of n radii to an ``(m, n)`` stack of m integrands
    on one interval list, or ``ValueError`` is raised; a and b are
    floats, or equal-length arrays of interval ends whose integrals are
    summed.  The endpoints are never evaluated.  Each round evaluates the
    21 nodes of every interval that still needs work (see ``_gk21``), and
    a value that is not finite raises ``QuadratureError``.  Then every
    integrand whose error estimate exceeds its own tolerance
    max(QUAD_ABSTOL, QUAD_RELTOL |value|) picks the intervals with its
    largest error estimates, as many as it takes for their errors to
    cover its excess, and the round bisects the union of the picks, in
    the order first picked.  At most QUAD_LIMIT bisections are made in
    all, beyond the starting list however long it is.

    Returns ``(value, abserr, info)``, arrays of m.  ``info["neval"]``
    counts the radii f was called on, and ``info["status"]`` is 0 when
    every integrand converged and 2 when an interval grew too small to
    bisect but every error estimate is already within 1e-9 of
    max(|value|, 1).  Any other stop, the interval limit included,
    raises ``QuadratureError`` carrying the best estimates and errors.
    """

    lo, hi = (np.array(a, dtype=float, ndmin=1),
              np.array(b, dtype=float, ndmin=1))
    values, errors = _gk21(f, lo, hi)
    status, start = 0, lo.size
    while True:
        value, abserr = values.sum(axis=1), errors.sum(axis=1)
        excess = abserr - np.maximum(QUAD_ABSTOL,
                                     QUAD_RELTOL * np.abs(value))
        if np.all(excess <= 0.0):
            break
        room = QUAD_LIMIT - (lo.size - start)
        if room == 0:
            status = 1
            break
        picks = []
        for row, over in zip(errors, excess):
            if over > 0.0:
                order = np.argsort(-row, kind="stable")
                count = int(np.searchsorted(np.cumsum(row[order]), over)) + 1
                picks.append(order[:count])
        picks = np.concatenate(picks)
        first = np.sort(np.unique(picks, return_index=True)[1])
        pick = picks[first[:room]]
        mid = 0.5 * (lo[pick] + hi[pick])
        # QUADPACK's test for an interval too small to split further.
        if np.any(np.maximum(np.abs(lo[pick]), np.abs(hi[pick]))
                  <= (1.0 + 100.0 * _EPS) * (np.abs(mid) + 1000.0 * _TINY)):
            status = 2
            break
        new_lo = np.concatenate((lo[pick], mid))
        new_hi = np.concatenate((mid, hi[pick]))
        new_values, new_errors = _gk21(f, new_lo, new_hi)
        keep = np.ones(lo.size, dtype=bool)
        keep[pick] = False
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        values = np.concatenate((values[:, keep], new_values), axis=1)
        errors = np.concatenate((errors[:, keep], new_errors), axis=1)
    if status and not (status == 2 and np.all(
            abserr <= 1e-9 * np.maximum(np.abs(value), 1.0))):
        estimate = ", ".join(f"{v:.12g}" for v in value)
        error = ", ".join(f"{e:.3g}" for e in abserr)
        raise QuadratureError(
            f"quadrature on [{np.min(a):g}, {np.max(b):g}] did not "
            f"converge (status {status}, estimate {estimate}, "
            f"error {error})",
            best_estimate=value, achieved_error=abserr)
    return value, abserr, {"neval": GK21_NODES.size * (2 * lo.size - start),
                           "status": status}


def integrate_radial(f: Callable, grid: RadialGrid) -> float:
    """Adaptive estimate of ``4 pi int_0^rmax r^2 f(r) dr``.

    f returns one value per radius of a 1-d array, and any other shape
    raises ``ValueError``; it goes to ``quad`` as a one-row stack, whose
    integral is returned as a float.  A value that is not finite, or a
    run that does not converge, raises ``QuadratureError``.
    """

    return float(quad(lambda r: (FOUR_PI * r * r * f(r))[None], 0.0,
                      grid.r_max)[0][0])


def _scan_nodes(r_max: float) -> np.ndarray:
    """The pole scan's ``QUAD_CALL_RADII`` nodes on [1e-5 r_max, r_max],
    clustered toward the origin as t**2.5 for evenly spaced t in [0, 1]."""
    r_min = 1e-5 * r_max
    t = np.linspace(0.0, 1.0, QUAD_CALL_RADII)
    nodes = r_min + (r_max - r_min) * t ** 2.5
    # r_min + (r_max - r_min) can round off r_max by an ulp.
    nodes[-1] = r_max
    return nodes


def _require_finite_denominator(r: np.ndarray, values: np.ndarray):
    """Refuse values at r, naming the least radius of one not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = np.where(finite, np.inf, r).min()
        raise ValueError(f"denominator is not finite at r={bad:.12g}")


def find_poles(denominator: Callable, grid: RadialGrid):
    """Locate sign changes of ``denominator`` on [1e-5 r_max, r_max].

    ``denominator`` maps a 1-d array of n radii to an ``(m, n)`` stack
    of m denominators, which are scanned together.  The scan reads it
    on ``_scan_nodes(grid.r_max)``, ``QUAD_CALL_RADII`` (1,600) nodes
    from 1e-5 r_max up, in one batched call.  Every bracket of every row is
    then narrowed at once by Illinois steps (Dowell and Jarratt, 1971):
    regula falsi that halves the stored value of an end kept twice in a
    row, so both ends close in superlinearly.  Each step calls the
    denominator once, on one point in every bracket still wider than
    1e-12 * r_max, and reads each bracket's own row.  The sign test
    reads the true end values and only the falsi point the halved
    copies; the point stays half that width inside the bracket, so an
    end already on the root still lets the other one close in.  A
    bracket that is not at most half as wide as three steps before is
    bisected instead, so every bracket at least halves in four steps.
    An exact zero closes its bracket.  Each final bracket is finished by
    one secant step through its two true end values, clipped to the
    bracket, which costs no further call and puts a simple root to
    within rounding of the denominator; the window rule of
    ``principal_value_integrate`` is first-order in the pole offset, so
    a bracket midpoint would leave a relative error of order 1e-7 in
    the principal value.  Brackets step independently, so a row's poles
    are the same bits in a stack as in a one-row stack.  Only
    odd-order (sign-changing) roots are seen, which is what the
    principal-value machinery can handle anyway.  A value that is not
    finite raises ``ValueError`` naming its radius.  Returns one sorted
    list of poles per row.
    """

    nodes = _scan_nodes(grid.r_max)
    values = _as_stack(denominator(nodes), nodes.size)
    _require_finite_denominator(nodes, values)

    left, right = values[:, :-1], values[:, 1:]
    row, brackets = np.nonzero((left == 0.0) | (left * right < 0.0))
    a, fa = nodes[brackets], values[row, brackets]
    # A root on a left node closes its bracket there.
    closed = fa == 0.0
    b = np.where(closed, a, nodes[brackets + 1])
    fb = np.where(closed, fa, values[row, brackets + 1])
    # The end values the falsi point reads, halved where an end is kept
    # twice in a row; kept is +1 where the last step kept a, -1 for b.
    ga, gb = fa.copy(), fb.copy()
    kept = np.zeros(a.size)
    # Each bracket's width before each of the last three steps.
    widths = np.full((3, a.size), np.inf)
    width_target = 1e-12 * grid.r_max
    margin = 0.5 * width_target
    while True:
        open_ = np.flatnonzero(b - a > width_target)
        if open_.size == 0:
            break
        lo, hi = a[open_], b[open_]
        width = hi - lo
        falsi = hi - gb[open_] * width / (gb[open_] - ga[open_])
        x = np.where(width > 0.5 * widths[0, open_], 0.5 * (lo + hi),
                     np.clip(falsi, lo + margin, hi - margin))
        widths[:, open_] = np.vstack((widths[1:, open_], width))
        fx = _as_stack(denominator(x), x.size)[row[open_], np.arange(x.size)]
        _require_finite_denominator(x, fx)
        left_half = fa[open_] * fx < 0.0
        # An exact zero closes its bracket: both ends move to x.
        to_b = left_half | (fx == 0.0)
        to_a = ~left_half
        ga[open_[to_b & (kept[open_] > 0.0)]] *= 0.5
        gb[open_[to_a & (kept[open_] < 0.0)]] *= 0.5
        b[open_[to_b]] = x[to_b]
        fb[open_[to_b]] = gb[open_[to_b]] = fx[to_b]
        a[open_[to_a]] = x[to_a]
        fa[open_[to_a]] = ga[open_[to_a]] = fx[to_a]
        kept[open_] = np.where(to_b, 1.0, -1.0)
    # The secant step; an exact zero or a flat pair keeps the midpoint.
    flat = (fa == 0.0) | (fb == fa)
    secant = a - fa * (b - a) / np.where(flat, 1.0, fb - fa)
    poles = np.where(flat, 0.5 * (a + b), np.clip(secant, a, b))
    return [sorted(poles[row == i].tolist()
                   + ([float(nodes[-1])] if last == 0.0 else []))
            for i, last in enumerate(values[:, -1])]


def _pole_windows(poles: np.ndarray, r_max: float) -> np.ndarray:
    """Symmetric half-widths delta for each pole, per the window rule."""
    half_gaps = 0.5 * np.diff(poles)
    deltas = PV_WINDOW_FRACTION * poles
    deltas[1:] = np.minimum(deltas[1:], half_gaps)
    deltas[:-1] = np.minimum(deltas[:-1], half_gaps)
    return np.minimum(deltas, np.minimum(0.5 * poles, 0.5 * (r_max - poles)))


def _window_integrals(g: Callable, poles: np.ndarray, deltas: np.ndarray,
                      rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integral of g - A/(r - r*) over every window, and every residue A.

    g returns an ``(m, n)`` stack of weighted integrands 4 pi r^2 f, and
    each pole reads the row ``rows`` gives it.

    Each window is evaluated as int_0^delta [g(r*+t) + g(r*-t)] dt:
    mirrored nodes make the subtracted 1/(r - r*) term cancel pairwise,
    so its symmetric principal value is zero exactly by construction.
    The folded integrand is smooth, so a fixed 64-point Gauss-Legendre
    rule suffices.

    The residue A = lim (r - r*) g(r) is estimated alongside by
    two-sided Richardson steps, and returned for the plain segments.
    The symmetric average kills the odd error terms, so the ladder
    converges as h^2, h^4, ...  A ladder that does not settle flags a
    pole that is not simple, and the PV prescription does not apply.
    Every ladder and every window node of every pole is one batched
    call of g; a value that a pole reads that is not finite raises
    ``QuadratureError`` naming the smallest such radius.
    """

    offsets = deltas[:, None] / np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    t = 0.5 * deltas[:, None] * (_PV_GAUSS_NODES + 1.0)
    # Offsets that r* + t represents exactly, so r* - t mirrors it; a
    # pole near a power of two otherwise rounds its two sides apart.
    offsets = (poles[:, None] + offsets) - poles[:, None]
    t = (poles[:, None] + t) - poles[:, None]
    w = 0.5 * deltas[:, None] * _PV_GAUSS_WEIGHTS
    radii = poles[:, None] + np.concatenate((offsets, -offsets, t, -t),
                                            axis=1)
    values = g(radii.ravel()).reshape((-1,) + radii.shape)
    values = values[rows, np.arange(poles.size)]
    bad = ~np.isfinite(values)
    if np.any(bad):
        i, j = np.unravel_index(np.argmin(np.where(bad, radii, np.inf)),
                                radii.shape)
        raise QuadratureError(
            f"integrand is not finite at r={radii[i, j]:.12g} in the "
            f"window of the pole at r={poles[i]:.8g} (got {values[i, j]})")
    above, below, plus, minus = np.split(
        values, [5, 10, 10 + _PV_GAUSS_NODES.size], axis=1)

    steps = offsets[:, 1:]
    averages = 0.5 * (steps * above[:, 1:] - steps * below[:, 1:])
    # One Richardson sweep in h^2, then another in h^4.
    first = (4.0 * averages[:, 1:] - averages[:, :-1]) / 3.0
    second = (16.0 * first[:, 1:] - first[:, :-1]) / 15.0
    best, previous = second[:, -1], second[:, -2]
    edge_scale = deltas * np.maximum(np.abs(above[:, 0]),
                                     np.abs(below[:, 0]))
    scale = np.maximum(np.maximum(np.abs(best), edge_scale), 1e-30)
    # Deliberately coarse test: an odd-order pole makes the ladder grow
    # by factors of four per step, so the mismatch lands at order one,
    # while spline-backed densities merely stall at a small smoothness
    # floor that a tight tolerance would misread as a bad pole.
    bad = np.abs(best - previous) > 1e-2 * scale
    if np.any(bad):
        i = int(np.argmax(bad))
        raise PrincipalValueError(
            f"residue estimate did not converge at r={poles[i]:.8g} "
            f"(ladder {averages[i].tolist()} -> {best[i]:.6g}); "
            "pole does not look simple")
    # np.dot window by window: einsum and sum would round differently.
    windows = np.array([np.dot(wi, fi) for wi, fi in zip(w, plus + minus)])
    return windows, best


def principal_value_integrate(f: Callable, poles: Sequence, grid: RadialGrid,
                              breakpoints: Sequence[float] = ()):
    """Cauchy principal values of ``4 pi int r^2 f dr`` across simple poles.

    f maps a 1-d array of n radii to an ``(m, n)`` stack of integrands,
    and ``poles`` holds one 1-d list of poles per row, or ``ValueError``
    is raised.  Returns the m principal values, from one ``quad`` call.

    Each row's domain is split into a symmetric window around each of
    its poles and the plain segments between them.  The windows use
    pole subtraction, and their residue ladders double as a simple-pole
    sanity check (see _window_integrals); one call covers every window
    of every row.  On the plain segments a row integrates
    g - sum_k A_k/(r - r_k) over its own poles: with their tails taken
    off, the integrand left between its windows is smooth.  The tails
    are added back in closed form, A_k ln|(hi - r_k)/(lo - r_k)| for
    every plain segment [lo, hi] of the row, so the other poles'
    windows are left out of each pole's logarithm.

    All rows share one interval list, cut at every window edge and every
    pole of every row and at each of ``breakpoints`` (the radii where
    the integrand is not smooth, such as a spline's knots) inside
    (0, r_max).  A row reads zero on the intervals inside its own
    windows, and an interval inside the windows of every row is left
    out.  No pole is ever a node, so no row is evaluated at its own
    pole, and a one-row stack integrates exactly its plain segments.

    Close poles have large windows that cancel each other; when
    ``PV_WINDOW_ROUNDOFF`` times a row's summed window magnitude
    exceeds the quadrature tolerance on its result, the result is
    refused with ``PrincipalValueError``.
    """

    if any(np.ndim(p) != 1 for p in poles):
        raise ValueError(f"poles {poles!r} is not one 1-d list per row of f")
    rows = [np.sort(np.asarray(p, dtype=float)) for p in poles]
    if not rows:
        raise ValueError("poles holds no pole list; give one per row of f")
    r_max = grid.r_max
    floor = PV_SEPARATION_FLOOR * r_max
    for row in rows:
        for pole in row:
            if not (0.0 < pole < r_max):
                raise PrincipalValueError(
                    f"pole at r={pole:.8g} lies outside (0, r_max)")
        for left, right in zip(row, row[1:]):
            if right - left < 2.0 * floor:
                raise PrincipalValueError(
                    f"poles at r={left:.8g} and r={right:.8g} are too "
                    "close to separate with symmetric windows")

    def weighted(r):
        values = FOUR_PI * r * r * _as_stack(f(r), r.size)
        if len(values) != len(rows):
            raise ValueError(f"integrand returned {len(values)} rows for "
                             f"{len(rows)} pole lists; give one per row")
        return values

    deltas = [_pole_windows(row, r_max) for row in rows]
    every_pole, every_delta = np.concatenate(rows), np.concatenate(deltas)
    owner = np.repeat(np.arange(len(rows)), [row.size for row in rows])
    own = [np.flatnonzero(owner == i) for i in range(len(rows))]
    windows = residues = np.empty(0)
    if every_pole.size:
        windows, residues = _window_integrals(weighted, every_pole,
                                              every_delta, owner)
    left, right = every_pole - every_delta, every_pole + every_delta
    edges = np.sort(np.concatenate(
        ([0.0, r_max], left, every_pole, right,
         np.asarray(breakpoints, dtype=float))))
    edges = edges[(edges >= 0.0) & (edges <= r_max)]
    edges = edges[np.r_[True, edges[1:] > edges[:-1]]]
    lo, hi = edges[:-1], edges[1:]
    covered = [np.any((lo[:, None] >= left[k]) & (hi[:, None] <= right[k]),
                      axis=1) for k in own]
    needed = ~np.all(covered, axis=0)
    lo, hi = lo[needed], hi[needed]

    def smooth(r):
        values = weighted(r)
        for i, k in enumerate(own):
            if k.size:
                inside = np.any((r[:, None] > left[k])
                                & (r[:, None] < right[k]), axis=1)
                values[i, inside] = 0.0
                values[i, ~inside] -= ((1.0 / np.subtract.outer(
                    r[~inside], every_pole[k])) @ residues[k])
        return values

    values = quad(smooth, lo, hi)[0]
    for i, k in enumerate(own):
        if k.size:
            # The row's own plain segments; two of its windows may touch.
            seg_lo = np.concatenate(([0.0], right[k]))
            seg_hi = np.concatenate((left[k], [r_max]))
            seg = seg_lo < seg_hi
            tails = np.log(np.abs(
                np.subtract.outer(seg_hi[seg], every_pole[k])
                / np.subtract.outer(seg_lo[seg], every_pole[k]))).sum(axis=0)
            value = (values[i] + float(residues[k] @ tails)
                     + float(np.sum(windows[k])))
            magnitude = float(np.sum(np.abs(windows[k])))
            if PV_WINDOW_ROUNDOFF * magnitude > max(
                    QUAD_ABSTOL, QUAD_RELTOL * abs(value)):
                raise PrincipalValueError(
                    f"pole windows of total magnitude {magnitude:.6g} "
                    f"cancel to a principal value of {value:.6g}, past the "
                    "quadrature tolerance; the poles are too close")
            values[i] = value
    return values


def load_density_table(path) -> tuple[np.ndarray, np.ndarray]:
    """Read (r, rho) samples from a text table.

    Two formats are accepted: a plain two-column ``r rho`` file ('#'
    starts a comment), or a table with a header row naming ``r`` and
    ``rho`` columns -- a CSV, which is what the dump command writes, so
    its output can be fed straight back in, or whitespace-separated when
    the header has no comma.  The first line that is not a comment is a
    header when one of its fields is not a number.  A table with no
    sample row (empty, only comments, or only a header) is rejected.
    """

    with open(path, "r", encoding="utf-8") as fh:
        rows = [(n, line.strip()) for n, line in enumerate(fh, start=1)]
    rows = [(n, line) for n, line in rows
            if line and not line.startswith("#")]
    header_end, first = rows[0] if rows else (0, "")
    try:
        np.array(first.replace(",", " ").split(), dtype=float)
        header = False
    except ValueError:
        header = True
    if len(rows) == int(header):
        raise ValueError(f"{path}: density table has no samples")
    if header:
        # A header without commas names whitespace-separated columns.
        delimiter = "," if "," in first else None
        names = [c.strip() for c in first.split(delimiter)]
        if "r" not in names or "rho" not in names:
            raise ValueError(
                f"{path}: header row lacks 'r' and 'rho' columns: {first!r}")
        try:
            # skiprows counts comment lines too: skip through the header.
            data = np.loadtxt(path, comments="#", delimiter=delimiter,
                              skiprows=header_end,
                              usecols=(names.index("r"), names.index("rho")),
                              ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: could not parse density CSV: {exc}")
        return data[:, 0].copy(), data[:, 1].copy()
    try:
        data = np.loadtxt(path, comments="#", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: could not parse density table: {exc}")
    if data.shape[1] != 2:
        raise ValueError(
            f"{path}: expected two columns (r rho), got {data.shape[1]}")
    return data[:, 0].copy(), data[:, 1].copy()


def tabulated_derivatives(r: np.ndarray, rho: np.ndarray,
                          label: str = "tabulated") -> DensityModel:
    """Density model from samples, differentiated through ``log rho``.

    A degree-5 spline interpolates log(rho) through every sample (no
    smoothing, so noise in the samples reaches the derivatives); rho and
    its four derivatives follow from the chain rule.  Working in log
    space keeps the model positive and tames the dynamic range of
    atomic tails.
    """

    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if r.ndim != 1 or r.shape != rho.shape:
        raise ValueError("r and rho must be matching 1-d arrays")
    finite = np.isfinite(r) & np.isfinite(rho)
    if not np.all(finite):
        i = int(np.argmin(finite))
        raise ValueError(f"sample {i} is not finite (r={r[i]}, rho={rho[i]})")
    if r.size < 12:
        raise ValueError(
            f"insufficient samples for a quintic fit: got {r.size}, "
            "need at least 12")
    if np.any(np.diff(r) <= 0.0):
        raise ValueError("radii must be strictly increasing")
    if r[0] < 0.0:
        raise ValueError(f"negative radius r={r[0]:.8g}")
    if np.any(rho < 0.0):
        bad = r[rho < 0.0][0]
        raise ValueError(f"negative density sample at r={bad:.8g}")
    if np.any(rho == 0.0):
        bad = r[rho == 0.0][0]
        raise ValueError(
            f"zero density sample at r={bad:.8g}; log-space fit needs "
            "strictly positive samples")

    from scipy.interpolate import splev, splrep

    # One knot vector and coefficient array serve all five derivatives.
    tck = splrep(r, np.log(rho), k=5, s=0)

    def profile(radius) -> np.ndarray:
        y0, y1, y2, y3, y4 = (splev(radius, tck, der=k) for k in range(5))
        value = np.exp(y0)
        # Faa di Bruno for exp(y(r)).
        return np.array([
            value,
            value * y1,
            value * (y2 + y1 * y1),
            value * (y3 + 3.0 * y1 * y2 + y1 ** 3),
            value * (y4 + 4.0 * y1 * y3 + 3.0 * y2 * y2
                     + 6.0 * y1 * y1 * y2 + y1 ** 4),
        ])

    # The interior knots, r[3:-3], inside the end knots' six copies.
    knots = tck[0][6:-6]
    # The count reads only the value spline, from the knot intervals.
    count = quad(lambda x: FOUR_PI * x * x * np.exp(splev(x, tck))[None],
                 np.r_[0.0, knots], np.r_[knots, r[-1]])[0][0]
    return DensityModel(profile=profile, electron_count=float(count),
                        label=label, r_support=float(r[-1]),
                        breakpoints=knots)
