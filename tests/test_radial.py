"""Radial quadrature, pole handling, and tabulated-density models."""

from __future__ import annotations

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, example, given, settings, strategies as st

from kedsum import atoms, hooke, kedf, profiles, radial, resum
from kedsum.radial import (
    PrincipalValueError,
    QuadratureError,
    RadialGrid,
    find_poles,
    grid_for_density,
    integrate_radial,
    load_density_table,
    principal_value_integrate,
    tabulated_derivatives,
)

FOUR_PI = 4.0 * math.pi


def _row(f):
    """A lone integrand or denominator f as a one-row stack."""
    return lambda r: np.asarray(f(r), dtype=float)[None]


def _poles(denominator, grid):
    """The poles of a lone denominator, scanned as a one-row stack."""
    return find_poles(_row(denominator), grid)[0]


def _pv(f, poles, grid):
    """The principal value of a lone integrand with its one pole list."""
    return principal_value_integrate(_row(f), [poles], grid)[0]


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def test_scan_nodes_are_strictly_increasing():
    nodes = radial._scan_nodes(30.0)
    assert nodes[0] == pytest.approx(3e-4)
    assert nodes[-1] == 30.0
    assert np.all(np.diff(nodes) > 0.0)


@pytest.mark.parametrize("r_max", [0.0, -1.0, math.nan, math.inf,
                                   -math.inf])
def test_grid_refuses_a_cutoff_that_is_not_finite_and_positive(r_max):
    # Refused where it is made: an integral on an infinite cutoff would
    # fail only later, naming r=nan.
    with pytest.raises(ValueError,
                       match=rf"finite and positive, got {r_max!r}$"):
        RadialGrid(r_max)


def test_radial_grid_keeps_its_recipe_not_its_nodes():
    # The grid is its cutoff alone; the pole scan lays its own nodes.
    grid = RadialGrid(30.0)
    assert vars(grid) == {"r_max": 30.0}
    r_min = 1e-5 * 30.0
    t = np.linspace(0.0, 1.0, 1600)
    np.testing.assert_array_equal(radial._scan_nodes(grid.r_max),
                                  r_min + (30.0 - r_min) * t ** 2.5)
    # The cutoff is the last node even where r_min + (r_max - r_min)
    # rounds off r_max.
    r_max = 12.514307
    assert r_max * 1e-5 + (r_max - r_max * 1e-5) != r_max
    assert radial._scan_nodes(r_max)[-1] == r_max


def _tail_weight(model, r):
    d = model.eval(r)
    rho = d[0]
    c = kedf.contractions(d, r)
    return FOUR_PI * r * r * (kedf.tau0(rho) + kedf.tau2(rho, c[0])
                              + abs(kedf.tau4(c, rho)))


@pytest.mark.parametrize("factory", [
    lambda: profiles.gaussian_density(1.0),
    lambda: profiles.exponential_density(1.0),
    lambda: profiles.polynomial_gaussian_density(0.5),
])
def test_tail_rule_bounds_thomas_fermi_weight(factory):
    model = factory()
    grid = grid_for_density(model)
    r_max = grid.r_max
    assert FOUR_PI * r_max ** 2 * model.rho(r_max) ** (5.0 / 3.0) < 1e-12
    # The rule itself: r_max is the first ladder radius at or below the
    # tolerance, so the one before it is still above.
    assert (_tail_weight(model, r_max) <= radial.TAIL_TOLERANCE
            < _tail_weight(model, r_max / 1.25))


def test_tail_rule_stops_at_the_support():
    # exp(-r^2) still weighs far more than the tolerance at r = 3.
    model = replace(profiles.gaussian_density(1.0), r_support=3.0)
    assert _tail_weight(model, 3.0) > radial.TAIL_TOLERANCE
    assert grid_for_density(model).r_max == 3.0


def test_tail_rule_refuses_a_density_that_does_not_decay():
    def profile(r):
        r = np.asarray(r, dtype=float)
        zero = np.zeros_like(r)
        return np.stack([np.ones_like(r), zero, zero, zero, zero])

    model = radial.DensityModel(profile=profile, electron_count=math.inf)
    with pytest.raises(ValueError, match="tail rule did not terminate"):
        grid_for_density(model)


# ---------------------------------------------------------------------------
# Plain quadrature
# ---------------------------------------------------------------------------

def test_unit_gaussian_integrates_to_one():
    norm = math.pi ** -1.5
    grid = RadialGrid(12.0)
    value = integrate_radial(lambda r: norm * np.exp(-r * r), grid)
    assert value == pytest.approx(1.0, rel=1e-10)


def test_unit_ball_volume():
    grid = RadialGrid(1.0)
    value = integrate_radial(lambda r: 1.0, grid)
    assert value == pytest.approx(4.0 * math.pi / 3.0, rel=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("n", range(7))
def test_quadrature_exact_on_polynomial_exponentials(n, alpha):
    grid = RadialGrid(60.0 / alpha)
    value = integrate_radial(lambda r: r ** n * np.exp(-alpha * r), grid)
    exact = FOUR_PI * math.factorial(n + 2) / alpha ** (n + 3)
    assert value == pytest.approx(exact, rel=1e-10)


@settings(max_examples=20)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_integrate_radial_is_linear(a, b):
    grid = RadialGrid(14.0)
    f = lambda r: np.exp(-r * r)
    g = lambda r: np.exp(-2.0 * r)
    combined = integrate_radial(lambda r: a * f(r) + b * g(r), grid)
    split = a * integrate_radial(f, grid) + b * integrate_radial(g, grid)
    assert combined == pytest.approx(split, rel=1e-9, abs=1e-12)


def test_integrate_radial_never_evaluates_the_grid_nodes():
    # Every call is a quadrature round: 21 nodes per interval.
    sizes = []

    def integrand(r):
        sizes.append(r.size)
        return np.exp(-r)

    integrate_radial(integrand, _pv_grid())
    assert sizes
    assert all(size % 21 == 0 for size in sizes)


def _nan_band(numer):
    """``_inverse_weight(numer)``, but NaN for 1.2 < r < 1.4."""
    return _inverse_weight(
        lambda r: np.where((r > 1.2) & (r < 1.4), np.nan, numer(r)))


@pytest.mark.parametrize("integral", [
    lambda: integrate_radial(_nan_band(np.exp), _pv_grid()),
    lambda: _pv(
        _nan_band(lambda r: np.exp(-r) / (r - 0.5)), [0.5], _pv_grid()),
], ids=["plain", "principal-value"])
def test_quadrature_names_a_non_finite_value(integral):
    with pytest.raises(QuadratureError,
                       match=r"not finite at r=\S+ \(got nan\)") as caught:
        integral()
    radius = float(re.search(r"r=(\S+)", str(caught.value)).group(1))
    assert 1.2 < radius < 1.4


# ---------------------------------------------------------------------------
# The Gauss-Kronrod rule
# ---------------------------------------------------------------------------

def test_kronrod_table_embeds_gauss_legendre_10():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(radial.GK21_NODES[1::2], nodes,
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(radial.GAUSS10_WEIGHTS, weights,
                               rtol=0.0, atol=1e-15)


def test_kronrod_rule_is_exact_through_degree_31():
    degree = np.arange(32)
    exact = np.where(degree % 2 == 0, 2.0 / (degree + 1), 0.0)
    values = radial.GK21_NODES[None, :] ** degree[:, None] @ \
        radial.GK21_WEIGHTS
    np.testing.assert_allclose(values, exact, rtol=0.0, atol=2e-16)


def _quadpack(f, a, b):
    """scipy's QUADPACK under radial.quad's contract, as a reference:
    one QUADPACK integral per row of the stack f and interval
    [a_i, b_i], summed over the intervals."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    value, abserr = (np.zeros(len(f(np.array([0.5 * (a[0] + b[0])]))))
                     for _ in range(2))
    neval = 0
    for row in range(value.size):
        for lo, hi in zip(a, b):
            part, error, info = scipy.integrate.quad(
                lambda r: float(f(np.array([r]))[row, 0]), lo, hi,
                epsabs=radial.QUAD_ABSTOL, epsrel=radial.QUAD_RELTOL,
                limit=radial.QUAD_LIMIT, full_output=True)[:3]
            value[row] += part
            abserr[row] += error
            neval += info["neval"]
    return value, abserr, {"neval": neval, "status": 0}


def _helium_count():
    model = atoms.density_model(atoms.bundled_basis("he"))
    return integrate_radial(model.rho, grid_for_density(model))


@pytest.mark.parametrize("integral", [
    lambda: integrate_radial(lambda r: np.exp(-r * r),
                             RadialGrid(12.0)),
    _helium_count,
    lambda: _pv(
        lambda r: np.exp(-r) / (r - 1.0) / (FOUR_PI * r * r), [1.0],
        _pv_grid()),
], ids=["gaussian", "helium", "principal-value"])
def test_quad_agrees_with_quadpack(integral, monkeypatch):
    value = integral()
    monkeypatch.setattr(radial, "quad", _quadpack)
    assert value == pytest.approx(integral(), rel=1e-12)


def test_interior_singularity_raises_with_best_estimate():
    grid = RadialGrid(1.0)
    with pytest.raises(QuadratureError) as caught:
        integrate_radial(
            lambda r: np.abs(r - 1.0 / 3.0) ** -0.9 / (FOUR_PI * r * r),
            grid)
    exact = ((1.0 / 3.0) ** 0.1 + (2.0 / 3.0) ** 0.1) / 0.1
    # One estimate and one error for the one row integrate_radial hands
    # quad.
    (estimate,), (error,) = (caught.value.best_estimate,
                             caught.value.achieved_error)
    assert math.isfinite(estimate)
    assert estimate == pytest.approx(exact, rel=0.05)
    assert error > 0.0


def test_quad_raises_with_best_estimate_at_the_interval_limit():
    # The singularity sits off every bisection point, so refinement
    # runs into QUAD_LIMIT.
    with pytest.raises(QuadratureError, match=r"status 1") as caught:
        radial.quad(_row(lambda r: np.abs(r - 1.0 / 3.0) ** -0.9), 0.0, 1.0)
    exact = ((1.0 / 3.0) ** 0.1 + (2.0 / 3.0) ** 0.1) / 0.1
    (estimate,), (error,) = (caught.value.best_estimate,
                             caught.value.achieved_error)
    assert math.isfinite(estimate)
    assert estimate == pytest.approx(exact, rel=0.05)
    assert error > 0.0


def test_quad_never_evaluates_the_endpoints():
    def integrand(r):
        if np.any(r == 0.0):
            raise ZeroDivisionError("r = 0 was evaluated")
        return np.sin(r) / r

    (value,), _, info = radial.quad(_row(integrand), 0.0, 1.0)
    assert info["status"] == 0
    assert value == pytest.approx(0.946083070367183, rel=1e-14)


def test_quad_counts_21_nodes_per_interval_in_one_call_per_round():
    exact = (math.atan(0.7 / math.sqrt(1e-3))
             + math.atan(0.3 / math.sqrt(1e-3))) / math.sqrt(1e-3)
    # One interval, and the same integral as an array of two.
    for a, b in [(0.0, 1.0), ([0.0, 0.5], [0.5, 1.0])]:
        sizes = []

        def integrand(r):
            sizes.append(r.size)
            return 1.0 / (1e-3 + (r - 0.3) ** 2)

        (value,), (abserr,), info = radial.quad(_row(integrand), a, b)
        assert value == pytest.approx(exact, rel=1e-10)
        assert abserr <= radial.QUAD_RELTOL * abs(value)
        # One call per round: the starting intervals, then both halves
        # of every interval the round bisects.
        assert len(sizes) > 2
        assert sizes[0] == 21 * np.size(a)
        assert all(size % 42 == 0 for size in sizes[1:])
        assert info["neval"] == sum(sizes)


def test_quad_limit_counts_only_the_intervals_bisection_adds():
    # 1,000 starting intervals, more than QUAD_LIMIT, and a peak of
    # width 1e-4 that the interval holding it must be bisected for.
    edges = np.linspace(0.0, 1.0, 1001)
    eps = 1e-4
    (value,), _, info = radial.quad(
        _row(lambda r: 1.0 / (eps * eps + (r - 0.3) ** 2)),
        edges[:-1], edges[1:])
    exact = (math.atan(0.7 / eps) + math.atan(0.3 / eps)) / eps
    assert info["status"] == 0
    assert info["neval"] > 21 * 1000
    assert value == pytest.approx(exact, rel=1e-10)


def _peaked(r):
    return 1.0 / (1e-3 + (r - 0.3) ** 2)


def test_one_row_stack_takes_the_scalar_steps():
    # A row of a stack gets from the rule the bits it gets as a one-row
    # stack, across several calls of f (76 intervals a call).
    edges = np.linspace(0.0, 1.0, 200)
    rows = [_peaked, np.sin, lambda r: np.exp(-r)]
    together = radial._gk21(lambda r: np.array([g(r) for g in rows]),
                            edges[:-1], edges[1:])
    for i, g in enumerate(rows):
        alone = radial._gk21(_row(g), edges[:-1], edges[1:])
        for part, lone in zip(together, alone):
            assert part.shape == (len(rows), edges.size - 1)
            np.testing.assert_array_equal(part[i], lone[0])
    # integrate_radial is quad on the weighted one-row stack, bit for bit.
    grid = RadialGrid(1.0)
    value = integrate_radial(_peaked, grid)
    assert type(value) is float
    stacked = radial.quad(_row(lambda r: FOUR_PI * r * r * _peaked(r)),
                          0.0, grid.r_max)[0]
    assert stacked.shape == (1,)
    assert value.hex() == stacked[0].hex()


def test_stacked_rows_meet_their_own_tolerances():
    # Moments r^n e^(-a r) scaled 1e8 apart: the small rows converge to
    # their own relative tolerance, not to the largest row's.
    moments = [(2, 1.0, 1e4), (6, 3.0, 1e-4), (1, 0.5, 1.0)]

    def stack(r):
        return np.array([scale * r ** n * np.exp(-a * r)
                         for n, a, scale in moments])

    value, abserr, info = radial.quad(stack, 0.0, 120.0)
    assert info["status"] == 0
    exact = [scale * math.factorial(n) / a ** (n + 1)
             for n, a, scale in moments]
    for v, e, want in zip(value, abserr, exact):
        assert abs(v - want) <= radial.QUAD_RELTOL * want
        assert e <= radial.QUAD_RELTOL * abs(v)


def test_stacked_quad_names_the_row_and_smallest_bad_radius():
    def stack(r):
        bad = np.where((r > 1.2) & (r < 1.4), np.nan, np.exp(-r))
        return np.array([np.exp(-r), bad])

    with pytest.raises(QuadratureError,
                       match=r"^integrand row 1 is not finite at r=\S+ "
                             r"\(got nan\)$") as caught:
        radial.quad(stack, 0.0, _pv_grid().r_max)
    radius = float(re.search(r"r=(\S+)", str(caught.value)).group(1))
    assert 1.2 < radius < 1.4
    # A one-row stack's message names no row.
    with pytest.raises(QuadratureError,
                       match=r"^integrand is not finite at r=") as caught:
        integrate_radial(lambda r: stack(r)[1], _pv_grid())
    assert float(re.search(r"r=(\S+)", str(caught.value)).group(1)) == \
        radius


@example(count=400, rows=3, row=2, seed=0, start=1.5, width=0.1)
@given(st.integers(77, 400), st.integers(2, 3), st.integers(0, 2),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.9),
       st.floats(0.05, 0.5))
def test_quad_names_the_smallest_bad_radius_of_every_run(
        count, rows, row, seed, start, width):
    # 77 or more intervals take two or more calls of f a round, 76
    # intervals a call, and in shuffled order the smallest NaN radius
    # can fall in any of them.  The refusal comes after the last call
    # and names the smallest NaN radius that any call read.
    row %= rows
    edges = np.linspace(0.0, 2.0, count + 1)
    order = np.random.default_rng(seed).permutation(count)
    called = []

    def stack(r):
        called.append(r)
        values = np.array([np.exp(-k * r) for k in range(1, rows + 1)])
        values[row, (r > start) & (r < start + width)] = np.nan
        return values

    with pytest.raises(QuadratureError) as caught:
        radial.quad(stack, edges[:-1][order], edges[1:][order])
    per_call = radial.QUAD_CALL_RADII // 21
    assert len(called) == math.ceil(count / per_call) >= 2
    radii = np.concatenate(called)
    smallest = radii[(radii > start) & (radii < start + width)].min()
    assert str(caught.value) == (f"integrand row {row} is not finite at "
                                 f"r={smallest:.12g} (got nan)")


# ---------------------------------------------------------------------------
# Pole location
# ---------------------------------------------------------------------------

def test_find_poles_single_root():
    grid = RadialGrid(2.0)
    assert _poles(lambda r: r - 1.0, grid) == pytest.approx([1.0])


def test_find_poles_no_real_root():
    grid = RadialGrid(2.0)
    assert _poles(lambda r: r * r + 1.0, grid) == []


def test_find_poles_two_roots():
    grid = RadialGrid(2.0)
    roots = _poles(lambda r: (r - 0.5) * (r - 1.5), grid)
    assert roots == pytest.approx([0.5, 1.5])


def test_find_poles_rejects_non_finite_denominator():
    grid = RadialGrid(2.0)
    with pytest.raises(ValueError):
        _poles(lambda r: np.where(r > 1.0, math.inf, 1.0), grid)


def _nan_beside_one(r):
    """r - 1, but NaN within 1e-6 of its root, between the scan nodes."""
    return np.where(np.abs(r - 1.0) < 1e-6, np.nan, r - 1.0)


@pytest.mark.parametrize("denominator", [
    _row(_nan_beside_one),
    lambda r: np.stack((r - 2.5, _nan_beside_one(r))),
], ids=["alone", "stacked"])
def test_find_poles_refuses_a_step_that_reads_a_non_finite_value(
        denominator):
    # Every scan node is finite; a narrowing step reads the NaN, which
    # must be refused as the scan refuses one, not returned as a pole.
    with pytest.raises(ValueError,
                       match=r"^denominator is not finite at r=\S+$") \
            as caught:
        find_poles(denominator, RadialGrid(4.0))
    radius = float(str(caught.value).rsplit("=", 1)[1])
    assert abs(radius - 1.0) < 1e-6


def _recording(denominator):
    """denominator, plus the list of radii arrays it was called on."""
    calls = []

    def recorded(r):
        calls.append(np.array(r, dtype=float, ndmin=1))
        return denominator(r)

    return recorded, calls


def test_find_poles_steps_every_bracket_in_one_call_per_step():
    grid = RadialGrid(2.0)
    denominator, calls = _recording(lambda r: np.cos(8.0 * np.pi * r))
    poles = _poles(denominator, grid)
    roots = (2.0 * np.arange(16) + 1.0) / 16.0
    assert len(poles) == 16
    np.testing.assert_allclose(poles, roots, rtol=0.0,
                               atol=1e-12 * grid.r_max)
    assert calls[1].size == 16
    # The scan and at most nine Illinois steps; bisecting the widest
    # bracket down to 1e-12 * r_max takes 31.
    assert len(calls) <= 10


def test_find_poles_bisects_a_bracket_that_stops_halving():
    # exp(1e6 (r - 1)) - 1 spans e^300 across its bracket: each Illinois
    # halving moves the far end too little, so the bisection steps do
    # the narrowing.  Without them this takes more than 500 steps.
    grid = RadialGrid(2.0)
    denominator, calls = _recording(
        lambda r: np.expm1(np.minimum(1e6 * (r - 1.0), 300.0)))
    assert _poles(denominator, grid) == pytest.approx(
        [1.0], rel=0.0, abs=1e-12 * grid.r_max)
    # The bracket is under 2^30 stopping widths wide and halves at least
    # every four steps.
    assert len(calls) <= 1 + 4 * 30


def test_find_poles_closes_an_exact_zero_while_others_bisect():
    # Linear below r = 1.84.  The scan nodes a < 1 < b either side of
    # the root at 1.0 lie within a factor of two of it, so a - 1, b - 1
    # and b - a are exact, and the first falsi point of [a, b] is the
    # root itself; the root at 2.3 is not reached in one step.
    grid = RadialGrid(4.0)
    nodes = radial._scan_nodes(grid.r_max)
    a, b = nodes[np.searchsorted(nodes, 1.0) - 1:][:2]
    assert 0.5 < a < 1.0 < b < 2.0
    denominator, calls = _recording(
        lambda r: np.minimum(r - 1.0, (2.3 - r) * r))
    poles = _poles(denominator, grid)
    assert poles[0] == 1.0
    assert poles[1] == pytest.approx(2.3, abs=1e-12 * grid.r_max)
    # One scan, then one step on both brackets (1.0 is an exact zero),
    # then only the bracket around 2.3.
    assert calls[1].size == 2 and calls[1][0] == 1.0
    assert len(calls) > 2
    assert all(c.size == 1 for c in calls[2:])


def test_find_poles_secant_finish_reaches_the_float_limit():
    # The steps stop at a 1e-12 * r_max bracket; the secant step through
    # its end values lands on the root itself.
    grid = RadialGrid(2.0)
    poles = _poles(lambda r: np.cos(8.0 * np.pi * r), grid)
    roots = (2.0 * np.arange(16) + 1.0) / 16.0
    np.testing.assert_allclose(poles, roots, rtol=1e-14, atol=0.0)


@given(st.lists(st.floats(0.05, 1.95, exclude_min=True, exclude_max=True),
                min_size=1, max_size=5, unique=True))
def test_find_poles_finds_every_simple_root(roots):
    roots = np.sort(roots)
    assume(np.all(np.diff(roots) >= 0.05))
    grid = RadialGrid(2.0)
    poles = _poles(
        lambda r: np.prod(np.subtract.outer(r, roots), axis=-1), grid)
    assert len(poles) == roots.size
    np.testing.assert_allclose(poles, roots, rtol=0.0,
                               atol=1e-12 * grid.r_max)


@given(st.lists(st.lists(st.floats(0.05, 1.95), max_size=4),
                min_size=2, max_size=4),
       st.floats(-3.0, 3.0))
def test_stacked_find_poles_matches_each_row_alone(rows, tilt):
    grid = RadialGrid(2.0)
    roots = [np.array(row) for row in rows]

    def row_denominator(i):
        # A tilted product, so rows step by regula falsi, not bisection.
        return lambda r: (np.exp(tilt * r)
                          * np.prod(np.subtract.outer(r, roots[i]),
                                    axis=-1))

    stacked, stacked_calls = _recording(
        lambda r: np.array([row_denominator(i)(r)
                            for i in range(len(roots))]))
    together = find_poles(stacked, grid)
    assert len(together) == len(roots)
    steps = []
    for i, poles in enumerate(together):
        denominator, calls = _recording(row_denominator(i))
        alone = _poles(denominator, grid)
        assert [p.hex() for p in poles] == [p.hex() for p in alone]
        steps.append(len(calls))
    # One call per step for every row's open brackets.
    assert len(stacked_calls) == max(steps)


# ---------------------------------------------------------------------------
# Principal value
# ---------------------------------------------------------------------------

def _pv_grid():
    return RadialGrid(2.0)


def _inverse_weight(numer):
    """Integrand f such that 4 pi r^2 f(r) equals ``numer``."""
    return lambda r: numer(r) / (FOUR_PI * r * r)


def test_pv_of_antisymmetric_pole_is_zero():
    value = _pv(
        _inverse_weight(lambda r: 1.0 / (r - 1.0)), [1.0], _pv_grid())
    assert abs(value) < 1e-8


def test_pv_with_regular_part():
    value = _pv(
        _inverse_weight(lambda r: r / (r - 1.0)), [1.0], _pv_grid())
    assert value == pytest.approx(2.0, abs=1e-8)


def _exponential_over(poles):
    """f with 4 pi r^2 f = e^-r / prod_k (r - r_k)."""
    return _inverse_weight(lambda r: np.exp(-r) / np.prod(
        np.subtract.outer(r, poles), axis=-1))


def _pv_exponential(poles, r_max):
    """PV int_0^r_max e^-r / prod_k (r - r_k) dr, by partial fractions:
    the sum over k of e^-r_k (Ei(r_k - r_max) - Ei(r_k)) / prod_{j != k}
    (r_k - r_j)."""
    from scipy.special import expi

    return sum(math.exp(-rk) * (expi(rk - r_max) - expi(rk))
               / math.prod(rk - rj for rj in poles if rj != rk)
               for rk in poles)


def test_pv_at_located_pole_matches_exponential_integral():
    # PV int_0^2 e^-r / (r - r0) dr = e^-r0 (Ei(r0 - 2) - Ei(r0)), with
    # the pole found from a denominator that is not linear in r.  The
    # mirrored windows are first-order in the pole offset, so this only
    # holds once the pole itself is exact.
    r0 = 1.0 / math.sqrt(2.0)
    grid = _pv_grid()
    poles = _poles(lambda r: np.exp(3.0 * r) - math.exp(3.0 * r0), grid)
    assert len(poles) == 1
    value = _pv(
        _inverse_weight(lambda r: np.exp(-r) / (r - r0)), poles, grid)
    assert value == pytest.approx(_pv_exponential([r0], grid.r_max),
                                  rel=1e-9)


@pytest.mark.parametrize("poles", [
    [0.5, 0.9],       # 0.5 is a power of two: its window spans two binades
    [0.3, 1.2],
    [0.5, 0.9, 1.6],
    [0.7, 0.75, 1.9],  # windows set by the half-gap, not 5% of r
])
def test_pv_across_several_poles_matches_partial_fractions(poles):
    # Each pole's tail is added back as a logarithm over the plain
    # segments only: the windows integrate the other poles' tails
    # themselves, so ln((r_max - r_k) / r_k) over the whole domain would
    # count them twice.
    grid = _pv_grid()
    value = _pv(_exponential_over(poles), poles, grid)
    exact = _pv_exponential(poles, grid.r_max)
    assert value == pytest.approx(exact, rel=1e-11)


_PARTIAL_FRACTION_POLES = [[1.0 / math.sqrt(2.0)], [0.5, 0.9], [0.3, 1.2],
                           [0.5, 0.9, 1.6], [0.7, 0.75, 1.9]]


def test_stacked_principal_values_match_each_row_alone():
    # Every partial-fraction case above beside a pole-free row, each
    # with its own pole list, in one call: one batch of windows and one
    # interval list cut at every row's windows.
    grid = _pv_grid()
    rows = _PARTIAL_FRACTION_POLES + [[]]
    integrands = [_exponential_over(poles) for poles in rows]
    values = principal_value_integrate(
        lambda r: np.array([f(r) for f in integrands]), rows, grid)
    assert values.shape == (len(rows),)
    for value, poles, f in zip(values, rows, integrands):
        # A one-row stack's list is cut at its own windows only, so it
        # agrees to rounding, not to the bit.
        alone = _pv(f, poles, grid)
        assert value == pytest.approx(alone, rel=1e-13, abs=0.0)
        if poles:
            exact = _pv_exponential(poles, grid.r_max)
            # The tolerances of the one-row tests above.
            tolerance = 1e-9 if len(poles) == 1 else 1e-11
        else:
            exact, tolerance = 1.0 - math.exp(-grid.r_max), 1e-12
        assert value == pytest.approx(exact, rel=tolerance, abs=0.0)


def test_a_stacked_row_is_never_evaluated_at_its_own_pole():
    # The pole-free row needs the window interval [0.95, 1.05], whose
    # Gauss-Kronrod centre is the pole; the stack must not read the
    # pole row there, as a Pade row raises PadePole at its pole.
    grid, pole = _pv_grid(), 1.0
    delta = radial._pole_windows(np.array([pole]), grid.r_max)[0]
    assert 0.5 * ((pole - delta) + (pole + delta)) == pole

    def stack(r):
        if np.any(r == pole):
            raise ZeroDivisionError(f"evaluated at the pole r={pole}")
        return np.array([_exponential_over([pole])(r),
                         _inverse_weight(np.exp)(r)])

    value, plain = principal_value_integrate(stack, [[pole], []], grid)
    assert value == pytest.approx(_pv_exponential([pole], grid.r_max),
                                  rel=1e-9, abs=0.0)
    assert plain == pytest.approx(math.expm1(grid.r_max), rel=1e-12)


def _pole_and_plain(r):
    """Two rows: e^-r / (r - 0.7) and e^r, both over 4 pi r^2."""
    return np.array([_exponential_over([0.7])(r),
                     _inverse_weight(np.exp)(r)])


@pytest.mark.parametrize("poles,message", [
    ([[0.7]], "integrand returned 2 rows for 1 pole lists; give one per row"),
    ([[]], "integrand returned 2 rows for 1 pole lists; give one per row"),
    ([[0.7], [], []],
     "integrand returned 2 rows for 3 pole lists; give one per row"),
    ([], "poles holds no pole list; give one per row of f"),
], ids=["fewer-with-poles", "fewer", "more", "none"])
def test_pv_refuses_a_stack_whose_rows_do_not_match_its_pole_lists(
        poles, message):
    # One list too few would drop the last row's value without a word,
    # and one too many would read a row that is not there.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        principal_value_integrate(_pole_and_plain, poles, _pv_grid())


def test_only_a_stack_is_integrated_or_scanned():
    # A lone integrand goes through integrate_radial, or as a one-row
    # stack; no other entry point takes one, and integrate_radial takes
    # no stack.  Each misuse is refused with the shape it was given.
    grid = _pv_grid()

    def stacked_on_the_scan_only(r):
        return (r - 1.0)[None] if r.size == 1600 else r - 1.0

    for misuse, message in [
            (lambda: radial.quad(np.exp, 0.0, 1.0),
             "expected an (m, 21) stack, got (21,)"),
            (lambda: find_poles(lambda r: r - 1.0, grid),
             "expected an (m, 1600) stack, got (1600,)"),
            (lambda: find_poles(stacked_on_the_scan_only, grid),
             "expected an (m, 1) stack, got (1,)"),
            # No pole: the plain segment; a pole: its window radii first.
            (lambda: principal_value_integrate(np.exp, [[]], grid),
             "expected an (m, 21) stack, got (21,)"),
            (lambda: principal_value_integrate(np.exp, [[1.0]], grid),
             "expected an (m, 138) stack, got (138,)"),
            (lambda: principal_value_integrate(_pole_and_plain, [0.7, 1.5],
                                               grid),
             "poles [0.7, 1.5] is not one 1-d list per row of f"),
            (lambda: integrate_radial(_pole_and_plain, grid),
             "expected an (m, 21) stack, got (1, 2, 21)")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            misuse()


@pytest.mark.parametrize("centre", ["node", "midpoint"])
def test_pole_pair_at_the_separation_floor_is_found_or_refused(centre):
    # Two roots 1.001 times the closest separation the windows allow.
    # Straddling a node, both are found; inside one bracket, neither is.
    # Either way the integral is right or fails loudly, never quietly
    # wrong.
    grid = _pv_grid()
    nodes = radial._scan_nodes(grid.r_max)
    k = 934
    middle = {"node": nodes[k],
              "midpoint": 0.5 * (nodes[k] + nodes[k + 1])}[centre]
    half_gap = 1.001 * radial.PV_SEPARATION_FLOOR * grid.r_max
    pair = [middle - half_gap, middle + half_gap]

    def denominator(r):
        return (r - pair[0]) * (r - pair[1])

    poles = _poles(denominator, grid)
    if centre == "node":
        np.testing.assert_allclose(poles, pair, rtol=0.0,
                                   atol=1e-12 * grid.r_max)
    else:
        assert poles == []
    try:
        value = _pv(
            _inverse_weight(lambda r: np.exp(-r) / denominator(r)), poles,
            grid)
    except (PrincipalValueError, QuadratureError):
        return
    assert value == pytest.approx(_pv_exponential(pair, grid.r_max),
                                  rel=1e-8)


def _close_pair(node, half_gap):
    """A pole pair ``half_gap`` separation floors either side of a scan
    node of ``_pv_grid``, and the integrand e^-r / ((r - a)(r - b))."""
    grid = _pv_grid()
    offset = half_gap * radial.PV_SEPARATION_FLOOR * grid.r_max
    centre = radial._scan_nodes(grid.r_max)[node]
    pair = [centre - offset, centre + offset]
    return grid, pair, _inverse_weight(
        lambda r: np.exp(-r) / ((r - pair[0]) * (r - pair[1])))


def test_close_pole_pair_whose_windows_cancel_is_refused():
    # At 10 floors, around r = 1.27, the windows sum to 1.16e6 |T| in
    # magnitude; their rounding left T 1.1e-6 off without an error.
    grid, pair, f = _close_pair(1334, 10)
    with pytest.raises(PrincipalValueError, match="cancel"):
        _pv(f, pair, grid)


def test_close_pole_pair_below_the_cancellation_limit_is_integrated(
        monkeypatch):
    # At 1,000 floors, around r = 0.063, the windows sum to 287 |T|.
    grid, pair, f = _close_pair(400, 1000)
    magnitudes = []
    window_integrals = radial._window_integrals

    def spy(*args):
        windows, residues = window_integrals(*args)
        magnitudes.append(float(np.sum(np.abs(windows))))
        return windows, residues

    monkeypatch.setattr(radial, "_window_integrals", spy)
    value = _pv(f, pair, grid)
    exact = _pv_exponential(pair, grid.r_max)
    assert magnitudes[0] < 300.0 * abs(exact)
    assert value == pytest.approx(exact, rel=1e-11)


def test_pv_without_poles_equals_plain_quadrature():
    model = profiles.gaussian_density(1.0)
    grid = grid_for_density(model)
    plain = integrate_radial(model.rho, grid)
    pv = _pv(model.rho, [], grid)
    assert pv == pytest.approx(plain, rel=1e-10)


def test_pv_rejects_pole_outside_domain():
    with pytest.raises(PrincipalValueError):
        _pv(
            _inverse_weight(lambda r: 1.0 / (r - 3.0)), [3.0], _pv_grid())


def test_pv_rejects_overlapping_poles():
    with pytest.raises(PrincipalValueError):
        _pv(
            _inverse_weight(lambda r: 1.0), [1.0, 1.0 + 1e-9], _pv_grid())


def test_pv_rejects_non_simple_pole():
    # A cubic pole still changes sign (so it would be located like a
    # simple one), but the residue ladder diverges and must refuse it.
    with pytest.raises(PrincipalValueError):
        _pv(
            _inverse_weight(lambda r: 1.0 / (r - 1.0) ** 3), [1.0],
            _pv_grid())


def test_pv_names_the_pole_that_is_not_simple():
    with pytest.raises(PrincipalValueError, match=r"r=1\.5 "):
        _pv(
            _inverse_weight(
                lambda r: 1.0 / ((r - 0.5) * (r - 1.5) ** 3)),
            [0.5, 1.5], _pv_grid())


def test_pv_names_a_non_finite_window_value():
    # NaN only inside the window: the plain segments never see it.
    def numer(r):
        return np.where(np.abs(r - 1.0) < 0.01, np.nan, 1.0 / (r - 1.0))

    with pytest.raises(QuadratureError,
                       match=r"not finite at r=0\.99\d* in the window of "
                             r"the pole at r=1 "):
        _pv(_inverse_weight(numer), [1.0], _pv_grid())


def test_pv_handles_two_separated_poles(monkeypatch):
    # 4 pi r^2 f = (r - 1)/((r - 0.5)(r - 1.5)): PV over [0, 2] is 0 by
    # the symmetry r -> 2 - r.
    def numer(r):
        return (r - 1.0) / ((r - 0.5) * (r - 1.5))

    # All three plain segments are one interval list: one quad call.
    calls = []
    quad = radial.quad
    monkeypatch.setattr(radial, "quad",
                        lambda *args: calls.append(args) or quad(*args))
    value = _pv(
        _inverse_weight(numer), [0.5, 1.5], _pv_grid())
    assert abs(value) < 1e-8
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Tabulated densities
# ---------------------------------------------------------------------------

def test_tabulated_exponential_first_derivative():
    r = np.linspace(0.0, 12.0, 200)
    model = tabulated_derivatives(r, np.exp(-2.0 * r))
    assert model.eval(1.0)[1] == pytest.approx(-2.0 * math.exp(-2.0),
                                               abs=1e-5)


def test_tabulated_gaussian_fourth_derivative_at_origin():
    r = np.linspace(0.0, 6.0, 200)
    model = tabulated_derivatives(r, np.exp(-r * r))
    assert model.eval(0.0)[4] == pytest.approx(12.0, rel=1e-3)


def test_tabulated_requires_enough_samples():
    r = np.linspace(0.1, 0.5, 5)
    with pytest.raises(ValueError, match="insufficient samples"):
        tabulated_derivatives(r, np.exp(-r))


def test_tabulated_rejects_bad_samples():
    r = np.linspace(0.1, 2.0, 30)
    with pytest.raises(ValueError):
        tabulated_derivatives(r, np.where(r > 1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        tabulated_derivatives(r[::-1], np.exp(-r))
    with pytest.raises(ValueError):
        tabulated_derivatives(r, np.zeros_like(r))
    with pytest.raises(ValueError, match="negative radius"):
        tabulated_derivatives(r - 0.5, np.exp(-r))


@pytest.mark.parametrize("column,index,value", [
    ("rho", 20, math.nan), ("rho", 20, math.inf),
    ("r", 0, math.nan), ("r", -1, math.inf),
])
def test_tabulated_rejects_a_non_finite_sample(column, index, value):
    r = np.linspace(0.05, 12.0, 60)
    samples = {"r": r, "rho": np.exp(-2.0 * r)}
    samples[column][index] = value
    with pytest.raises(ValueError,
                       match=rf"^sample {index % r.size} is not finite "):
        tabulated_derivatives(samples["r"], samples["rho"])


@pytest.mark.parametrize("factory,rmax", [
    (lambda: profiles.gaussian_density(1.0), 8.0),
    (lambda: profiles.exponential_density(1.0), 18.0),
    (lambda: profiles.polynomial_gaussian_density(1.0), 8.0),
])
def test_spline_fidelity_inner_eighty_percent(factory, rmax):
    """Sampled-density derivatives track the analytic ones to 1e-3.

    Measured in sup norm per derivative order (pointwise relative error
    is ill-posed wherever a derivative crosses zero).
    """

    model = factory()
    r = np.linspace(rmax / 400, rmax, 400)
    tab = tabulated_derivatives(r, np.array([model.rho(float(x))
                                             for x in r]))
    n = r.size
    inner = r[n // 10: n - n // 10]
    for k in (1, 2, 3, 4):
        err = 0.0
        mag = 0.0
        for x in inner[::3]:
            approx = tab.eval(float(x))[k]
            exact = model.eval(float(x))[k]
            err = max(err, abs(approx - exact))
            mag = max(mag, abs(exact))
        assert err <= 1e-3 * mag


def test_tabulated_model_integrates_like_its_source():
    model = profiles.exponential_density(2.0)
    r = np.linspace(1e-3, 15.0, 500)
    tab = tabulated_derivatives(r, np.array([model.rho(float(x))
                                             for x in r]))
    grid = RadialGrid(15.0)
    count = integrate_radial(tab.rho, grid)
    assert count == pytest.approx(model.electron_count, rel=1e-6)


def _sampled_atom(key="ne", seed=1, count=400, skip=0):
    """A bundled atom's density at ``count`` log-spaced radii on
    [1e-4, 80], every interior radius moved by up to 0.4 log-steps
    either way by a generator seeded with ``seed``, after the draws of
    ``skip`` tables before it."""
    rng = np.random.default_rng(seed)
    u = np.linspace(math.log(1e-4), math.log(80.0), count)
    jitter = rng.uniform(-1.0, 1.0, (skip + 1, count - 2))[-1]
    u[1:-1] += 0.4 * (u[1] - u[0]) * jitter
    r = np.exp(u)
    return r, atoms.density_model(atoms.bundled_basis(key)).rho(r)


def test_tabulated_profile_is_bit_invariant_to_batching():
    # The spline takes whole arrays.  The interior knots of an
    # interpolating quintic are the samples r[3:-3]; radii one ulp
    # either side of some of them join the pole scan's nodes.
    r, rho = _sampled_atom()
    model = tabulated_derivatives(r, rho)
    knots = r[3:-3:8]
    sides = np.concatenate((np.nextafter(knots, 0.0),
                            np.nextafter(knots, np.inf)))
    nodes = radial._scan_nodes(grid_for_density(model).r_max)
    radii = np.sort(np.concatenate((sides, nodes[sides.size:])))
    assert radii.size == 1600
    batch = model.eval(radii)
    single = np.array([model.profile(float(x)) for x in radii]).T
    np.testing.assert_array_equal(single, batch)


def test_tabulated_breakpoints_are_a_view_of_the_spline_knots():
    r, rho = _sampled_atom()
    model = tabulated_derivatives(r, rho)
    assert not model.breakpoints.flags.owndata
    np.testing.assert_array_equal(model.breakpoints, r[3:-3])
    assert atoms.density_model(atoms.bundled_basis("ne")).breakpoints == ()


def test_a_long_table_starts_its_quadrature_at_every_knot():
    # About 940 knot intervals lie below r_max, more than QUAD_LIMIT,
    # and the quadrature starts from all of them.
    r, rho = _sampled_atom("he", count=1000)
    model = tabulated_derivatives(r, rho)
    grid = grid_for_density(model)
    assert np.count_nonzero(model.breakpoints < grid.r_max) > \
        radial.QUAD_LIMIT
    reports = resum.run_methods(model, resum.ALL_METHODS, grid)
    analytic = atoms.density_model(atoms.bundled_basis("he"))
    t0 = resum.run_methods(analytic, [resum.ResumMethod.T0],
                           grid_for_density(analytic))[0].T
    assert reports[0].T == pytest.approx(t0, rel=1e-8)


def _knot_split(f, knots, r_max, order):
    """Fixed composite Gauss-Legendre of 4 pi r^2 f on every piece of
    [0, r_max] between ``knots``."""
    edges = np.concatenate(([0.0], knots[knots < r_max], [r_max]))
    x, w = np.polynomial.legendre.leggauss(order)
    centre, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    r = (centre[:, None] + half[:, None] * x).ravel()
    g = (FOUR_PI * r * r * f(r)).reshape(half.size, order)
    return float(np.sum((g @ w) * half))


def _t024(model):
    """tau0 + tau2 + tau4 of ``model``, on an array of radii."""
    def f(r):
        p = kedf.tau_point(model.eval(r), r)
        return p[0] + p[1] + p[2]
    return f


def test_a_tabulated_row_meets_the_tolerance_across_the_knots():
    # Started from one interval, the three partial sums' shared list
    # left seed 1 Be's T0+T2+T4 4.1e-10 off: the Gauss-Kronrod estimate
    # under-reads where the spline's fourth derivative kinks.
    r, rho = _sampled_atom("be", seed=1)
    model = tabulated_derivatives(r, rho)
    grid = grid_for_density(model)
    # An interpolating quintic's interior knots are the samples r[3:-3].
    reference = _knot_split(_t024(model), r[3:-3], grid.r_max, 30)
    assert _knot_split(_t024(model), r[3:-3], grid.r_max, 20) == \
        pytest.approx(reference, rel=1e-13, abs=0.0)
    reports = resum.run_methods(model, resum.ALL_METHODS, grid)
    assert reports[2].method is resum.ResumMethod.T024
    assert reports[2].T == pytest.approx(reference, rel=1e-10, abs=0.0)


def test_a_tabulated_count_integrates_its_spline_across_the_knots():
    # Be as one generator seeded 5 samples it after He.  Integrated
    # from one interval, its count missed its spline's own integral by
    # 7.5e-10 relative.
    r, rho = _sampled_atom("be", seed=5, skip=1)
    model = tabulated_derivatives(r, rho)
    reference = _knot_split(model.rho, r[3:-3], r[-1], 30)
    assert _knot_split(model.rho, r[3:-3], r[-1], 20) == pytest.approx(
        reference, rel=1e-14, abs=0.0)
    assert model.electron_count == pytest.approx(reference, rel=1e-12,
                                                 abs=0.0)


def _eval_peak_bytes(model) -> int:
    """Peak traced memory of one ``model.eval`` on the model's grid."""
    nodes = radial._scan_nodes(grid_for_density(model).r_max)
    tracemalloc.start()
    try:
        model.eval(nodes)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_atom_kernel_is_evaluated_in_blocks():
    # Unblocked, 1,600 Ar radii peak at about 4.1 MB of temporaries.
    model = atoms.density_model(atoms.bundled_basis("ar"))
    assert _eval_peak_bytes(model) < 6e5


def test_hooke_kernel_is_evaluated_in_blocks(hooke_solution):
    # The table is read by Clenshaw's recurrence on (5, n) arrays.
    assert _eval_peak_bytes(hooke_solution(0.25).density) < 2e6


def test_hooke_near_origin_series_keeps_one_jet_accumulator(
        hooke_solution):
    # jets.polynomial sums the 35-term series by Horner's rule on one
    # (5, n) array: one evaluation on the omega = 1/4 grid peaks at
    # about 0.35 MB, against 0.92 MB with every (n, 5, 35) term formed.
    assert _eval_peak_bytes(hooke_solution(0.25).density) < 5e5


def test_convergence_run_hooke_kernel_is_evaluated_in_blocks():
    # 144 panels double the nodes of the sum the table is built from,
    # and leave the table, and what reading it costs, as they were.
    solution = hooke.solve_general(hooke.HookeParams(omega=0.25),
                                   quad_panels=144)
    assert _eval_peak_bytes(solution.density) < 2e6


@pytest.mark.parametrize("size", [21, 22, 23, 47])
def test_hooke_kernel_blocks_are_bit_invariant(hooke_solution, size):
    # Radii either side of the series switch (0.85 bohr) and across
    # the table's panels: a batch of any size gives each radius the
    # jet it gets alone.
    model = hooke_solution(0.25).density
    radii = np.geomspace(0.5, 12.0, size)
    assert radii[-1] < model.r_support
    batch = model.profile(radii)
    single = np.array([model.profile(float(r)) for r in radii]).T
    np.testing.assert_array_equal(single, batch)


def test_kept_hooke_solutions_stay_small():
    # A kept solution holds the density's series and its (16, 5, 11)
    # Chebyshev table at omega = 1/4: about 10 KB in all, the size of
    # the panel-sum weights the table replaced.
    hooke.solve_general(hooke.HookeParams(omega=0.25))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [hooke.solve_general(hooke.HookeParams(omega=0.25))
                for _ in range(20)]
        held = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert held < 1.1e4


# ---------------------------------------------------------------------------
# Density table files
# ---------------------------------------------------------------------------

def test_load_density_table_two_column(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("# r rho\n0.1 1.0\n0.2 0.9\n0.3 0.7\n")
    r, rho = load_density_table(path)
    assert r.tolist() == [0.1, 0.2, 0.3]
    assert rho.tolist() == [1.0, 0.9, 0.7]
    # np.savetxt writes scientific notation, whose 'e' is no header.
    sci = tmp_path / "sci.dat"
    np.savetxt(sci, np.c_[[1e-4, 0.5], [3.59, 2.0]])
    r, rho = load_density_table(sci)
    assert r.tolist() == [1e-4, 0.5]
    assert rho.tolist() == [3.59, 2.0]


def test_load_density_table_csv_header(tmp_path):
    path = tmp_path / "dump.csv"
    path.write_text("r,rho,tau0\n0.1,1.0,2.87\n0.2,0.9,2.4\n")
    r, rho = load_density_table(path)
    assert r.tolist() == [0.1, 0.2]
    assert rho.tolist() == [1.0, 0.9]
    commented = tmp_path / "commented.csv"
    commented.write_text("# made by hand\nr,rho\n0.1,2.0\n0.2,1.5\n")
    r, rho = load_density_table(commented)
    assert r.tolist() == [0.1, 0.2]
    assert rho.tolist() == [2.0, 1.5]
    spaced = tmp_path / "spaced.txt"
    spaced.write_text("r rho\n0.1 1.0\n0.2 0.9\n")
    r, rho = load_density_table(spaced)
    assert r.tolist() == [0.1, 0.2]
    assert rho.tolist() == [1.0, 0.9]


def test_load_density_table_bad_inputs(tmp_path):
    headerless = tmp_path / "bad.csv"
    headerless.write_text("x,y\n0.1,1.0\n")
    with pytest.raises(ValueError, match="header"):
        load_density_table(headerless)
    threecol = tmp_path / "wide.txt"
    threecol.write_text("0.1 1.0 9\n0.2 0.9 9\n")
    with pytest.raises(ValueError, match="two columns"):
        load_density_table(threecol)
    for name, text in [("empty.txt", ""),
                       ("comments.txt", "# r rho\n\n# nothing yet\n"),
                       ("header.csv", "# dump\nr,rho,tau0\n# end\n")]:
        empty = tmp_path / name
        empty.write_text(text)
        with pytest.raises(ValueError, match="no samples"):
            load_density_table(empty)
