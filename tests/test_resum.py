"""Resummation algebra, method dispatch, and pole-aware integration."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kedsum import kedf, radial, resum
from kedsum.resum import PadePole, ResumMethod


GEOMETRIC = np.array([1.0, 0.5, 0.25, 0.125])


# ---------------------------------------------------------------------------
# Pointwise evaluators
# ---------------------------------------------------------------------------

def test_partial_sums():
    assert resum.partial_sum(GEOMETRIC, 4) == 1.75
    assert resum.partial_sum(np.array([1.0, 0.0, 0.0, 0.0]), 0) == 1.0
    assert resum.partial_sum(np.array([1.0, 0.0, 0.0, 0.0]), 2) == 1.0
    assert resum.partial_sum(np.array([2.871234, 0.0, 0.0, 0.0]),
                             0) == 2.871234
    with pytest.raises(ValueError):
        resum.partial_sum(GEOMETRIC, 3)


def test_pade11_sums_geometric_series():
    assert resum.pade11(GEOMETRIC) == pytest.approx(2.0, rel=1e-15)


def test_pade11_reduces_to_partial_sum_when_tau4_vanishes():
    p = np.array([1.0, 0.5, 0.0, 0.0])
    assert resum.pade11(p) == pytest.approx(1.5, rel=1e-15)


def test_pade11_pole_signal():
    with pytest.raises(PadePole):
        resum.pade11(np.array([1.0, 0.3, 0.3, 0.0]))


def test_pade21_limits_and_values():
    assert resum.pade21(np.array([1.0, 0.5, 0.25, 1e12])) == pytest.approx(
        1.5, abs=1e-10)
    assert resum.pade21(np.array([1.0, 0.5, 0.25, -1e12])) == pytest.approx(
        1.5, abs=1e-10)
    assert resum.pade21(np.array([1.0, 0.5, 0.25, 0.0])) == 1.75
    assert resum.pade21(GEOMETRIC) == pytest.approx(2.0, rel=1e-15)


def test_pade21_of_x_examples():
    assert resum.pade21_of_x(GEOMETRIC, 0.0) == 1.0
    assert resum.pade21_of_x(np.array([1.0, 1.0, 1.0, 1.0]),
                             0.5) == pytest.approx(2.0, rel=1e-15)
    assert resum.pade21_of_x(GEOMETRIC, 1.0) == resum.pade21(GEOMETRIC)
    with pytest.raises(PadePole):
        resum.pade21_of_x(np.array([1.0, 1.0, 0.5, 1.0]), 0.5)
    # Removable when tau4 = 0: the rational part vanishes identically.
    assert resum.pade21_of_x(np.array([1.0, 1.0, 0.0, 0.0]), 0.5) == 1.5


@given(st.floats(-2, 2), st.floats(-2, 2),
       st.floats(0.3, 2.0), st.floats(-2, 2), st.booleans())
# tau6 x is not negligible against tau4 here: 11.27 vs tau6^2/|tau4| = 10.67.
@example(t0=0.0, t2=0.0, t4mag=0.375, t6=2.0, flip=False)
def test_pade21_of_x_order_matching_bound(t0, t2, t4mag, t6, flip):
    """|f(x) - cubic(x)| / x^4 is the exact remainder tau6^2/|tau4 - tau6 x|."""
    t4 = -t4mag if flip else t4mag
    p = np.array([t0, t2, t4, t6])
    for x in (1e-2, 1e-3):
        cubic = t0 + t2 * x + t4 * x * x + t6 * x ** 3
        ratio = abs(resum.pade21_of_x(p, x) - cubic) / x ** 4
        exact = t6 * t6 / abs(t4 - t6 * x)
        assert abs(ratio - exact) <= exact * 0.05 + 0.01


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(1.0, 100.0), st.booleans())
def test_pade21_huge_tau6_collapses_to_second_partial_sum(
        t0, t2, t4, mult, neg):
    t6 = mult * 1e12 * max(abs(t0), abs(t2), abs(t4), 1.0)
    p = np.array([t0, t2, t4, -t6 if neg else t6])
    want = t0 + t2
    assert resum.pade21(p) == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_removable_conventions_are_exact():
    assert resum.pade11(np.array([3.0, 0.0, 0.0, 1.0])) == 3.0
    assert resum.pade21(np.array([3.0, 0.5, 0.0, 0.0])) == 3.5


# ---------------------------------------------------------------------------
# Method enum and reports
# ---------------------------------------------------------------------------

def test_method_parse_aliases():
    assert ResumMethod.parse("t0") is ResumMethod.T0
    assert ResumMethod.parse("T0+T2") is ResumMethod.T02
    assert ResumMethod.parse("pade21") is ResumMethod.PADE21
    assert ResumMethod.parse("[1/1]") is ResumMethod.PADE11
    # Every value and every printed row label names its method.
    for method in resum.ALL_METHODS:
        assert ResumMethod.parse(method.value) is method
        assert ResumMethod.parse(method.label) is method
        assert ResumMethod.parse(f" {method.label.lower()} ") is method
    with pytest.raises(ValueError, match="unknown method"):
        ResumMethod.parse("t6")


def test_method_labels_follow_table_order():
    assert [m.label for m in resum.ALL_METHODS] == [
        "T0", "T0+T2", "T0+T2+T4", "T[1/1]", "T[2/1]"]


def test_percent_error_values():
    assert resum.percent_error(0.5597, 0.63525) == pytest.approx(-11.9,
                                                                 abs=0.1)
    assert resum.percent_error(1.0, 1.0) == 0.0
    assert resum.percent_error(2.0, 1.0) == 100.0
    with pytest.raises(ValueError):
        resum.percent_error(1.0, 0.0)


def test_kinetic_report_reference_handling():
    report = resum.KineticReport(method=ResumMethod.T0, T=1.1)
    with pytest.raises(ValueError):
        report.percent_error
    assert replace(report, t_ref=1.0).percent_error == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# Integration layer
# ---------------------------------------------------------------------------

def test_integrate_t0_on_hooke_half(analytic_half):
    report = analytic_half.reports[ResumMethod.T0]
    assert report.T == pytest.approx(0.5597, abs=1e-3)
    assert report.poles == ()


def test_integrate_pade21_on_hooke_half(analytic_half):
    report = analytic_half.reports[ResumMethod.PADE21]
    assert report.percent_error == pytest.approx(-0.26, abs=0.05)


def test_uniform_box_density_degenerates_all_methods():
    r = np.linspace(0.0, 2.0, 300)
    model = radial.tabulated_derivatives(r, np.full_like(r, 0.7))
    grid = radial.RadialGrid(2.0)
    t0 = resum.integrate_method(model, ResumMethod.T0, grid).T
    expected = kedf.C_TF * 0.7 ** (5.0 / 3.0) * (4.0 / 3.0) * math.pi * 8.0
    assert t0 == pytest.approx(expected, rel=1e-10)
    for method in resum.ALL_METHODS:
        assert resum.integrate_method(model, method, grid).T == \
            pytest.approx(t0, rel=1e-10)


def test_pole_bookkeeping_matches_denominator_sign_changes(atom_bundle,
                                                           analytic_half):
    helium = atom_bundle("he")
    model, grid = helium.model, helium.grid

    def denominator(r):
        p = kedf.tau_point(model.eval(r), r)
        return (p[2] - p[3])[None]

    (expected,) = radial.find_poles(denominator, grid)
    report = helium.reports[ResumMethod.PADE21]
    assert len(report.poles) == len(expected) > 0
    assert report.poles == pytest.approx(expected, rel=1e-9)
    for method in (ResumMethod.T0, ResumMethod.T02, ResumMethod.T024):
        assert helium.reports[method].poles == ()
    # The omega = 1/2 Hooke density never crosses tau4 = tau6, so its
    # [2/1] integral needs no principal value at all.
    assert analytic_half.reports[ResumMethod.PADE21].poles == ()


def test_run_methods_orders_and_references(analytic_half):
    reports = resum.run_methods(analytic_half.model, resum.ALL_METHODS,
                                analytic_half.grid,
                                t_ref=analytic_half.t_ref)
    assert [rep.method for rep in reports] == list(resum.ALL_METHODS)
    assert all(rep.t_ref == analytic_half.t_ref for rep in reports)


def test_run_methods_builds_the_tau_table_only_for_pade(atom_bundle):
    argon = atom_bundle("ar")
    radii = []

    def counted(r):
        radii.append(np.size(r))
        return argon.model.profile(r)

    model = replace(argon.model, profile=counted)
    alone = resum.integrate_method(model, ResumMethod.T0, argon.grid).T
    evaluated = sum(radii)
    radii.clear()
    reports = resum.run_methods(model, [ResumMethod.T0], argon.grid,
                                argon.t_ref)
    assert reports[0].T == alone
    # The five-method fixture refines one interval list, cut at the
    # Pade rows' pole windows, for every method, so its T0 may differ
    # from a lone T0 in the last bits (2 ulps on Ar).
    assert reports[0].T == pytest.approx(argon.reports[ResumMethod.T0].T,
                                         rel=1e-14, abs=0.0)
    # The quadrature's own radii (357 on Ar) and no 1,600-node table.
    scan = radial._scan_nodes(argon.grid.r_max).size
    assert sum(radii) == evaluated < scan
    radii.clear()
    resum.run_methods(model, [ResumMethod.T0, ResumMethod.PADE11],
                      argon.grid, argon.t_ref)
    assert sum(radii) > evaluated + scan


def test_run_methods_evaluates_the_density_once_a_round_for_all_methods(
        atom_bundle):
    argon = atom_bundle("ar")
    calls = []

    def counted(r):
        calls.append(np.size(r))
        return argon.model.profile(r)

    model = replace(argon.model, profile=counted)
    reports = resum.run_methods(model, resum.ALL_METHODS, argon.grid,
                                argon.t_ref)
    assert [rep.poles for rep in reports] == [
        argon.reports[m].poles for m in resum.ALL_METHODS]
    # On Ar: the tau table and 8 steps of one pole scan for both Pade
    # rows, one batch for every pole window of both, and 4 quadrature
    # rounds shared by all five methods.  One method at a time took 58
    # calls, and a principal value of its own for each Pade row 34.
    assert len(calls) <= 14
