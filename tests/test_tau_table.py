"""The batched tau table against one radius at a time.

The Pade pole scans read ``resum.tau_table``, which
evaluates every grid node in one batch; the same functions also take a
single radius, as a float.  Both go through the same code, so they must
agree node by node.
"""

import numpy as np
import pytest

from kedsum import atoms, kedf, radial, resum
from kedsum.kedf import TauPoint
from kedsum.resum import PadePole

FIELDS = ("tau0", "tau2", "tau4", "tau6")


def _scalar_table(model, nodes):
    points = [kedf.tau_point(model.eval(float(r)), float(r)) for r in nodes]
    return np.array([[getattr(p, f) for p in points] for f in FIELDS])


def _assert_table_matches_scalar(model, grid):
    table = resum.tau_table(model, grid)
    batched = np.array([getattr(table, f) for f in FIELDS])
    nodes = grid.positive_nodes
    assert batched.shape == (4, nodes.size)
    np.testing.assert_allclose(batched, _scalar_table(model, nodes),
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("element", ["he", "ar"])
def test_atom_table_matches_scalar_path(atom_bundle, element):
    bundle = atom_bundle(element)
    _assert_table_matches_scalar(bundle.model, bundle.grid)


def test_closed_form_hooke_table_matches_scalar_path(analytic_half):
    _assert_table_matches_scalar(analytic_half.model, analytic_half.grid)


def test_solver_hooke_table_matches_scalar_path(hooke_bundle):
    bundle = hooke_bundle(0.25)
    _assert_table_matches_scalar(bundle.model, bundle.grid)


def test_tabulated_table_matches_scalar_path():
    neon = atoms.density_model(atoms.bundled_basis("ne"))
    r = np.geomspace(1e-4, 40.0, 300)
    model = radial.tabulated_derivatives(r, neon.rho(r), label="ne")
    _assert_table_matches_scalar(model, radial.grid_for_density(model))


def test_profile_takes_floats_and_arrays(atom_bundle):
    model = atom_bundle("he").model
    r = np.array([0.1, 1.0, 3.0])
    assert model.profile(1.0).shape == (5,)
    batch = model.eval(r)
    assert batch.rho.shape == (3,)
    assert batch.d4[1] == pytest.approx(model.eval(1.0).d4, rel=1e-13)
    assert model.rho(r)[2] == pytest.approx(model.rho(3.0), rel=1e-13)


def test_batched_pade_keeps_removable_points():
    p = TauPoint(np.array([3.0, 1.0]), np.array([0.0, 0.5]),
                 np.array([0.0, 0.25]), np.array([9.9, 0.125]))
    np.testing.assert_array_equal(
        resum.pade11(p), [3.0, resum.pade11(TauPoint(1.0, 0.5, 0.25, 0.125))])
    np.testing.assert_array_equal(
        resum.pade21(p), [3.0, resum.pade21(TauPoint(1.0, 0.5, 0.25, 0.125))])


def test_batched_pade_raises_on_a_true_pole():
    p = TauPoint(np.array([1.0, 1.0]), np.array([0.5, 0.3]),
                 np.array([0.25, 0.3]), np.array([0.125, 0.0]))
    with pytest.raises(PadePole):
        resum.pade11(p)
    q = TauPoint(np.array([1.0, 1.0]), np.array([0.5, 0.3]),
                 np.array([0.25, 0.2]), np.array([0.125, 0.2]))
    with pytest.raises(PadePole):
        resum.pade21(q)
