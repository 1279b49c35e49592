"""The batched tau table against one radius at a time.

The Pade pole scan reads ``kedf.tau_point(model.eval(nodes), nodes)`` on
all of its nodes, ``radial._scan_nodes(grid.r_max)``, in one batch; the
same functions also take a single radius, as a float.  Both go through the same code, so they must
agree node by node.
"""

import numpy as np
import pytest

from kedsum import atoms, kedf, radial, resum
from kedsum.resum import PadePole


def _scalar_table(model, nodes):
    return np.array([kedf.tau_point(model.eval(float(r)), float(r))
                     for r in nodes]).T


def _assert_table_matches_scalar(model, grid):
    nodes = radial._scan_nodes(grid.r_max)
    batched = kedf.tau_point(model.eval(nodes), nodes)
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
    """``eval`` returns the profile's jet as it is, and ``tau_point`` the
    (4,) or (4, n) array of tau0, tau2, tau4 and tau6."""
    model = atom_bundle("he").model
    r = np.array([0.1, 1.0, 3.0])
    for radius, shape in ((1.0, (5,)), (r, (5, 3))):
        jet = model.eval(radius)
        assert type(jet) is np.ndarray and jet.shape == shape
        np.testing.assert_array_equal(jet, model.profile(radius))
        table = kedf.tau_point(jet, radius)
        assert type(table) is np.ndarray and table.shape == (4,) + shape[1:]
        rho, c = jet[0], kedf.contractions(jet, radius)
        rows = (kedf.tau0(rho), kedf.tau2(rho, c[0]), kedf.tau4(c, rho),
                kedf.tau6(c, rho))
        for row, want in zip(table, rows):
            np.testing.assert_array_equal(row, want)
    assert jet[4, 1] == pytest.approx(model.eval(1.0)[4], rel=1e-13)
    assert model.rho(r)[2] == pytest.approx(model.rho(3.0), rel=1e-13)


def test_batched_pade_keeps_removable_points():
    p = np.array([[3.0, 1.0], [0.0, 0.5], [0.0, 0.25], [9.9, 0.125]])
    np.testing.assert_array_equal(
        resum.pade11(p), [3.0, resum.pade11(p[:, 1])])
    np.testing.assert_array_equal(
        resum.pade21(p), [3.0, resum.pade21(p[:, 1])])


def test_batched_pade_raises_on_a_true_pole():
    p = np.array([[1.0, 1.0], [0.5, 0.3], [0.25, 0.3], [0.125, 0.0]])
    with pytest.raises(PadePole):
        resum.pade11(p)
    q = np.array([[1.0, 1.0], [0.5, 0.3], [0.25, 0.2], [0.125, 0.2]])
    with pytest.raises(PadePole):
        resum.pade21(q)
