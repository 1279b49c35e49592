"""Slater-basis ingestion, analytic density derivatives, and T_HF."""

import json
import math
import re
from dataclasses import replace
from importlib import resources

import mpmath as mp
import numpy as np
import pytest

from kedsum import atoms, jets, radial
from kedsum.radial import grid_for_density, integrate_radial

BUNDLED = ("ar", "be", "he", "ne")
NUCLEAR_CHARGE = {"he": 2.0, "be": 4.0, "ne": 10.0, "ar": 18.0}


def _write_basis(tmp_path, payload, name="basis.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _single_zeta(element, count, zeta, occ, n=1, l=0, coeff=1.0):
    """Minimal one-primitive basis payload; normalized by construction."""
    return {
        "element": element,
        "electron_count": count,
        "shells": [{"l": l, "occ": occ,
                    "primitives": [{"n": n, "zeta": zeta}],
                    "coeffs": [coeff]}],
    }


# ---------------------------------------------------------------------------
# Closed-form anchors on one-primitive bases.
# ---------------------------------------------------------------------------

def test_hydrogenic_1s_density_closed_form(tmp_path):
    # n=1, zeta=1, occ=1 gives R = 2 e^{-r}, so rho = e^{-2r} / pi.
    path = _write_basis(tmp_path, _single_zeta("H", 1, 1.0, 1))
    basis = atoms.parse_sto(path)
    rho, d1 = atoms.density_derivs(basis, 1.0)[:2]
    assert rho == pytest.approx(math.exp(-2.0) / math.pi, rel=1e-12)
    assert d1 == pytest.approx(-2.0 * math.exp(-2.0) / math.pi, rel=1e-12)
    half = atoms.density_derivs(basis, 0.5)
    assert half[0] == pytest.approx(math.exp(-1.0) / math.pi, rel=1e-12)


def test_hydrogenic_kinetic_is_half_zeta_squared(tmp_path):
    for zeta in (1.0, 2.3):
        path = _write_basis(tmp_path, _single_zeta("H", 1, zeta, 1),
                            name=f"h_{zeta}.json")
        basis = atoms.parse_sto(path)
        assert atoms.hf_kinetic(basis) == pytest.approx(0.5 * zeta * zeta,
                                                        rel=1e-12)


def test_single_zeta_helium_origin_density_and_kinetic(tmp_path):
    zeta = 1.6875
    path = _write_basis(tmp_path, _single_zeta("He", 2, zeta, 2))
    basis = atoms.parse_sto(path)
    origin = atoms.density_derivs(basis, 1e-9)[0]
    assert origin == pytest.approx(2.0 * zeta ** 3 / math.pi, rel=1e-6)
    assert origin == pytest.approx(3.0592, abs=1e-4)
    # Two electrons in one orbital: T = 2 * zeta^2 / 2.
    assert atoms.hf_kinetic(basis) == pytest.approx(zeta * zeta, rel=1e-12)


def test_density_derivs_rejects_nonpositive_radius(tmp_path):
    path = _write_basis(tmp_path, _single_zeta("H", 1, 1.0, 1))
    basis = atoms.parse_sto(path)
    with pytest.raises(ValueError, match="r > 0"):
        atoms.density_derivs(basis, 0.0)
    with pytest.raises(ValueError, match="r > 0"):
        atoms.density_derivs(basis, -0.3)
    # An array is named by its smallest radius, not printed whole.
    with pytest.raises(ValueError, match=r"r > 0, got r=-1\.0$"):
        atoms.density_derivs(basis, np.linspace(-1.0, 1.0, 1600))


# ---------------------------------------------------------------------------
# Validation: each failure mode has its own exception type and names
# the offending location.
# ---------------------------------------------------------------------------

def test_occupation_sum_mismatch_raises(tmp_path):
    payload = {
        "element": "He",
        "electron_count": 2,
        "shells": [
            {"l": 0, "occ": 2,
             "primitives": [{"n": 1, "zeta": 1.6875}], "coeffs": [1.0]},
            {"l": 1, "occ": 1,
             "primitives": [{"n": 2, "zeta": 1.0}], "coeffs": [1.0]},
        ],
    }
    path = _write_basis(tmp_path, payload)
    with pytest.raises(atoms.ElectronCountError,
                       match="electron count mismatch"):
        atoms.parse_sto(path)


def test_misnormalized_orbital_raises(tmp_path):
    payload = _single_zeta("He", 2, 1.6875, 2, coeff=0.9)
    path = _write_basis(tmp_path, payload)
    with pytest.raises(atoms.OrbitalNormalizationError, match="norm"):
        atoms.parse_sto(path)


def test_nonorthogonal_same_l_shells_raise(tmp_path):
    # Two identical normalized 1s shells: each passes the norm check but
    # their mutual overlap is 1, far beyond the orthogonality tolerance.
    shell = {"l": 0, "occ": 2,
             "primitives": [{"n": 1, "zeta": 2.0}], "coeffs": [1.0]}
    payload = {"element": "Be", "electron_count": 4,
               "shells": [shell, dict(shell)]}
    path = _write_basis(tmp_path, payload)
    with pytest.raises(atoms.OrbitalNormalizationError, match="overlap"):
        atoms.parse_sto(path)


def _first_primitive(p):
    return p["shells"][0]["primitives"][0]


@pytest.mark.parametrize("mutate, fragment", [
    (lambda p: p.pop("shells"), "missing key 'shells'"),
    (lambda p: _first_primitive(p).pop("zeta"), r"primitives\[0\]"),
    (lambda p: p["shells"][0]["coeffs"].append(0.1),
     r"shells\[0\]: 2 coefficients for 1 primitives$"),
    (lambda p: _first_primitive(p).update(n=1.5),
     r"shells\[0\]\.primitives\[0\]: primitive n must be int >= 1, got 1\.5$"),
    (lambda p: p.update(element=""), "element"),
    # A bad primitive is named by its place.
    (lambda p: _first_primitive(p).update(n=0),
     r"shells\[0\]\.primitives\[0\]: primitive n must be int >= 1, got 0$"),
    # JSON true and false load as Python bools, which are ints; none of
    # them is a number here.
    (lambda p: _first_primitive(p).update(n=True),
     r"shells\[0\]\.primitives\[0\]: primitive n must be int >= 1, "
     r"got True$"),
    (lambda p: _first_primitive(p).update(zeta=True),
     r"shells\[0\]\.primitives\[0\]: zeta must be a number$"),
    (lambda p: p["shells"][0].update(l=False),
     r"shells\[0\]: orbital l must be int >= 0, got False$"),
    (lambda p: p["shells"][0].update(occ=True),
     r"shells\[0\]\.occ: must be a number$"),
    (lambda p: p.update(electron_count=True),
     "'electron_count' must be a positive number$"),
    (lambda p: p["shells"][0].update(coeffs=[True]),
     r"shells\[0\]\.coeffs\[0\]: must be a number$"),
])
def test_schema_errors_name_the_offending_field(tmp_path, mutate, fragment):
    payload = _single_zeta("H", 1, 1.0, 1)
    mutate(payload)
    path = _write_basis(tmp_path, payload)
    with pytest.raises(atoms.BasisSchemaError, match=fragment):
        atoms.parse_sto(path)


@pytest.mark.parametrize("zeta", [1e78, 1e200])
def test_a_zeta_that_overflows_the_density_table_is_a_schema_error(
        tmp_path, zeta):
    # zeta^4 is past the float range; the load raised OverflowError.
    path = _write_basis(tmp_path, _single_zeta("He", 2, zeta, 2))
    with pytest.raises(atoms.BasisSchemaError, match=re.escape(
            f"shells[0].primitives[0]: primitive zeta={zeta!r} overflows")):
        atoms.parse_sto(path)


def test_invalid_json_reports_the_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(atoms.BasisSchemaError, match="not valid JSON"):
        atoms.parse_sto(path)


def test_orbital_constructor_validation():
    prim = atoms.STOPrimitive(n=1, zeta=1.0)
    with pytest.raises(atoms.BasisSchemaError, match="n must be int"):
        atoms.STOPrimitive(n=0, zeta=1.0)
    with pytest.raises(atoms.BasisSchemaError, match="zeta must be positive"):
        atoms.STOPrimitive(n=1, zeta=-2.0)
    # A p orbital needs principal number at least 2.
    with pytest.raises(atoms.BasisSchemaError, match="below l\\+1"):
        atoms.RHFOrbital(l=1, occ=2.0, primitives=(prim,), coeffs=(1.0,))
    with pytest.raises(atoms.BasisSchemaError, match="outside"):
        atoms.RHFOrbital(l=0, occ=5.0, primitives=(prim,), coeffs=(1.0,))
    with pytest.raises(atoms.BasisSchemaError, match="coefficients"):
        atoms.RHFOrbital(l=0, occ=2.0, primitives=(prim,),
                         coeffs=(1.0, 0.0))


def test_parse_sto_accepts_string_paths(tmp_path):
    path = _write_basis(tmp_path, _single_zeta("H", 1, 1.0, 1))
    basis = atoms.parse_sto(str(path))
    assert basis.element == "H"
    assert basis.electron_count == 1.0


# ---------------------------------------------------------------------------
# Bundled reference data.
# ---------------------------------------------------------------------------

def test_bundled_listing_and_lookup():
    assert tuple(atoms.list_bundled()) == BUNDLED
    basis = atoms.bundled_basis("He")
    assert basis.element == "He"
    with pytest.raises(atoms.BasisError, match="no bundled basis"):
        atoms.bundled_basis("Kr")


@pytest.mark.parametrize("element", BUNDLED)
def test_dual_kinetic_routes_agree(element, atom_bundle):
    bundle = atom_bundle(element)
    closed_form = atoms.hf_kinetic(bundle.basis)
    quadrature = atoms.hf_kinetic_quadrature(bundle.basis, bundle.grid)
    assert quadrature == pytest.approx(closed_form, rel=1e-8)


def _pairwise_integrals(element):
    """Norms^2 and overlaps (as a matrix), each shell's l, and T_HF, in
    30-digit mpmath pair by pair from the basis JSON.  T takes the
    gradient form 1/2 int (R'^2 + l(l+1) R^2/r^2) r^2 dr, so it shares no
    formula with the package's Laplacian."""
    path = resources.files("kedsum").joinpath("data").joinpath(
        f"{element}.json")
    shells = json.loads(path.read_text(encoding="utf-8"))["shells"]
    with mp.workdps(30):
        def moment(m, s):
            return mp.factorial(m) / s ** (m + 1)

        def primitive(p, c):
            """(n, zeta, c N) of one normalized primitive."""
            n, zeta = p["n"], mp.mpf(repr(p["zeta"]))
            return n, zeta, mp.mpf(repr(c)) * (2 * zeta) ** (
                n + mp.mpf("0.5")) / mp.sqrt(mp.factorial(2 * n))

        def kinetic(a, b, l):
            """1/2 int (a' b' + l(l+1) a b / r^2) r^2 dr."""
            (na, za, ca), (nb, zb, cb) = a, b
            m, s = na + nb, za + zb
            return ca * cb / 2 * (
                ((na - 1) * (nb - 1) + l * (l + 1)) * moment(m - 2, s)
                - ((na - 1) * zb + (nb - 1) * za) * moment(m - 1, s)
                + za * zb * moment(m, s))

        orbitals = [[primitive(p, c)
                     for p, c in zip(shell["primitives"], shell["coeffs"])]
                    for shell in shells]
        overlap = [[float(mp.fsum(ca * cb * moment(na + nb, za + zb)
                                  for na, za, ca in a for nb, zb, cb in b))
                    for b in orbitals] for a in orbitals]
        t_hf = mp.fsum(shell["occ"] * kinetic(a, b, shell["l"])
                       for shell, prims in zip(shells, orbitals)
                       for a in prims for b in prims)
        return overlap, [shell["l"] for shell in shells], float(t_hf)


@pytest.mark.parametrize("element", BUNDLED)
def test_closed_form_integrals_match_a_pairwise_mpmath_sum(element):
    # Ne and Ar hold p shells, so their T_HF reads the l(l+1) term.
    basis = atoms.bundled_basis(element)
    overlap, kinetic = basis.integrals
    want, ls, t_hf = _pairwise_integrals(element)
    for i, row in enumerate(want):
        assert overlap[i, i] == pytest.approx(row[i], rel=1e-14, abs=0.0)
        for j in range(i + 1, len(row)):
            if ls[i] == ls[j]:
                assert abs(overlap[i, j] - row[j]) <= 1e-14, (i, j)
    assert atoms.hf_kinetic(basis) == pytest.approx(t_hf, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("element", BUNDLED)
def test_density_sum_rule(element, atom_bundle):
    bundle = atom_bundle(element)
    count = integrate_radial(bundle.model.rho, bundle.grid)
    assert count == pytest.approx(bundle.basis.electron_count, rel=1e-8)


@pytest.mark.parametrize("element", BUNDLED)
def test_nuclear_cusp_diagnostic_close_to_charge(element, atom_bundle):
    # The cusp ratio is a transcription check: a mistyped exponent or
    # coefficient moves it far from Z, while genuine basis-set error
    # keeps it within a few percent.
    ratio = atoms.nuclear_cusp_ratio(atom_bundle(element).basis)
    charge = NUCLEAR_CHARGE[element]
    assert abs(ratio - charge) / charge < 0.05


@pytest.mark.parametrize("element", ("he", "ar"))
def test_derivatives_match_high_order_differences(element, atom_bundle):
    # Independent reference: rebuild the density from the raw basis
    # parameters in mpmath and differentiate numerically at high
    # precision, so none of the package's jet code is involved.
    basis = atom_bundle(element).basis
    shells = [(orb.occ,
               [(p.n, mp.mpf(repr(p.zeta)), mp.mpf(repr(c)))
                for p, c in zip(orb.primitives, orb.coeffs)])
              for orb in basis.orbitals]

    def rho(r):
        total = mp.mpf(0)
        for occ, prims in shells:
            radial = mp.mpf(0)
            for n, zeta, c in prims:
                norm = ((2 * zeta) ** (n + mp.mpf("0.5"))
                        / mp.sqrt(mp.factorial(2 * n)))
                radial += c * norm * r ** (n - 1) * mp.exp(-zeta * r)
            total += occ * radial ** 2
        return total / (4 * mp.pi)

    old_dps = mp.mp.dps
    mp.mp.dps = 40
    try:
        for r in (0.1, 0.6, 2.0, 10.0):
            mine = atoms.density_derivs(basis, r)[1:]
            for order in range(1, 5):
                ref = float(mp.diff(rho, mp.mpf(repr(r)), order))
                assert mine[order - 1] == pytest.approx(ref, rel=1e-7), \
                    f"{element} d{order} at r={r}"
    finally:
        mp.mp.dps = old_dps


def test_density_model_wraps_basis(atom_bundle):
    bundle = atom_bundle("he")
    model = atoms.density_model(bundle.basis)
    assert model.electron_count == 2.0
    d = model.eval(1.3)
    direct = atoms.density_derivs(bundle.basis, 1.3)
    assert d[0] == direct[0]
    assert d[4] == direct[4]


# ---------------------------------------------------------------------------
# The density kernel: batching, exact jets and merged primitives.
# ---------------------------------------------------------------------------

JET_RADII = (1e-3, 0.05, 0.3, 1.0, 3.0, 10.0, 25.0)


@pytest.mark.parametrize("element", BUNDLED)
def test_profile_is_bit_invariant_to_batching(element, atom_bundle):
    # The pole scan's radii and each one's next float up, alone and in one
    # batch: the batch is taken a few hundred radii at a time.
    bundle = atom_bundle(element)
    nodes = radial._scan_nodes(bundle.grid.r_max)
    radii = np.concatenate((nodes, np.nextafter(nodes, np.inf)))
    batch = bundle.model.profile(radii)
    single = np.array([bundle.model.profile(float(r)) for r in radii]).T
    np.testing.assert_array_equal(single, batch)


# Ar's 12 distinct primitives make the kernel's (5, n, 12) arrays
# 60 floats a radius wide.
AR_BLOCK = radial.BLOCK_FLOATS // (jets.ORDERS * 12)


@pytest.mark.parametrize("size", [AR_BLOCK - 1, AR_BLOCK, AR_BLOCK + 1,
                                  2 * AR_BLOCK + 3])
def test_ar_kernel_blocks_are_bit_invariant(size, monkeypatch):
    # Batches either side of one and two blocks are cut where the budget
    # says, and each radius gets the jet it gets alone.
    model = atoms.density_model(atoms.bundled_basis("ar"))
    radii = np.geomspace(1e-3, 30.0, size)
    sizes, kernel = [], atoms._density_jet

    def counted(basis, r):
        sizes.append(r.size)
        return kernel(basis, r)

    monkeypatch.setattr(atoms, "_density_jet", counted)
    batch = model.profile(radii)
    assert sizes == [min(AR_BLOCK, size - i)
                     for i in range(0, size, AR_BLOCK)]
    single = np.array([model.profile(float(r)) for r in radii]).T
    np.testing.assert_array_equal(single, batch)


def _exact_density_jet(basis, r):
    """rho and d1..d4 at r in 40-digit mpmath, from the basis parameters:
    d^k (r^m e^(-zeta r)) in closed form, then Leibniz on occ R^2."""
    r = mp.mpf(repr(r))
    rho = [mp.mpf(0)] * 5
    for orb in basis.orbitals:
        radial = [mp.mpf(0)] * 5
        for p, c in zip(orb.primitives, orb.coeffs):
            zeta, m = mp.mpf(repr(p.zeta)), p.n - 1
            scale = (mp.mpf(repr(c)) * (2 * zeta) ** (p.n + mp.mpf("0.5"))
                     / mp.sqrt(mp.factorial(2 * p.n)) * mp.exp(-zeta * r))
            for k in range(5):
                radial[k] += scale * mp.fsum(
                    mp.binomial(k, i) * mp.ff(m, i) * (-zeta) ** (k - i)
                    * r ** (m - i) for i in range(min(k, m) + 1))
        for k in range(5):
            rho[k] += orb.occ * mp.fsum(mp.binomial(k, j) * radial[j]
                                        * radial[k - j]
                                        for j in range(k + 1))
    return [float(x / (4 * mp.pi)) for x in rho]


@pytest.mark.parametrize("element", BUNDLED)
def test_jets_match_exact_closed_form(element):
    basis = atoms.bundled_basis(element)
    old_dps = mp.mp.dps
    mp.mp.dps = 40
    try:
        for r in JET_RADII:
            mine = atoms.density_model(basis).profile(r)
            exact = _exact_density_jet(basis, r)
            for order in range(5):
                assert mine[order] == pytest.approx(exact[order],
                                                    rel=1e-12), \
                    f"{element} d{order} at r={r}"
    finally:
        mp.mp.dps = old_dps


def test_repeated_primitives_share_one_column():
    # He with its first coefficient split over two identical entries.
    he = atoms.bundled_basis("he")
    (orb,) = he.orbitals
    c = orb.coeffs[0]
    split = replace(he, orbitals=(replace(
        orb, primitives=orb.primitives[:1] + orb.primitives,
        coeffs=(0.3 * c, 0.7 * c) + orb.coeffs[1:]),))
    radii = np.array(JET_RADII)
    np.testing.assert_allclose(atoms.density_model(split).profile(radii),
                               atoms.density_model(he).profile(radii),
                               rtol=1e-14)
    assert atoms.hf_kinetic_quadrature(split) == pytest.approx(
        atoms.hf_kinetic(he), rel=1e-8)

    # Be's 1s and 2s share all six primitives; each orbital alone is a
    # basis that lists its own.
    be = atoms.bundled_basis("be")
    assert be._primitive_table[0].size == 6
    alone = [replace(be, electron_count=o.occ, orbitals=(o,))
             for o in be.orbitals]
    np.testing.assert_allclose(
        sum(atoms.density_model(b).profile(radii) for b in alone),
        atoms.density_model(be).profile(radii), rtol=1e-14)
    grid = grid_for_density(atoms.density_model(be))
    assert sum(atoms.hf_kinetic_quadrature(b, grid) for b in alone) \
        == pytest.approx(atoms.hf_kinetic(be), rel=1e-8)
