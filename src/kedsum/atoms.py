"""Atomic densities from Roothaan-Hartree-Fock Slater-type expansions.

A basis file holds, per shell, the principal quantum numbers and
exponents of normalized Slater primitives plus the expansion
coefficients of the occupied radial orbital.  From those the module
delivers the spherically averaged density with four analytic
derivatives (term-wise differentiation of the primitives, no numerics)
and the Hartree-Fock kinetic energy both in closed form and by
quadrature; the two routes cross-check each other in the test suite.

Every load is validated: schema shape, orbital normalization,
orthogonality within an l-block, and the electron-count sum rule.
Validation failures raise distinct exception types so callers can
tell a malformed file from physically inconsistent data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from . import jets
from .radial import DensityModel, RadialGrid, blockwise, \
    grid_for_density, integrate_radial

FOUR_PI = 4.0 * math.pi


class BasisError(ValueError):
    """Base class for basis-file problems."""


class BasisSchemaError(BasisError):
    """File shape or field types violate the expected JSON schema."""


class OrbitalNormalizationError(BasisError):
    """An orbital's coefficients are not normalized (or not orthogonal)."""


class ElectronCountError(BasisError):
    """Shell occupations do not add up to the declared electron count."""


@dataclass(frozen=True)
class STOPrimitive:
    """Normalized Slater radial primitive N r^(n-1) e^(-zeta r)."""

    n: int
    zeta: float

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise BasisSchemaError(f"primitive n must be int >= 1, "
                                   f"got {self.n!r}")
        if not (self.zeta > 0.0 and math.isfinite(self.zeta)):
            raise BasisSchemaError(f"primitive zeta must be positive, "
                                   f"got {self.zeta!r}")

    @property
    def norm(self) -> float:
        return ((2.0 * self.zeta) ** (self.n + 0.5)
                / math.sqrt(math.factorial(2 * self.n)))


def _moment(m: int, a: float) -> float:
    """int_0^inf r^m e^(-a r) dr for integer m >= 0."""
    return math.factorial(m) / a ** (m + 1)


def primitive_overlap(p: STOPrimitive, q: STOPrimitive) -> float:
    """<p|q> over r^2 dr for normalized primitives (same l assumed)."""
    return p.norm * q.norm * _moment(p.n + q.n, p.zeta + q.zeta)


def _primitive_kinetic(p: STOPrimitive, q: STOPrimitive, l: int) -> float:
    """<p| -1/2 (d2/dr2 + (2/r) d/dr - l(l+1)/r^2) |q>, symmetrized.

    Applying the radial Laplacian to the ket N r^(n-1) e^(-zeta r)
    leaves three powers whose moments are elementary; averaging p,q
    restores the symmetry the analytic form hides.
    """

    def one_sided(a: STOPrimitive, b: STOPrimitive) -> float:
        s = a.zeta + b.zeta
        m = a.n + b.n
        val = (b.n * (b.n - 1) - l * (l + 1)) * _moment(m - 2, s)
        val -= 2.0 * b.zeta * b.n * _moment(m - 1, s)
        val += b.zeta * b.zeta * _moment(m, s)
        return -0.5 * a.norm * b.norm * val

    return 0.5 * (one_sided(p, q) + one_sided(q, p))


@dataclass(frozen=True)
class RHFOrbital:
    """One occupied radial orbital R(r) = sum_k c_k N_k r^(n_k-1) e^(-z_k r)."""

    l: int
    occ: float
    primitives: tuple[STOPrimitive, ...]
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not (isinstance(self.l, int) and self.l >= 0):
            raise BasisSchemaError(f"orbital l must be int >= 0, got {self.l!r}")
        if not (0.0 < self.occ <= 2.0 * (2 * self.l + 1)):
            raise BasisSchemaError(
                f"occupation {self.occ!r} outside (0, {2 * (2 * self.l + 1)}] "
                f"for l={self.l}")
        if len(self.primitives) != len(self.coeffs):
            raise BasisSchemaError(
                f"{len(self.coeffs)} coefficients for "
                f"{len(self.primitives)} primitives")
        if not self.primitives:
            raise BasisSchemaError("orbital needs at least one primitive")
        for p in self.primitives:
            if p.n < self.l + 1:
                raise BasisSchemaError(
                    f"primitive n={p.n} below l+1={self.l + 1}")

    def _pair_sum(self, other: "RHFOrbital", term) -> float:
        """sum_ab c_a c'_b term(a, b) over this orbital's and other's
        primitives."""
        total = 0.0
        for a, ca in zip(self.primitives, self.coeffs):
            for b, cb in zip(other.primitives, other.coeffs):
                total += ca * cb * term(a, b)
        return total

    def norm_squared(self) -> float:
        return self.overlap(self)

    def overlap(self, other: "RHFOrbital") -> float:
        return self._pair_sum(other, primitive_overlap)

    def kinetic(self) -> float:
        """<R| -1/2 lap_l |R> for a single electron in this orbital."""
        return self._pair_sum(
            self, lambda a, b: _primitive_kinetic(a, b, self.l))


@dataclass(frozen=True)
class STOBasisSet:
    element: str
    electron_count: float
    orbitals: tuple[RHFOrbital, ...]

    @cached_property
    def occupations(self) -> np.ndarray:
        return np.array([orb.occ for orb in self.orbitals])

    @cached_property
    def _primitive_table(self):
        """Exponents, Horner table and weights of the distinct primitives.

        Entries that repeat an (n, zeta) share one column, weighted per
        orbital by the sum of their c N.  With m = n - 1, the k-th derivative
        of r^m e^(-zeta r) is e^(-zeta r) sum_(i <= min(k, m)) C(k, i) (m)_i
        (-zeta)^(k-i) r^(m-i); horner[k, j] is that sum's r^j coefficient.
        """
        distinct = list(dict.fromkeys(p for orb in self.orbitals
                                      for p in orb.primitives))
        weights = np.zeros((len(self.orbitals), len(distinct)))
        for o, orb in enumerate(self.orbitals):
            for p, c in zip(orb.primitives, orb.coeffs):
                weights[o, distinct.index(p)] += c * p.norm
        horner = np.zeros((jets.ORDERS, max(p.n for p in distinct),
                           len(distinct)))
        for col, p in enumerate(distinct):
            for k in range(jets.ORDERS):
                for i in range(min(k, p.n - 1) + 1):
                    horner[k, p.n - 1 - i, col] = (
                        math.comb(k, i) * math.perm(p.n - 1, i)
                        * (-p.zeta) ** (k - i))
        return np.array([p.zeta for p in distinct]), horner, weights

    def radial_jets(self, r) -> np.ndarray:
        """Jets of every orbital's R at r, shape (5,) + r.shape + (n_orb,).

        Horner's rule in r and one e^(-zeta r) give every distinct
        primitive's jet, and one weighted sum over them every orbital's.
        Each sum runs along a last axis of fixed length, so a radius gets
        the same bits alone as in a batch.
        """
        zetas, horner, weights = self._primitive_table
        r = np.asarray(r, dtype=float)[..., None]
        horner = np.expand_dims(horner, tuple(range(2, r.ndim + 1)))
        poly = horner[:, -1]
        for j in reversed(range(horner.shape[1] - 1)):
            poly = poly * r + horner[:, j]
        return np.einsum("...p,op->...o", poly * np.exp(-zetas * r), weights)


# ---------------------------------------------------------------------------
# Parsing and validation.
# ---------------------------------------------------------------------------

_NORM_TOLERANCE = 1e-6
_ORTHO_TOLERANCE = 1e-5


def _require(condition: bool, message: str):
    if not condition:
        raise BasisSchemaError(message)


def parse_sto(file) -> STOBasisSet:
    """Load and validate a JSON STO basis file.

    Raises BasisSchemaError for malformed files (with the offending
    field named), OrbitalNormalizationError when coefficients fail the
    norm or in-block orthogonality checks, and ElectronCountError when
    occupations do not sum to the declared electron count.
    """

    path = Path(file)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise BasisSchemaError(f"{path}: cannot read: {exc}")
    except json.JSONDecodeError as exc:
        raise BasisSchemaError(f"{path}: not valid JSON: {exc}")

    _require(isinstance(raw, dict), f"{path}: top level must be an object")
    for key in ("element", "electron_count", "shells"):
        _require(key in raw, f"{path}: missing key '{key}'")
    element = raw["element"]
    _require(isinstance(element, str) and element,
             f"{path}: 'element' must be a nonempty string")
    count = raw["electron_count"]
    _require(isinstance(count, (int, float)) and count > 0,
             f"{path}: 'electron_count' must be positive")
    shells = raw["shells"]
    _require(isinstance(shells, list) and shells,
             f"{path}: 'shells' must be a nonempty list")

    orbitals = []
    for s_idx, shell in enumerate(shells):
        where = f"{path}: shells[{s_idx}]"
        _require(isinstance(shell, dict), f"{where}: must be an object")
        for key in ("l", "occ", "primitives", "coeffs"):
            _require(key in shell, f"{where}: missing key '{key}'")
        prims_raw = shell["primitives"]
        coeffs_raw = shell["coeffs"]
        _require(isinstance(prims_raw, list) and prims_raw,
                 f"{where}.primitives: must be a nonempty list")
        _require(isinstance(coeffs_raw, list),
                 f"{where}.coeffs: must be a list")
        _require(len(coeffs_raw) == len(prims_raw),
                 f"{where}: {len(coeffs_raw)} coeffs for "
                 f"{len(prims_raw)} primitives")
        prims = []
        for p_idx, p in enumerate(prims_raw):
            pwhere = f"{where}.primitives[{p_idx}]"
            _require(isinstance(p, dict) and "n" in p and "zeta" in p,
                     f"{pwhere}: needs keys 'n' and 'zeta'")
            _require(isinstance(p["n"], int),
                     f"{pwhere}.n: must be an integer")
            _require(isinstance(p["zeta"], (int, float)),
                     f"{pwhere}.zeta: must be a number")
            prims.append(STOPrimitive(n=p["n"], zeta=float(p["zeta"])))
        for c_idx, c in enumerate(coeffs_raw):
            _require(isinstance(c, (int, float)),
                     f"{where}.coeffs[{c_idx}]: must be a number")
        _require(isinstance(shell["l"], int),
                 f"{where}.l: must be an integer")
        _require(isinstance(shell["occ"], (int, float)),
                 f"{where}.occ: must be a number")
        try:
            orbital = RHFOrbital(l=shell["l"], occ=float(shell["occ"]),
                                 primitives=tuple(prims),
                                 coeffs=tuple(float(c) for c in coeffs_raw))
        except BasisSchemaError as exc:
            raise BasisSchemaError(f"{where}: {exc}")
        orbitals.append(orbital)

    for s_idx, orbital in enumerate(orbitals):
        norm = orbital.norm_squared()
        if abs(norm - 1.0) > _NORM_TOLERANCE:
            raise OrbitalNormalizationError(
                f"{path}: shells[{s_idx}] norm^2 = {norm:.8f}, "
                f"expected 1 within {_NORM_TOLERANCE:g}")
    for i, a in enumerate(orbitals):
        for j in range(i + 1, len(orbitals)):
            b = orbitals[j]
            if a.l != b.l:
                continue
            s = a.overlap(b)
            if abs(s) > _ORTHO_TOLERANCE:
                raise OrbitalNormalizationError(
                    f"{path}: shells[{i}] and shells[{j}] (l={a.l}) "
                    f"overlap {s:.2e} exceeds {_ORTHO_TOLERANCE:g}")

    total_occ = sum(o.occ for o in orbitals)
    if abs(total_occ - float(count)) > 1e-9:
        raise ElectronCountError(
            f"{path}: electron count mismatch: occupations sum to "
            f"{total_occ:g} but electron_count is {count:g}")

    return STOBasisSet(element=element, electron_count=float(count),
                       orbitals=tuple(orbitals))


# ---------------------------------------------------------------------------
# Density and kinetic energy.
# ---------------------------------------------------------------------------

def density_derivs(basis: STOBasisSet, r) -> np.ndarray:
    """The ``(5,)`` jet of rho and d1..d4 at radius r, or the ``(5, n)``
    jet at an array of radii."""
    if np.any(np.asarray(r) <= 0.0):
        raise ValueError(f"density_derivs needs r > 0, got "
                         f"r={float(np.min(r))!r}")
    return _density_jet(basis, r)


def _density_jet(basis: STOBasisSet, r) -> np.ndarray:
    """rho = (1/4pi) sum occ R^2, summed over the orbital axis."""
    radial = basis.radial_jets(r)
    return np.sum(basis.occupations * jets.multiply(radial, radial),
                  axis=-1) / FOUR_PI


def density_model(basis: STOBasisSet) -> DensityModel:
    """Wrap a basis set as a DensityModel for the expansion pipeline."""
    return DensityModel(
        profile=blockwise(lambda r: _density_jet(basis, r),
                          jets.ORDERS * basis._primitive_table[0].size),
        electron_count=basis.electron_count,
        label=f"rhf({basis.element})",
    )


def hf_kinetic(basis: STOBasisSet) -> float:
    """Hartree-Fock kinetic energy via closed-form STO integrals."""
    return sum(orb.occ * orb.kinetic() for orb in basis.orbitals)


def hf_kinetic_quadrature(basis: STOBasisSet,
                          grid: RadialGrid | None = None) -> float:
    """Same energy by radial quadrature of -1/2 R lap_l R.

    Kept as an independent route: it exercises the jet evaluation and
    the quadrature layer against the closed-form integrals.
    """

    if grid is None:
        grid = grid_for_density(density_model(basis))

    l = np.array([orb.l for orb in basis.orbitals], dtype=float)

    def integrand(r):
        rj = basis.radial_jets(r)
        r = np.asarray(r)[..., None]
        lap = rj[2] + 2.0 * rj[1] / r - l * (l + 1.0) * rj[0] / (r * r)
        return -0.5 * np.sum(basis.occupations * rj[0] * lap,
                             axis=-1) / FOUR_PI

    return integrate_radial(integrand, grid)


def nuclear_cusp_ratio(basis: STOBasisSet, r: float = 1e-8) -> float:
    """Diagnostic -rho'(r)/(2 rho(r)) near the origin.

    For an exact HF density this tends to the nuclear charge as r -> 0
    (Kato's condition); finite STO expansions land close but not
    exactly there, which makes the ratio a useful transcription check.
    """

    rho, d1 = density_derivs(basis, r)[:2]
    return -d1 / (2.0 * rho)


# ---------------------------------------------------------------------------
# Bundled reference data.
# ---------------------------------------------------------------------------

def list_bundled() -> list[str]:
    """Element keys of the basis files shipped with the package."""
    root = resources.files("kedsum").joinpath("data")
    names = []
    for entry in root.iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[:-5])
    return sorted(names)


def bundled_basis(element: str) -> STOBasisSet:
    """Load a shipped basis by element key (case-insensitive)."""
    key = element.strip().lower()
    root = resources.files("kedsum").joinpath("data")
    target = root.joinpath(f"{key}.json")
    if not target.is_file():
        raise BasisError(
            f"no bundled basis for {element!r}; available: "
            f"{', '.join(list_bundled())}")
    with resources.as_file(target) as path:
        return parse_sto(path)
