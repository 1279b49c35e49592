"""Atomic densities from Roothaan-Hartree-Fock Slater-type expansions.

A basis file holds, per shell, the principal quantum numbers and
exponents of normalized Slater primitives plus the expansion
coefficients of the occupied radial orbital.  One table of the
distinct primitives serves everything: the spherically averaged density
with four analytic derivatives (term-wise differentiation of the
primitives, no numerics), and the closed-form overlaps and Hartree-Fock
kinetic energy.  The energy is also available by quadrature; the two
routes cross-check each other in the test suite.

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


def _is_number(x, kind=(int, float)) -> bool:
    """x is of kind and not a bool, which JSON true and false load as."""
    return isinstance(x, kind) and not isinstance(x, bool)


@dataclass(frozen=True)
class STOPrimitive:
    """Normalized Slater radial primitive N r^(n-1) e^(-zeta r)."""

    n: int
    zeta: float

    def __post_init__(self):
        if not (_is_number(self.n, int) and self.n >= 1):
            raise BasisSchemaError(f"primitive n must be int >= 1, "
                                   f"got {self.n!r}")
        if not (self.zeta > 0.0 and math.isfinite(self.zeta)):
            raise BasisSchemaError(f"primitive zeta must be positive, "
                                   f"got {self.zeta!r}")
        try:
            # The density table holds the norm and zeta^4 as floats.
            self.norm, self.zeta ** (jets.ORDERS - 1)
        except OverflowError:
            raise BasisSchemaError(
                f"primitive zeta={self.zeta!r} overflows the density "
                f"table for n={self.n}") from None

    @property
    def norm(self) -> float:
        return ((2.0 * self.zeta) ** (self.n + 0.5)
                / math.sqrt(math.factorial(2 * self.n)))


@dataclass(frozen=True)
class RHFOrbital:
    """One occupied radial orbital R(r) = sum_k c_k N_k r^(n_k-1) e^(-z_k r)."""

    l: int
    occ: float
    primitives: tuple[STOPrimitive, ...]
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not (_is_number(self.l, int) and self.l >= 0):
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
        """Exponents, n, Horner table and weights of the distinct primitives.

        Entries that repeat an (n, zeta) share one column, weighted per
        orbital by the sum of their c N, so an orbital is its weights row
        over the unnormalized r^(n-1) e^(-zeta r).  With m = n - 1, the k-th
        derivative of r^m e^(-zeta r) is e^(-zeta r) sum_(i <= min(k, m))
        C(k, i) (m)_i (-zeta)^(k-i) r^(m-i); horner[k, j] is that sum's r^j
        coefficient.  The density kernel and ``integrals`` both read it.
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
        return (np.array([p.zeta for p in distinct]),
                np.array([p.n for p in distinct]), horner, weights)

    @cached_property
    def integrals(self) -> tuple[np.ndarray, np.ndarray]:
        """The orbitals' overlap matrix and each one's kinetic energy.

        Over a pair of distinct primitives every integral is a moment
        int_0^inf r^m e^(-s r) dr = m!/s^(m+1), with m = n_j + n_k less
        0, 1 or 2 and s = zeta_j + zeta_k.  Applying the radial Laplacian
        d2/dr2 + (2/r) d/dr to the ket leaves three such powers; the pair
        matrix is averaged with its transpose, and the l(l+1)/r^2 term is
        added per orbital.  Entries between orbitals of different l are
        not overlaps of the full orbitals; only same-l ones mean anything.
        The kinetic energy is <R| -1/2 lap_l |R> for one electron.
        """
        zetas, ns, _, weights = self._primitive_table
        s = zetas[:, None] + zetas
        m = ns[:, None] + ns
        factorial = np.cumprod(np.r_[1.0, np.arange(1.0, m.max() + 1)])
        # int_0^inf r^(m-k) e^(-s r) dr over every pair, for k = 0, 1, 2.
        m0, m1, m2 = (factorial[m - k] / s ** (m - k + 1) for k in range(3))

        def orbital_sums(pairs):
            return np.einsum("oj,jk,ok->o", weights, pairs, weights)

        laplacian = (ns * (ns - 1) * m2 - 2.0 * zetas * ns * m1
                     + zetas * zetas * m0)
        l = np.array([orb.l for orb in self.orbitals], dtype=float)
        kinetic = (orbital_sums(-0.25 * (laplacian + laplacian.T))
                   + 0.5 * l * (l + 1.0) * orbital_sums(m2))
        return np.einsum("oj,jk,pk->op", weights, m0, weights), kinetic

    def radial_jets(self, r) -> np.ndarray:
        """Jets of every orbital's R at r, shape (5,) + r.shape + (n_orb,).

        Horner's rule in r and one e^(-zeta r) give every distinct
        primitive's jet, and one weighted sum over them every orbital's.
        Each sum runs along a last axis of fixed length, so a radius gets
        the same bits alone as in a batch.
        """
        zetas, _, horner, weights = self._primitive_table
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

    Raises BasisSchemaError for malformed files, naming the offending
    field or primitive (JSON true and false are not numbers);
    OrbitalNormalizationError when coefficients fail the norm or in-block
    orthogonality checks, read off ``integrals``; and ElectronCountError
    when occupations do not sum to the declared electron count.
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
    _require(_is_number(count) and count > 0,
             f"{path}: 'electron_count' must be a positive number")
    shells = raw["shells"]
    _require(isinstance(shells, list) and shells,
             f"{path}: 'shells' must be a nonempty list")

    orbitals = []
    for s_idx, shell in enumerate(shells):
        where = f"{path}: shells[{s_idx}]"
        _require(isinstance(shell, dict), f"{where}: must be an object")
        for key in ("l", "occ", "primitives", "coeffs"):
            _require(key in shell, f"{where}: missing key '{key}'")
        _require(isinstance(shell["primitives"], list),
                 f"{where}.primitives: must be a list")
        _require(isinstance(shell["coeffs"], list),
                 f"{where}.coeffs: must be a list")
        for c_idx, c in enumerate(shell["coeffs"]):
            _require(_is_number(c),
                     f"{where}.coeffs[{c_idx}]: must be a number")
        _require(_is_number(shell["occ"]), f"{where}.occ: must be a number")
        # A refusal names the primitive, or else the shell, being built.
        try:
            prims = []
            for p_idx, p in enumerate(shell["primitives"]):
                at = f"{where}.primitives[{p_idx}]"
                _require(isinstance(p, dict) and "n" in p and "zeta" in p,
                         "needs keys 'n' and 'zeta'")
                _require(_is_number(p["zeta"]), "zeta must be a number")
                prims.append(STOPrimitive(n=p["n"], zeta=float(p["zeta"])))
            at = where
            orbitals.append(RHFOrbital(
                l=shell["l"], occ=float(shell["occ"]), primitives=tuple(prims),
                coeffs=tuple(float(c) for c in shell["coeffs"])))
        except BasisSchemaError as exc:
            raise BasisSchemaError(f"{at}: {exc}")

    basis = STOBasisSet(element=element, electron_count=float(count),
                        orbitals=tuple(orbitals))
    overlap = basis.integrals[0]
    for i in range(len(orbitals)):
        if abs(overlap[i, i] - 1.0) > _NORM_TOLERANCE:
            raise OrbitalNormalizationError(
                f"{path}: shells[{i}] norm^2 = {overlap[i, i]:.8f}, "
                f"expected 1 within {_NORM_TOLERANCE:g}")
    for i, j in zip(*np.triu_indices(len(orbitals), 1)):
        l = orbitals[i].l
        if l == orbitals[j].l and abs(overlap[i, j]) > _ORTHO_TOLERANCE:
            raise OrbitalNormalizationError(
                f"{path}: shells[{i}] and shells[{j}] (l={l}) "
                f"overlap {overlap[i, j]:.2e} exceeds {_ORTHO_TOLERANCE:g}")

    total_occ = sum(o.occ for o in orbitals)
    if abs(total_occ - float(count)) > 1e-9:
        raise ElectronCountError(
            f"{path}: electron count mismatch: occupations sum to "
            f"{total_occ:g} but electron_count is {count:g}")
    return basis


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
    return float(basis.occupations @ basis.integrals[1])


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
