"""Reference values computed apart from kedsum, and the published rows.

Nothing here imports kedsum.  The Slater densities are evaluated with
numpy straight from the bundled JSON basis files, and their integrals
use a fixed composite Gauss-Legendre rule, so these numbers share no
code with the program's jets, splines or QUADPACK path.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent.parent / "src" / "kedsum" / "data"

C_TF = 0.3 * (3.0 * math.pi ** 2) ** (2.0 / 3.0)

# Published percent-error rows (T0, T0+T2, T0+T2+T4, [1/1], [2/1]) and
# reference kinetic energies, as tests/test_acceptance.py lists them.
HOOKE_ROWS = {
    0.25: (0.30036, (-12.7, -1.67, 15.6, 0.48, -1.15)),
    0.5: (0.63525, (-11.9, -0.78, 16.5, 1.27, -0.26)),
    1.0: (1.32757, (-11.3, -0.19, 15.4, 1.81, 0.33)),
    4.0: (5.62884, (-10.7, 0.45, 15.1, 2.4, 0.98)),
}
ATOM_ROWS = {
    "he": (2.8617, (-10.5, 0.59, 3.57, 2.01, 0.53)),
    "ne": (128.55, (-8.4, -0.55, 0.95, 0.50, -0.51)),
    "ar": (526.82, (-7.0, -0.49, 0.69, 0.32, -0.43)),
}
# Taut (PRA 48, 3561, 1993): the closed-form ground states of the
# Hooke's-law atom have E = 1/2 at omega = 1/10 and E = 2 at omega = 1/2.
TAUT_ENERGIES = {0.1: 0.5, 0.5: 2.0}


def read_basis(key: str) -> dict:
    """The raw JSON of a bundled basis file."""
    return json.loads((DATA / f"{key}.json").read_text(encoding="utf-8"))


def sto_density(basis: dict, r) -> tuple[np.ndarray, np.ndarray]:
    """rho and drho/dr of an RHF Slater basis at radii r > 0.

    rho = (1/4pi) sum_shells occ R^2, R = sum_k c_k N_k r^(n_k-1) e^(-z_k r),
    N_k = (2 z_k)^(n_k + 1/2) / sqrt((2 n_k)!).
    """

    r = np.asarray(r, dtype=float)
    rho = np.zeros_like(r)
    d1 = np.zeros_like(r)
    for shell in basis["shells"]:
        radial = np.zeros_like(r)
        slope = np.zeros_like(r)
        for prim, coeff in zip(shell["primitives"], shell["coeffs"]):
            n, zeta = prim["n"], prim["zeta"]
            norm = (2.0 * zeta) ** (n + 0.5) / math.sqrt(math.factorial(2 * n))
            term = coeff * norm * r ** (n - 1) * np.exp(-zeta * r)
            radial += term
            slope += term * ((n - 1) / r - zeta)
        rho += shell["occ"] * radial * radial
        d1 += 2.0 * shell["occ"] * radial * slope
    return rho / (4.0 * math.pi), d1 / (4.0 * math.pi)


def _radial_rule(r_out: float = 100.0, panels: int = 200,
                 order: int = 40) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (with the 4 pi r^2 volume factor) on [0, r_out].

    Geometric panels from 1e-6 bohr outwards resolve both the nuclear
    region and the exponential tail; one panel covers [0, 1e-6].
    """

    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.concatenate([[0.0], np.geomspace(1e-6, r_out, panels)])
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = (0.5 * (hi - lo) * (x + 1.0) + lo).ravel()
    weights = (0.5 * (hi - lo) * w).ravel()
    return nodes, 4.0 * math.pi * nodes * nodes * weights


def sto_integrals(key: str) -> dict[str, float]:
    """T0, T2 and the electron count of a bundled basis, by numpy."""
    basis = read_basis(key)
    r, w = _radial_rule()
    rho, d1 = sto_density(basis, r)
    live = rho > 0.0
    return {
        "t0": float(np.sum(w * C_TF * rho ** (5.0 / 3.0))),
        "t2": float(np.sum(w[live] * d1[live] ** 2 / (72.0 * rho[live]))),
        "count": float(np.sum(w * rho)),
        "basis_count": float(basis["electron_count"]),
    }
