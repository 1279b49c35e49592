"""Pointwise resummation of the gradient expansion and total energies.

The expansion tau0 + tau2 + tau4 + tau6 is asymptotic: for real
densities the sixth-order term diverges in nuclear cusps and in the
exponential tail, so summing more terms does not converge.  The cure
examined here is a pointwise Pade approximant in the order-counting
variable x (tau_n carries x^(n/2), x = 1 physically):

    [1/1]:  tau0 + tau2^2 / (tau2 - tau4)
    [2/1]:  tau0 + tau2 + tau4^2 / (tau4 - tau6)

Both match the series through their construction order and stay
integrable where the raw sixth-order term blows up.  The price is a
simple pole wherever the denominator crosses zero; the radial integral
is then taken as a Cauchy principal value (see ``radial``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .kedf import tau_point
from .radial import (DensityModel, RadialGrid, find_poles, grid_for_density,
                     integrate_radial, principal_value_integrate)


class PadePole(ArithmeticError):
    """A Pade evaluation landed exactly on its denominator zero.

    Raised instead of returning a sentinel so callers cannot mistake a
    pole for a value; integration routes around poles via the
    principal-value machinery instead of catching this.
    """


class ResumMethod(enum.Enum):
    """The five ways this package turns tau terms into an energy."""

    T0 = "t0"
    T02 = "t02"
    T024 = "t024"
    PADE11 = "pade11"
    PADE21 = "pade21"

    @property
    def label(self) -> str:
        return _LABELS[self]

    @classmethod
    def parse(cls, token: str) -> "ResumMethod":
        """The method named by its value (``pade11``), its row label
        (``T[1/1]``) or a Pade order alone (``11``), in any case; the
        characters ``+/[]`` are ignored."""
        strip = str.maketrans("", "", "+/[]")
        aliases = {"11": cls.PADE11, "21": cls.PADE21}
        for m in cls:
            aliases[m.value] = aliases[m.label.lower().translate(strip)] = m
        try:
            return aliases[token.strip().lower().translate(strip)]
        except KeyError:
            raise ValueError(f"unknown method {token!r}; choose from "
                             f"{', '.join(m.value for m in cls)}") from None


_LABELS = {
    ResumMethod.T0: "T0",
    ResumMethod.T02: "T0+T2",
    ResumMethod.T024: "T0+T2+T4",
    ResumMethod.PADE11: "T[1/1]",
    ResumMethod.PADE21: "T[2/1]",
}

ALL_METHODS = tuple(ResumMethod)


@dataclass(frozen=True)
class KineticReport:
    """Result of integrating one method over one density."""

    method: ResumMethod
    T: float
    t_ref: float | None = None
    poles: tuple[float, ...] = ()

    @property
    def percent_error(self) -> float:
        if self.t_ref is None:
            raise ValueError("report has no reference energy")
        return percent_error(self.T, self.t_ref)


def percent_error(t: float, t_ref: float) -> float:
    """100 (T - T_ref) / T_ref; negative means underestimation."""
    if t_ref == 0.0:
        raise ValueError("reference energy is zero")
    return 100.0 * (t - t_ref) / t_ref


def partial_sum(p, order: int):
    """Sum of the expansion through the given (even) order, from the
    ``(4,)`` or ``(4, n)`` tau table ``p``, added row by row."""
    if order not in (0, 2, 4, 6):
        raise ValueError(f"order must be 0, 2, 4 or 6, got {order!r}")
    total = p[0]
    for term in p[1:order // 2 + 1]:
        total = total + term
    return total


def _rational(base, lead, square, den, pole_message: str):
    """base + square / den, elementwise.

    Where den == 0 the correction is removable if its leading term
    ``lead`` vanishes too (the value is then ``base``); otherwise the
    point is a genuine pole and PadePole is raised.
    """

    zero = den == 0.0
    if not np.any(zero):
        return base + square / den
    pole = zero & (lead != 0.0)
    if np.any(pole):
        value = float(np.broadcast_to(lead, np.shape(pole))[pole][0])
        raise PadePole(f"{pole_message} {value!r}")
    return np.where(zero, base,
                    base + square / np.where(zero, 1.0, den))[()]


def pade11(p):
    """[1/1] resummation tau0 + tau2^2 / (tau2 - tau4).

    When tau2 == tau4 == 0 the correction is removable and the value is
    the zeroth partial sum; when only the denominator vanishes the point
    is a genuine pole and PadePole is raised.
    """

    tau0, tau2, tau4, _ = p
    return _rational(tau0, tau2, tau2 * tau2, tau2 - tau4,
                     "[1/1] pole: tau2 == tau4 ==")


def pade21(p):
    """[2/1] resummation tau0 + tau2 + tau4^2 / (tau4 - tau6)."""
    return pade21_of_x(p, 1.0)


def pade21_of_x(p, x: float):
    """[2/1] approximant in the order-counting variable x.

    f(x) = tau0 + tau2 x + tau4^2 x^2 / (tau4 - tau6 x); f(1) = pade21.
    Matches the series tau0 + tau2 x + tau4 x^2 + tau6 x^3 through x^3,
    with remainder tau6^2 x^4 / (tau4 - tau6 x).
    """

    tau0, tau2, tau4, tau6 = p
    return _rational(tau0 + tau2 * x, tau4, tau4 * tau4 * x * x,
                     tau4 - tau6 * x,
                     f"[2/1](x={x!r}) pole: tau4 == tau6 x ==")


# Each method's kinetic energy density, from the tau table at a batch of
# radii (or at one radius).
EVALUATORS = {
    ResumMethod.T0: lambda p: partial_sum(p, 0),
    ResumMethod.T02: lambda p: partial_sum(p, 2),
    ResumMethod.T024: lambda p: partial_sum(p, 4),
    ResumMethod.PADE11: pade11,
    ResumMethod.PADE21: pade21,
}

_DENOMINATORS = {
    ResumMethod.PADE11: lambda p: p[1] - p[2],
    ResumMethod.PADE21: lambda p: p[2] - p[3],
}


def method_poles(model: DensityModel, methods,
                 grid: RadialGrid) -> list[list[float]]:
    """Poles of each method's integrand, one list a method.

    For the Pade methods these are the sign changes of their
    denominators, found by one ``find_poles`` scan of the stacked
    denominators: it evaluates the density once on all of the scan's
    nodes, then once per narrowing step for every bracket of every
    method.  Partial sums have none and never evaluate the scan nodes.
    """

    methods = list(methods)
    pades = [m for m in methods if m in _DENOMINATORS]
    if not pades:
        return [[] for _ in methods]

    def denominators(r):
        p = tau_point(model.eval(r), r)
        return np.array([_DENOMINATORS[m](p) for m in pades])

    found = dict(zip(pades, find_poles(denominators, grid)))
    return [found.get(m, []) for m in methods]


def run_methods(model: DensityModel, methods, grid: RadialGrid,
                t_ref: float | None = None) -> list[KineticReport]:
    """Total kinetic energy of each method over one density.

    The Pade methods' denominators are scanned together for sign
    changes (``method_poles``).  Every method without a pole, the
    partial sums and any Pade method whose scan finds none, is then
    integrated in one ``integrate_radial`` call on one interval list,
    so each density evaluation serves all of them.  A Pade method with
    poles takes the principal-value route on its own, and its poles are
    recorded in its report.
    """

    methods = list(methods)
    poles = dict(zip(methods, method_poles(model, methods, grid)))
    plain = [m for m in methods if not poles[m]]

    def integrands(r, chosen=plain):
        p = tau_point(model.eval(r), r)
        return np.array([EVALUATORS[m](p) for m in chosen])

    values = dict(zip(plain, integrate_radial(integrands, grid)
                      if plain else ()))
    for m in methods:
        if poles[m]:
            values[m] = principal_value_integrate(
                lambda r: integrands(r, [m])[0], poles[m], grid)
    return [KineticReport(method=m, T=float(values[m]), t_ref=t_ref,
                          poles=tuple(poles[m])) for m in methods]


def integrate_method(model: DensityModel, method: ResumMethod,
                     grid: RadialGrid,
                     t_ref: float | None = None) -> KineticReport:
    """``run_methods`` with one method."""
    return run_methods(model, [method], grid, t_ref)[0]


def table_headers(key: str, reference: str,
                  methods=ALL_METHODS) -> list[str]:
    """The headers of an accuracy-table row: the row key, the reference
    energy and one ``err%[label]`` per method."""
    return [key, reference] + [f"err%[{m.label}]" for m in methods]


def error_columns(model: DensityModel, t_ref: float,
                  methods=ALL_METHODS) -> list[str]:
    """The cells of an accuracy-table row after its key.

    ``t_ref`` to six significant digits, then each method's percent
    error against it, integrated on the density's tail-rule grid and
    printed to two decimals, as the CLI rows and the table script show
    them.
    """

    grid = grid_for_density(model)
    return [f"{t_ref:.6g}"] + [
        f"{rep.percent_error:+.2f}"
        for rep in run_methods(model, methods, grid, t_ref)]
