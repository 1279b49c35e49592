"""Closed-form density models used by tests, examples, and benchmarks."""

from __future__ import annotations

import math

import numpy as np

from . import jets
from .radial import DensityModel


def gaussian_density(alpha: float = 1.0,
                     amplitude: float = 1.0) -> DensityModel:
    """rho(r) = amplitude * exp(-alpha r^2)."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    count = amplitude * (math.pi / alpha) ** 1.5

    def profile(r):
        return amplitude * jets.gaussian(r, alpha)

    return DensityModel(profile=profile, electron_count=count,
                        label=f"gaussian(alpha={alpha:g})")


def exponential_density(zeta: float = 1.0,
                        amplitude: float = 1.0) -> DensityModel:
    """rho(r) = amplitude * exp(-zeta r) (hydrogenic shape, cusp at 0)."""
    if zeta <= 0.0:
        raise ValueError("zeta must be positive")
    count = amplitude * 8.0 * math.pi / zeta ** 3

    def profile(r):
        return amplitude * jets.exponential(r, zeta)

    return DensityModel(profile=profile, electron_count=count,
                        label=f"exponential(zeta={zeta:g})")


def polynomial_gaussian_density(alpha: float = 1.0,
                                amplitude: float = 1.0) -> DensityModel:
    """rho(r) = amplitude * (1 + r^2) exp(-alpha r^2)."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    count = amplitude * (math.pi / alpha) ** 1.5 * (1.0 + 1.5 / alpha)

    def profile(r):
        return jets.multiply(jets.polynomial(r, (amplitude, 0.0, amplitude)),
                             jets.gaussian(r, alpha))

    return DensityModel(profile=profile, electron_count=count,
                        label=f"poly-gaussian(alpha={alpha:g})")


def scale_density(model: DensityModel, factor: float) -> DensityModel:
    """rho -> factor * rho, keeping the derivative bundle consistent."""
    if factor <= 0.0:
        raise ValueError("scale factor must be positive")

    def profile(r):
        return factor * np.asarray(model.profile(r))

    return DensityModel(profile=profile,
                        electron_count=factor * model.electron_count,
                        label=f"{model.label} x {factor:g}",
                        r_support=model.r_support)
