"""Shared fixtures: small grids and band-confined test fields.

The module tests run on scaled-down versions of the production presets so
the whole suite stays fast; the acceptance tests use the real presets.
"""

import numpy as np
import pytest

from szaszlab import Field, GridSpec, Spectrum, inverse_ft
from szaszlab.grid import _supported
from szaszlab.littlewood_paley import _mollifier_step


@pytest.fixture(scope="session")
def grid_1d() -> GridSpec:
    """Gaussian-friendly grid: L = 64, N = 4096."""
    return GridSpec(1, 4096, 64.0)


@pytest.fixture(scope="session")
def grid_mid() -> GridSpec:
    """Fast analysis grid, dxi = 1/8, band [0, 9]."""
    return GridSpec(1, 2**14, 16.0 * np.pi)


@pytest.fixture(scope="session")
def grid_wide() -> GridSpec:
    """Large-box grid, dxi = 2^-12, band [-9, 4]; hosts low-frequency annuli."""
    return GridSpec(1, 2**18, 2.0**12 * 2.0 * np.pi)


@pytest.fixture(scope="session")
def grid_2d() -> GridSpec:
    return GridSpec(2, 256, 32.0)


def bound_free(spec: Spectrum) -> Spectrum:
    """The same coefficients and support with no certified boundary ratio, so the boundary check synthesizes them."""
    return _supported(Spectrum(spec.grid, spec.coeffs), spec._support)


def plateau_field(grid: GridSpec, j: int, center_shift: float = 0.0) -> Field:
    """Real field with smooth spectrum inside {3/4 * 2^j <= |xi| <= 2^j}.

    On that window the level-j multiplier is identically 1 and all other
    levels vanish, so norms reduce to closed forms.  ``center_shift`` nudges
    the bump inside the window (units of the window width).
    """
    r = np.abs(grid.xi_axis()) if grid.n == 1 else None
    if grid.n == 2:
        ax = grid.xi_axis()
        r = np.sqrt(ax[:, None] ** 2 + ax[None, :] ** 2)
    t = r / 2.0**j
    lo, hi = 0.76 + 0.02 * center_shift, 0.99 + 0.002 * center_shift
    u = (t - lo) / (hi - lo)
    prof = _mollifier_step(4.0 * u) * _mollifier_step(4.0 * (1.0 - u))
    return inverse_ft(Spectrum(grid, prof.astype(np.complex128)))


def wave_packet(grid: GridSpec, xi0: float, width: float) -> Field:
    """Real Gaussian wave packet cos(xi0 x) exp(-(x/width)^2).

    Spectrum is a pair of Gaussians of scale 1/width at +-xi0: effectively
    band-confined and rapidly decaying in the box, the workhorse for
    dilation/scaling tests.
    """
    x = grid.x_axis()
    if grid.n == 1:
        vals = np.exp(-((x / width) ** 2)) * np.cos(xi0 * x)
    else:
        X, Y = np.meshgrid(x, x, indexing="ij")
        vals = np.exp(-((X / width) ** 2 + (Y / width) ** 2)) * np.cos(xi0 * X)
    return Field(grid, vals)
