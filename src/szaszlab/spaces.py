"""Besov and Lizorkin-Triebel quasi-norms from Littlewood-Paley pieces.

For the homogeneous spaces the norm combines the dyadic pieces Q_j f over
the grid's feasible band,

    B-family:  ( sum_j (2^(js) ||Q_j f||_r)^q )^(1/q)
    F-family:  || ( sum_j (2^(js) |Q_j f|)^q )^(1/q) ||_r

with supremum semantics when q or r is infinite (r < infinity in the
F-case).  The k = 0 Fourier bin is discarded in the homogeneous setting: on
a periodic grid that single bin is the only remnant of the "modulo
polynomials" ambiguity of the continuum spaces.  The inhomogeneous variants
replace the levels j < 1 by a single smooth low-pass piece S_0 f.

Quadrature is the plain Riemann sum on the uniform grid, which is accurate
superalgebraically for the smooth decaying fields this package works with.
At r = 2 the Besov norm takes each piece's Riemann sum from Parseval on the
piece's spectral window instead, which is the same sum without synthesizing
the piece.  The norms accept a field or its spectrum; a spectrum built
exactly (as the witness families are) leaves the levels it does not reach
exactly empty, and those are skipped.
For r < 1 or q < 1 the same formulas produce quasi-norms; nothing here
assumes the triangle inequality.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import isfinite, isinf, sqrt

import numpy as np

from .errors import ModelFidelityWarning, ParameterError
from .grid import Field, Spectrum, forward_ft, inverse_ft, radial_xi, warn_if_boundary_mass
from .littlewood_paley import (
    BandLimits,
    _annulus_window_1d,
    apply_level_mask,
    feasible_band,
    lowpass_profile,
)

__all__ = ["SpaceParams", "lr_quasinorm", "besov_norm", "triebel_norm", "space_norm"]

#: relative spectral mass allowed outside the feasible band before a
#: truncation warning is issued
OUT_OF_BAND_TOL = 1e-10


@dataclass(frozen=True)
class SpaceParams:
    """Parameters (s, r, q) of a Besov or Lizorkin-Triebel space.

    Attributes:
        s: smoothness, any finite real.
        r: integrability exponent in (0, inf]; finite in the F-case.
        q: summability exponent in (0, inf].
        family: "B" (Besov) or "F" (Lizorkin-Triebel).
        setting: "homogeneous" or "inhomogeneous".
    """

    s: float
    r: float
    q: float
    family: str = "B"
    setting: str = "homogeneous"

    def __post_init__(self):
        if not isfinite(self.s):
            raise ParameterError(f"invalid params: s must be finite, got {self.s}")
        for name, value in (("r", self.r), ("q", self.q)):
            if not value > 0:
                raise ParameterError(f"invalid params: {name} must be > 0, got {value}")
        if self.family not in ("B", "F"):
            raise ParameterError(f"invalid params: family must be B or F, got {self.family!r}")
        if self.setting not in ("homogeneous", "inhomogeneous"):
            raise ParameterError(
                f"invalid params: setting must be homogeneous or inhomogeneous, got {self.setting!r}"
            )
        if self.family == "F" and isinf(self.r):
            raise ParameterError("r=inf unsupported in F-case")

    @property
    def homogeneous(self) -> bool:
        return self.setting == "homogeneous"


def lr_quasinorm(f: Field, r: float) -> float:
    """L_r quasi-norm of a sampled field, (sum |f(x_i)|^r dx^n)^(1/r).

    r = inf uses the grid maximum of |f|.

    Raises:
        ParameterError: "invalid exponent" for r <= 0.
    """
    if not r > 0:
        raise ParameterError(f"invalid exponent: r must be > 0, got {r}")
    a = np.abs(f.values)
    if isinf(r):
        return float(a.max())
    g = f.grid
    return float(np.sum(a**r) * g.dx**g.n) ** (1.0 / r)


def _ell_q(values: np.ndarray, q: float) -> float:
    """l_q combination of a finite nonnegative sequence (max for q = inf)."""
    if values.size == 0:
        return 0.0
    if isinf(q):
        return float(values.max())
    return float(np.sum(values**q)) ** (1.0 / q)


def _prepared_spectrum(f: Field | Spectrum, params: SpaceParams) -> tuple[Spectrum, BandLimits]:
    """Spectrum of f plus the model-fidelity validations shared by norms.

    A Field is transformed once.  A Spectrum is used as given and is
    synthesized once for the boundary check only; that field is dropped
    before the norm's levels are evaluated.  Neither path copies the
    spectrum: the k = 0 bin that the homogeneous norms discard lies outside
    every level mask, so it needs no zeroing.
    """
    if isinstance(f, Field):
        field, spec = f, forward_ft(f)
    else:
        field, spec = None, f
    g = spec.grid
    band = feasible_band(g)
    r = radial_xi(g)
    covered = r <= band.cover_hi
    if params.homogeneous:
        covered &= r >= band.cover_lo
        covered |= r == 0.0  # the discarded bin is not "leaked" mass
    total = float(np.sum(np.abs(spec.coeffs)))
    if total > 0.0:
        outside = float(np.sum(np.abs(spec.coeffs[~covered])))
        if outside > OUT_OF_BAND_TOL * total:
            warnings.warn(
                f"spectral mass {outside/total:.2e} of total lies outside the "
                f"feasible band's annuli; the truncated norm misses it",
                ModelFidelityWarning,
                stacklevel=3,
            )
    warn_if_boundary_mass(field if field is not None else inverse_ft(spec), "space norm")
    return spec, band


def _norm_levels(params: SpaceParams, band) -> list[int]:
    if params.homogeneous:
        return list(band.levels())
    return [j for j in band.levels() if j >= 1]


def _lowpass_coeffs(spec: Spectrum) -> np.ndarray:
    return spec.coeffs * lowpass_profile(radial_xi(spec.grid))


def _lowpass_piece(spec: Spectrum) -> np.ndarray:
    return inverse_ft(Spectrum(spec.grid, _lowpass_coeffs(spec))).values


def _parseval_l2(grid, energy: float) -> float:
    """||g||_2 of the field whose coefficients have sum |c_k|^2 = ``energy``."""
    return sqrt(energy * grid.dxi**grid.n / (2.0 * np.pi) ** grid.n)


def _level_l2(spec: Spectrum, j: int) -> float:
    """||Q_j f||_2 by Parseval on the level-j annulus, with no synthesis.

    In 1-D only the annulus window's bins are read; no full-grid array is
    allocated.
    """
    g = spec.grid
    if g.n != 1:
        return _parseval_l2(g, float(np.sum(np.abs(apply_level_mask(spec.coeffs, g, j)) ** 2)))
    c = g.center
    k_lo, vals = _annulus_window_1d(g, j)
    w = len(vals)
    pos = spec.coeffs[c + k_lo : c + k_lo + w] * vals
    neg = spec.coeffs[c - k_lo - w + 1 : c - k_lo + 1] * vals[::-1]
    return _parseval_l2(g, float(np.sum(np.abs(pos) ** 2) + np.sum(np.abs(neg) ** 2)))


def besov_norm(f: Field | Spectrum, params: SpaceParams) -> float:
    """Besov quasi-norm of a sampled field, given as a Field or its Spectrum.

    Homogeneous: l_q over the feasible band of 2^(js) ||Q_j f||_r, with the
    k = 0 bin discarded.  Inhomogeneous: ||S_0 f||_r joins the l_q sum with
    the levels j >= 1.  At r = 2 each piece's norm comes from Parseval on
    its spectral window; every other r synthesizes the nonempty pieces on
    the full grid.

    Raises:
        ParameterError: "invalid params" when params.family != "B".
    """
    if params.family != "B":
        raise ParameterError(f"invalid params: besov_norm needs family B, got {params.family}")
    spec, band = _prepared_spectrum(f, params)
    g = spec.grid
    parseval = params.r == 2.0
    summands = []
    if not params.homogeneous:
        if parseval:
            summands.append(_parseval_l2(g, float(np.sum(np.abs(_lowpass_coeffs(spec)) ** 2))))
        else:
            summands.append(lr_quasinorm(Field(g, _lowpass_piece(spec)), params.r))
    for j in _norm_levels(params, band):
        if parseval:
            summands.append(2.0 ** (j * params.s) * _level_l2(spec, j))
            continue
        masked = apply_level_mask(spec.coeffs, g, j)
        if not masked.any():
            summands.append(0.0)
            continue
        piece = inverse_ft(Spectrum(g, masked))
        summands.append(2.0 ** (j * params.s) * lr_quasinorm(piece, params.r))
    return _ell_q(np.asarray(summands), params.q)


def triebel_norm(f: Field | Spectrum, params: SpaceParams) -> float:
    """Lizorkin-Triebel quasi-norm of a sampled field, given as a Field or its Spectrum.

    The l_q sum over levels is taken pointwise on the grid before the L_r
    quadrature.  Requires r < inf.

    Raises:
        ParameterError: "invalid params" / "r=inf unsupported in F-case".
    """
    if params.family != "F":
        raise ParameterError(f"invalid params: triebel_norm needs family F, got {params.family}")
    if isinf(params.r):
        raise ParameterError("r=inf unsupported in F-case")
    spec, band = _prepared_spectrum(f, params)
    g = spec.grid
    q = params.q

    acc = np.zeros(g.shape)
    for j in _norm_levels(params, band):
        masked = apply_level_mask(spec.coeffs, g, j)
        if not masked.any():
            continue
        piece = np.abs(inverse_ft(Spectrum(g, masked)).values)
        piece *= 2.0 ** (j * params.s)
        if isinf(q):
            np.maximum(acc, piece, out=acc)
        else:
            acc += piece**q
    if not params.homogeneous:
        piece = np.abs(_lowpass_piece(spec))
        if isinf(q):
            np.maximum(acc, piece, out=acc)
        else:
            acc += piece**q
    pointwise = acc if isinf(q) else acc ** (1.0 / q)
    return lr_quasinorm(Field(g, pointwise), params.r)


def space_norm(f: Field | Spectrum, params: SpaceParams) -> float:
    """Dispatch to :func:`besov_norm` or :func:`triebel_norm` by family."""
    if params.family == "B":
        return besov_norm(f, params)
    return triebel_norm(f, params)
