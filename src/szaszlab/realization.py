"""Standard realization as Littlewood-Paley partial sums, and low-frequency
integrability diagnostics.

The partial sums sigma_0(f, M) = sum_{|j| <= M} Q_j f realize a distribution
from its dyadic pieces; on the grid the observable shadows of their
convergence are the samples themselves and the low-frequency Fourier mass

    integral_{0 < |xi| <= R} |F(f)(xi)| dxi ,

which must admit a bound c_R ||f|| uniformly in f exactly when a
translation-commuting realization exists.  ``realization_feasible`` decides
that condition; ``low_frequency_mass`` measures the integral;
``realization_report`` bundles both with the space norm for one field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BandError, _integer
from .grid import Field, Spectrum, forward_ft, inverse_ft, radial_xi
from .littlewood_paley import _add_level, feasible_band
from .spaces import _norm
from .szasz import SzaszQuery, _require_grid_dimension, translation_realization_gate

__all__ = [
    "RealizationReport",
    "sigma0_partial",
    "low_frequency_mass",
    "realization_feasible",
    "realization_report",
]


@dataclass(frozen=True)
class RealizationReport:
    """Diagnostics of the standard realization for one field and query."""

    M: int
    low_mass: float
    besov: float
    feasible: bool

    def to_record(self) -> dict:
        return {
            "M": self.M,
            "low_mass": self.low_mass,
            "space_norm": self.besov,
            "feasible": self.feasible,
        }


def sigma0_partial(f: Field, M: int) -> Field:
    """Littlewood-Paley partial sum over the levels -M..M that are in band.

    Raises:
        ParameterError: when M is not an integer >= 0.
        BandError: when no level of [-M, M] is resolvable on f's grid.
    """
    return inverse_ft(Spectrum(f.grid, _sigma0_coeffs(forward_ft(f), M)))


def _sigma0_coeffs(spec: Spectrum, M: int) -> np.ndarray:
    """Spectrum of sigma_0(f, M) from the spectrum of f: the summed level masks."""
    M = _integer(M, "M")
    g = spec.grid
    band = feasible_band(g)
    j_lo = max(-M, band.j_min)
    j_hi = min(M, band.j_max)
    if j_lo > j_hi:
        raise BandError(
            f"levels [-{M}, {M}] miss the feasible band [{band.j_min}, {band.j_max}]"
        )
    acc = np.zeros(g.shape, dtype=np.complex128)
    for j in range(j_lo, j_hi + 1):
        _add_level(acc, spec.coeffs, g, j)
    return acc


def low_frequency_mass(f: Field, R: float) -> float:
    """sum_{0 < |xi_k| <= R} |coeffs[k]| dxi^n, the k = 0 bin excluded.

    Raises:
        BandError: "radius below resolution" when R <= dxi.
    """
    return _low_mass(forward_ft(f).coeffs, f.grid, R)


def _low_mass(coeffs: np.ndarray, g, R: float) -> float:
    if not R > g.dxi:
        raise BandError(f"radius below resolution: R={R} <= dxi={g.dxi}")
    r = radial_xi(g)
    keep = (r > 0.0) & (r <= R)
    return float(np.sum(np.abs(coeffs[keep])) * g.dxi**g.n)


def realization_feasible(query: SzaszQuery) -> bool:
    """Whether the space admits a translation-commuting realization.

    B-family: s < n/r or (s = n/r and q <= 1); F-family: s < n/r or
    (s = n/r and r <= 1), with infinity-aware comparisons.
    """
    ok, _ = translation_realization_gate(
        query.space.s, query.space.r, query.space.q, query.n, query.space.family
    )
    return ok


def realization_report(f: Field, query: SzaszQuery, M: int, R: float = 1.0) -> RealizationReport:
    """Evaluate the low-frequency mass of sigma_0(f, M) alongside the norm.

    f is transformed once.  The mass is read from sigma_0's spectrum, the
    summed level masks, rather than from a synthesized partial sum, and the
    norm takes the same spectrum.

    Raises:
        ParameterError: when M is not an integer >= 0, or when ``query.n``
            is not the field's dimension.
        BandError: when no level of [-M, M] is resolvable on f's grid.
    """
    _require_grid_dimension(query, f.grid)
    M = _integer(M, "M")
    spec = forward_ft(f)
    return RealizationReport(
        M=M,
        low_mass=_low_mass(_sigma0_coeffs(spec, M), f.grid, R),
        besov=_norm(f, query.space, spec),
        feasible=realization_feasible(query),
    )
