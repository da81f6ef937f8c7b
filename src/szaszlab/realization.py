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
from math import isnan

import numpy as np

from .errors import BandError, ParameterError, _integer
from .grid import Field, Spectrum, _finite, _whole, forward_ft, inverse_ft, radial_xi
from .littlewood_paley import _box, _partial_sum, feasible_band
from .spaces import _lr_norm, _norm
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
    g = f.grid
    return inverse_ft(Spectrum(g, _partial_sum(forward_ft(f).coeffs, g, *_sigma0_levels(g, M), _whole(g))))


def _sigma0_levels(g, M: int) -> tuple[int, int]:
    """The in-band levels (j_lo, j_hi) of [-M, M], which sigma_0(f, M) sums."""
    M, band = _integer(M, "M"), feasible_band(g)
    if max(-M, band.j_min) > min(M, band.j_max):
        raise BandError(f"levels [-{M}, {M}] miss the feasible band [{band.j_min}, {band.j_max}]")
    return max(-M, band.j_min), min(M, band.j_max)


def low_frequency_mass(f: Field, R: float) -> float:
    """sum_{0 < |xi_k| <= R} |coeffs[k]| dxi^n, the k = 0 bin excluded.

    Raises:
        ParameterError: when R is nan, or "non-finite input" when f holds a
            nan or an infinity.
        BandError: "radius below resolution" when R <= dxi.
    """
    return _low_mass(f, R, forward_ft(f).coeffs)


def _low_mass(f: Field, R: float, coeffs: np.ndarray, levels: tuple | None = None) -> float:
    """The mass of f's centered ``coeffs`` (of sigma_0's for ``levels``), read on the box of |xi| <= R."""
    g = f.grid
    if isnan(R):
        raise ParameterError(f"invalid params: R must be a number, got {R}")
    if not R > g.dxi:
        raise BandError(f"radius below resolution: R={R} <= dxi={g.dxi}")
    box = _box(g, R)
    r = radial_xi(g)[box]
    keep = (r > 0.0) & (r <= R)
    with np.errstate(invalid="ignore"):  # inf times a zero of sigma_0's multiplier
        values = coeffs[box] if levels is None else _partial_sum(coeffs, g, *levels, box)
    return _finite(_lr_norm(values[keep], 1.0, g.dxi**g.n), f.values, "samples")


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

    The mass is read from sigma_0's spectrum, one multiplier on the box
    of |xi| <= R, rather than from a synthesized partial sum, and the norm
    takes the same spectrum, ``forward_ft(f)``: a witness field's exact one.

    Raises:
        ParameterError: when M is not an integer >= 0, when R is nan, when
            ``query.n`` is not the field's dimension, or "non-finite input"
            when f holds a nan or an infinity.
        BandError: when no level of [-M, M] is resolvable on f's grid, or
            when R <= dxi.
    """
    _require_grid_dimension(query, f.grid)
    M = _integer(M, "M")
    levels = _sigma0_levels(f.grid, M)
    spec = forward_ft(f)
    return RealizationReport(
        M=M,
        low_mass=_low_mass(f, R, spec.coeffs, levels),
        besov=_norm(f, query.space, spec),
        feasible=realization_feasible(query),
    )
