"""Littlewood-Paley multipliers and dyadic band projections.

The decomposition is built from one smooth radial profile gamma supported on
the annulus 1/2 <= |t| <= 3/2 with the telescoping property

    sum_j gamma(2^-j t) = 1   for every t != 0,

realized as gamma(t) = phi(t) - phi(2t) where phi is a mollifier-based
low-pass profile (1 on |t| <= 1, 0 on |t| >= 3/2).  The projection Q_j
multiplies the spectrum by gamma(2^-j |xi|), so the j-th piece lives exactly
on the annulus 2^(j-1) <= |xi| <= 3 * 2^(j-1) and gamma is identically 1 on
3/4 * 2^j <= |xi| <= 2^j.

On a finite grid only finitely many levels are resolvable; ``feasible_band``
returns the dyadic levels whose annuli fit between the frequency resolution
(at least KAPPA bins across the lowest annulus) and a safety margin below
the Nyquist frequency.

Every consumer reads and writes a spectral piece through one cached
primitive: ``_piece_blocks(grid, j)`` lists the (box, multiplier) blocks of
level j (of the low-pass piece S_0 for j None) in centered order, and the
piece is exactly zero off them; ``_box`` gives the box holding a ball, which
the witness terms use too, and ``_put_window`` writes a block into a row in
FFT-natural order or into the circular frequency window of a narrow piece.
Only this module knows how a piece is laid out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BandError, _integer
from .grid import Field, GridSpec, Spectrum, forward_ft, inverse_ft, radial_xi

__all__ = [
    "KAPPA",
    "SAFETY",
    "lowpass_profile",
    "gamma_profile",
    "BandLimits",
    "feasible_band",
    "lp_mask",
    "lp_project",
    "apply_level_mask",
]

#: minimum number of frequency bins across the lowest resolvable annulus
KAPPA = 4.0

#: fraction of the Nyquist frequency usable before aliasing concerns
SAFETY = 0.9


def _mollifier_step(x):
    """Smooth step: 0 for x <= 0, 1 for x >= 1, e^(-1/x)-ratio in between."""
    x = np.asarray(x, dtype=float)
    lo = x <= 0.0
    hi = x >= 1.0
    mid = ~(lo | hi)
    out = np.zeros_like(x)
    out[hi] = 1.0
    xm = x[mid]
    a = np.exp(-1.0 / xm)
    b = np.exp(-1.0 / (1.0 - xm))
    out[mid] = a / (a + b)
    return out


def lowpass_profile(t):
    """Smooth low-pass profile: 1 for |t| <= 1, 0 for |t| >= 3/2.

    The transition on (1, 3/2) is the mollifier ratio step, so the profile is
    infinitely smooth with values in [0, 1].  Accepts scalars or arrays.
    """
    t = np.abs(np.asarray(t, dtype=float))
    out = _mollifier_step(3.0 - 2.0 * t)
    if out.ndim == 0:
        return float(out)
    return out


def gamma_profile(t):
    """Annulus profile gamma(t) = phi(|t|) - phi(2|t|).

    Supported on 1/2 <= |t| <= 3/2, identically 1 on 3/4 <= |t| <= 1, and the
    dyadic translates gamma(2^-j t) sum to 1 for every t != 0.
    """
    t = np.asarray(t, dtype=float)
    return lowpass_profile(t) - lowpass_profile(2.0 * t)


@dataclass(frozen=True)
class BandLimits:
    """Range of dyadic levels j resolvable on a grid (inclusive)."""

    j_min: int
    j_max: int

    def __post_init__(self):
        if self.j_min > self.j_max:
            raise BandError(f"empty band: j_min={self.j_min} > j_max={self.j_max}")

    def levels(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def __contains__(self, j: int) -> bool:
        return self.j_min <= j <= self.j_max

    @property
    def cover_lo(self) -> float:
        """Lowest frequency covered by the annuli of the band."""
        return 2.0 ** (self.j_min - 1)

    @property
    def cover_hi(self) -> float:
        """Highest frequency covered by the annuli of the band."""
        return 3.0 * 2.0 ** (self.j_max - 1)

    @property
    def unity_lo(self) -> float:
        """Low end of the interval where the band's gamma sum is exactly 1."""
        return 3.0 * 2.0 ** (self.j_min - 2)

    @property
    def unity_hi(self) -> float:
        """High end of the interval where the band's gamma sum is exactly 1."""
        return 2.0**self.j_max


def feasible_band(grid: GridSpec) -> BandLimits:
    """Dyadic levels whose annuli fit on the grid.

    j_max is the largest j with 3 * 2^(j-1) <= SAFETY * xi_max and j_min the
    smallest j with 2^(j-1) >= KAPPA * dxi.

    Raises:
        BandError: "grid too coarse" when no level satisfies both.
    """
    top = SAFETY * grid.xi_max
    j_max = math.ceil(math.log2(top)) + 1
    while 3.0 * 2.0 ** (j_max - 1) > top:
        j_max -= 1
    low = KAPPA * grid.dxi
    j_min = math.floor(math.log2(low))
    while 2.0 ** (j_min - 1) < low:
        j_min += 1
    if j_min > j_max:
        raise BandError(
            f"grid too coarse: needs j_min={j_min} <= j_max={j_max} "
            f"(dxi={grid.dxi:.4g}, xi_max={grid.xi_max:.4g})"
        )
    return BandLimits(j_min, j_max)


def _box(grid: GridSpec, radius: float) -> tuple:
    """Centered slices of the smallest box |k_i| <= h holding the ball |xi| <= radius.

    h = floor(radius / dxi), and the box is clipped to the grid, so a ball
    reaching the Nyquist frequency keeps the bin -N/2.  ``radial_xi(grid)[box]``
    is |xi| on the box, a view of the cached array.  Every profile read
    through a box vanishes on the sphere |xi| = radius, so a rounding of
    radius / dxi that loses a bin there loses only a zero.
    """
    c, h = grid.center, math.floor(radius / grid.dxi)
    return (slice(max(0, c - h), min(grid.N, c + h + 1)),) * grid.n


@lru_cache(maxsize=256)
def _piece_blocks(grid: GridSpec, j: int | None) -> list:
    """Where level j's multiplier gamma(2^-j |xi|) is nonzero (S_0's lowpass profile for j None).

    Returns (box, multiplier) pairs: the piece is ``coeffs[box] * multiplier``
    on each box, in centered order, and exactly zero off the boxes.  The
    multipliers are read-only.  A 1-D level is two one-sided blocks on the
    annulus bins k_lo..k_hi and their mirror, sharing one multiplier array
    (the negative side is a reversed view), so the hole |xi| < 2^(j-1) is
    neither read nor cached; k_hi stops at N/2 - 1, where an in-band
    multiplier is zero.  Every other piece is the one box holding its ball.
    """
    if j is None:
        box = _box(grid, 1.5)
        return [(box, _read_only(lowpass_profile(radial_xi(grid)[box])))]
    scale = 2.0**j
    if grid.n != 1:
        box = _box(grid, 1.5 * scale)
        return [(box, _read_only(gamma_profile(radial_xi(grid)[box] / scale)))]
    c = grid.center
    k_lo = max(1, math.floor(0.5 * scale / grid.dxi))
    k_hi = min(grid.N // 2 - 1, math.ceil(1.5 * scale / grid.dxi))
    if k_hi < k_lo:
        return []
    pos = (slice(c + k_lo, c + k_hi + 1),)
    vals = _read_only(gamma_profile(radial_xi(grid)[pos] / scale))
    return [(pos, vals), ((slice(c - k_hi, c - k_lo + 1),), vals[::-1])]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _put_window(out: np.ndarray, box: tuple, block: np.ndarray, N: int, start: tuple) -> None:
    """Write ``block``, the values on a centered ``box`` of an N-point grid, into a window.

    Axis i of ``out`` holds the frequencies start_i, start_i + 1, ... (mod
    N): frequency k goes to index (k - start_i) mod N, and a bin whose index
    falls outside ``out`` is dropped, so it must be zero.  With start 0 and
    N bins per axis this is FFT-natural order, frequency k at index k mod N.
    A box crossing the window's wrap point splits in two per axis.
    """
    c = N // 2

    def parts(s: slice, k0: int, size: int):
        first, length = (s.start - c - k0) % N, s.stop - s.start
        head = min(length, N - first, size - first)
        if head > 0:
            yield slice(first, first + head), slice(0, head)
        if length > N - first:  # the bins past the wrap point start the window
            tail = min(length - (N - first), size)
            yield slice(0, tail), slice(N - first, N - first + tail)

    for split in itertools.product(*(parts(s, k0, size) for s, k0, size in zip(box, start, out.shape))):
        out[tuple(dst for dst, _ in split)] = block[tuple(src for _, src in split)]


def lp_mask(grid: GridSpec, j: int) -> np.ndarray:
    """Spectral multiplier gamma(2^-j |xi|) evaluated at every grid bin."""
    return np.asarray(gamma_profile(radial_xi(grid) / 2.0**j))


def apply_level_mask(coeffs: np.ndarray, grid: GridSpec, j: int) -> np.ndarray:
    """coeffs * gamma(2^-j |xi|) with exact zeros outside the annulus."""
    out = np.zeros_like(coeffs)
    _add_level(out, coeffs, grid, j)
    return out


def _add_level(acc: np.ndarray, coeffs: np.ndarray, grid: GridSpec, j: int) -> None:
    """acc += coeffs * gamma(2^-j |xi|), in centered order, on the level's blocks only."""
    for box, mult in _piece_blocks(grid, j):
        acc[box] += coeffs[box] * mult


def lp_project(f: Field, j: int) -> Field:
    """Littlewood-Paley piece Q_j f (spectrum masked by level-j gamma).

    The result's spectrum vanishes exactly outside
    2^(j-1) <= |xi| <= 3 * 2^(j-1).

    Raises:
        ParameterError: when j is not an integer.
        BandError: "level out of band" when j is not resolvable on f's grid.
    """
    j = _integer(j, "j", None)
    band = feasible_band(f.grid)
    if j not in band:
        raise BandError(
            f"level out of band: j={j} not in [{band.j_min}, {band.j_max}]"
        )
    s = forward_ft(f)
    return inverse_ft(Spectrum(f.grid, apply_level_mask(s.coeffs, f.grid, j)))
