"""Periodic grid model and the discrete approximation of the Fourier transform.

A function on R^n is represented by its samples on a uniform grid over the
box [-L/2, L/2)^n with N points per axis.  Its continuous Fourier transform

    F(f)(xi) = integral f(x) exp(-i x.xi) dx      (angular frequency)

is approximated by the Riemann sum over the samples, evaluated at the grid
frequencies xi_k = (2*pi/L) * k for centered integer multi-indices
k in [-N/2, N/2)^n.  With that convention the FFT computes the sum exactly,
so ``inverse_ft(forward_ft(f)) == f`` up to roundoff, and for functions that
decay inside the box the coefficients converge superalgebraically to the
continuum transform.

Dyadic dilations f(x / 2^m) and grid-aligned translations are provided as
exact grid operations; they are the only dilations/translations that commute
with the dyadic Littlewood-Paley ladder built on top of this module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as _fft

from .errors import BandError, ModelFidelityWarning, ParameterError, _integer

__all__ = [
    "GridSpec",
    "Field",
    "Spectrum",
    "forward_ft",
    "inverse_ft",
    "inverse_ft_rows",
    "dyadic_dilate",
    "grid_translate",
    "radial_xi",
    "boundary_decay_ratio",
]

#: fields should sit below this fraction of their peak near the box boundary
#: for the periodic model to faithfully represent a function on R^n
BOUNDARY_TOL = 1e-12

#: width of the boundary shell checked by :func:`boundary_decay_ratio`,
#: as a fraction of the box side
BOUNDARY_MARGIN = 0.05


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic sampling grid on [-L/2, L/2)^n.

    Attributes:
        n: spatial dimension, 1 or 2.
        N: samples per axis; a power of two, at least 16.
        L: box side length (spatial units), strictly positive.
    """

    n: int
    N: int
    L: float

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n"))
        object.__setattr__(self, "N", _integer(self.N, "N"))
        if self.n not in (1, 2):
            raise ParameterError(f"dimension n must be 1 or 2, got {self.n}")
        if self.N < 16 or (self.N & (self.N - 1)) != 0:
            raise ParameterError(f"N must be a power of two >= 16, got {self.N}")
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ParameterError(f"L must be a positive real, got {self.L}")

    @property
    def dx(self) -> float:
        """Grid spacing L / N."""
        return self.L / self.N

    @property
    def dxi(self) -> float:
        """Frequency spacing 2*pi / L."""
        return 2.0 * np.pi / self.L

    @property
    def xi_max(self) -> float:
        """Nyquist frequency pi * N / L."""
        return np.pi * self.N / self.L

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    @property
    def center(self) -> int:
        """Array index of x = 0 (and of xi = 0 on the spectral side)."""
        return self.N // 2

    def x_axis(self) -> np.ndarray:
        """Sample coordinates along one axis, x_i = (i - N/2) * dx."""
        return (np.arange(self.N) - self.center) * self.dx

    def xi_axis(self) -> np.ndarray:
        """Grid frequencies along one axis, xi_k = (k - N/2) * dxi."""
        return (np.arange(self.N) - self.center) * self.dxi


@dataclass(frozen=True)
class Field:
    """Complex samples of a function on a :class:`GridSpec`."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape:
            raise ParameterError(
                f"field shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Spectrum:
    """Centered Fourier coefficients of a field.

    ``coeffs[k]`` (multi-index k relative to the array center) approximates
    F(f)(xi_k).  The entry at the center approximates F(f)(0); consumers with
    homogeneous-weight semantics must exclude it.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != self.grid.shape:
            raise ParameterError(
                f"spectrum shape {c.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "coeffs", c)


@lru_cache(maxsize=8)
def _radial_xi_cached(grid: GridSpec) -> np.ndarray:
    ax = grid.xi_axis()
    if grid.n == 1:
        r = np.abs(ax)
    else:
        r = np.sqrt(ax[:, None] ** 2 + ax[None, :] ** 2)
    r.setflags(write=False)
    return r


def radial_xi(grid: GridSpec) -> np.ndarray:
    """|xi| at every spectral bin (Euclidean norm in n = 2). Read-only array."""
    return _radial_xi_cached(grid)


def forward_ft(f: Field) -> Spectrum:
    """Discrete approximation of F(f)(xi) = integral f(x) exp(-i x.xi) dx.

    Computed as (L/N)^n * sum_i f(x_i) exp(-i x_i . xi_k) via an FFT with
    centered index bookkeeping.
    """
    g = f.grid
    c = _fft.fftshift(_fft.fftn(_fft.ifftshift(f.values), workers=-1))
    c *= g.dx**g.n
    return Spectrum(g, c)


def inverse_ft(s: Spectrum) -> Field:
    """Exact discrete inverse of :func:`forward_ft` (identity up to roundoff)."""
    g = s.grid
    v = _fft.fftshift(_fft.ifftn(_fft.ifftshift(s.coeffs), workers=-1))
    _unscale(v, g)
    return Field(g, v)


def _unscale(v: np.ndarray, grid: GridSpec) -> None:
    """Divide complex samples by dx^n in place: the scaling of :func:`inverse_ft`.

    Both parts are multiplied by 1/dx^n.  numpy divides a complex by a real
    d (Smith's algorithm with a zero imaginary part) as both parts times
    1/d, so for finite samples this is bit for bit ``v / dx**n``, at a
    tenth of the cost of the complex division.
    """
    parts = v.view(np.float64)
    np.multiply(parts, 1.0 / grid.dx**grid.n, out=parts)


def inverse_ft_rows(grid: GridSpec, rows: np.ndarray) -> np.ndarray:
    """Unscaled samples of a stack of spectra, from one batched FFT.

    ``rows`` has shape ``(W, *grid.shape)`` and holds W spectra in
    FFT-natural order: frequency index k (center-relative) at array index
    k mod N along each axis, the order :func:`inverse_ft` reaches with
    ``ifftshift``.  The samples come back in natural order too (x = m dx at
    index m mod N), with no shift copies, and dx^n times :func:`inverse_ft`'s:
    ``_unscale`` gives its scaling, which the space norms apply chunk by
    chunk in cache.  ``rows`` is overwritten (scipy transforms it in place
    where it can).  pocketfft spreads the W rows over the CPUs, while a
    single 1-D transform runs on one.
    """
    if rows.shape[1:] != grid.shape:
        raise ParameterError(
            f"row shape {rows.shape[1:]} does not match grid shape {grid.shape}"
        )
    return _fft.ifftn(rows, axes=tuple(range(-grid.n, 0)), workers=-1, overwrite_x=True)


def boundary_decay_ratio(f: Field) -> float:
    """Largest |f| within 5% of the box boundary, relative to the peak.

    The periodic model represents a function on R^n faithfully only when
    this ratio is tiny (below ``BOUNDARY_TOL`` by convention).  Returns 0.0
    for the zero field.
    """
    g = f.grid
    peak = float(np.max(np.abs(f.values)))
    if peak == 0.0:
        return 0.0
    margin = max(1, int(round(BOUNDARY_MARGIN * g.N)))
    mask_1d = np.zeros(g.N, dtype=bool)
    mask_1d[:margin] = True
    mask_1d[-margin:] = True
    return float(np.max(np.abs(f.values[_on_any_axis(mask_1d, g.n)]))) / peak


def _on_any_axis(mask_1d: np.ndarray, n: int) -> np.ndarray:
    """The n-D mask of the points whose index along some axis is set in ``mask_1d``."""
    return mask_1d if n == 1 else mask_1d[:, None] | mask_1d[None, :]


def warn_if_boundary_mass(f: Field, context: str) -> None:
    """Emit a ModelFidelityWarning when a field does not decay in the box."""
    ratio = boundary_decay_ratio(f)
    if ratio > BOUNDARY_TOL:
        warnings.warn(
            f"{context}: field is {ratio:.2e} of its peak near the box boundary "
            f"(tolerance {BOUNDARY_TOL:.0e}); periodization error may not be "
            "subdominant",
            ModelFidelityWarning,
            stacklevel=3,
        )


def _axis_indices(grid: GridSpec) -> np.ndarray:
    return np.arange(grid.N) - grid.center


def dyadic_dilate(f: Field, m: int) -> Field:
    """Samples of x -> f(x / 2^m) on the same grid.

    For m <= 0 the result is an exact spectral zoom (a stride read of the
    periodic samples; the spectrum spreads to bins 2^|m| * k).  For m > 0 the
    samples are obtained by trigonometric resampling of the band-limited
    interpolant, so F(h f)(xi) = 2^(mn) F(f)(2^m xi) within tolerance.

    Raises:
        ParameterError: when m is not an integer.
        BandError: when the dilated spectrum would cross the Nyquist limit
            (m < 0) or the dilated support would reach the box boundary
            (m > 0).
    """
    g = f.grid
    m = _integer(m, "m", None)
    if m == 0:
        return Field(g, f.values.copy())
    if m < 0:
        # the spectrum spreads by 2^-m; it must stay below Nyquist
        _check_headroom(
            forward_ft(f).coeffs,
            np.abs(_axis_indices(g)) >= g.N // (2 ** (1 - m)),
            f"spectrum at {{:.2e}} of peak beyond |xi| = xi_max / 2^{-m}",
        )
        # stride read; source points outside the box read the function as 0,
        # not its periodization
        t = 2 ** (-m) * _axis_indices(g)
        inside = np.abs(t) < g.N // 2
        idx = np.where(inside, t + g.center, 0)
        if g.n == 1:
            vals = np.where(inside, f.values[idx], 0.0)
        else:
            vals = f.values[np.ix_(idx, idx)] * (inside[:, None] & inside[None, :])
        return Field(g, vals)
    # the support spreads by 2^m; f must vanish outside the shrunk box
    _check_headroom(
        f.values,
        np.abs(g.x_axis()) >= 0.95 * g.L / 2 ** (m + 1),
        f"field at {{:.2e}} of peak outside |x| = 0.95 L / 2^{m + 1}",
    )
    vals = f.values
    for axis in range(g.n):
        vals = _resample_axis(vals, g, m, axis)
    return Field(g, vals)


def _check_headroom(values: np.ndarray, outside_1d: np.ndarray, message: str) -> None:
    """BandError when |values| exceeds 1e-12 of its peak where ``outside_1d`` holds on an axis.

    ``message`` says what escaped, with ``{}`` where the ratio to the peak goes.
    """
    peak = float(np.max(np.abs(values)))
    outside = _on_any_axis(outside_1d, values.ndim)
    leaked = float(np.max(np.abs(values[outside]))) if outside.any() else 0.0
    if leaked > 1e-12 * peak:
        raise BandError("dilation escapes grid: " + message.format(leaked / peak))


def _resample_axis(vals: np.ndarray, g: GridSpec, m: int, axis: int) -> np.ndarray:
    """Evaluate the trigonometric interpolant at x / 2^m along one axis."""
    step = 2**m
    t = _axis_indices(g)
    coarse = t // step + g.center
    frac = t % step
    xi = _fft.ifftshift(g.xi_axis())
    spec = _fft.fft(_fft.ifftshift(vals, axes=axis), axis=axis, workers=-1)
    out = np.empty_like(vals)
    shape = [1] * vals.ndim
    shape[axis] = g.N
    xi_b = xi.reshape(shape)
    for b in range(step):
        delta = b * g.dx / step
        shifted = _fft.fftshift(
            _fft.ifft(spec * np.exp(1j * xi_b * delta), axis=axis, workers=-1),
            axes=axis,
        )
        sel = np.nonzero(frac == b)[0]
        src = coarse[sel]
        out_idx = [slice(None)] * vals.ndim
        src_idx = [slice(None)] * vals.ndim
        out_idx[axis] = sel
        src_idx[axis] = src
        out[tuple(out_idx)] = shifted[tuple(src_idx)]
    return out


def grid_translate(f: Field, a) -> Field:
    """Translate f by a grid-aligned offset: samples of x -> f(x - a).

    ``a`` gives the offset per axis in spatial units and must be an integer
    multiple of the grid spacing (the model is periodic, so the shift is
    circular).

    Raises:
        BandError: for offsets that do not land on the grid.
    """
    g = f.grid
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.shape != (g.n,):
        raise ParameterError(
            f"offset must have {g.n} component(s), got shape {a.shape}"
        )
    steps = a / g.dx
    rounded = np.round(steps)
    if np.max(np.abs(steps - rounded)) > 1e-9 * max(1.0, float(np.max(np.abs(steps)))):
        raise BandError(f"non-grid shift: offset {a} is not a multiple of dx = {g.dx}")
    shifts = tuple(int(s) for s in rounded)
    return Field(g, np.roll(f.values, shifts, axis=tuple(range(g.n))))
