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

A Field holds its samples in centered order, index i at x = (i - N/2) dx,
C-contiguous, as a Spectrum holds its coefficients.  The space norms'
pieces use natural order instead, index m at x = m dx (mod L), which needs
no shift copy; there the boundary shell of :func:`boundary_decay_ratio` is
the middle block of indices along each axis.

Dyadic dilations f(x / 2^m) are one stride read, of the samples for m < 0
and of the coefficients for m > 0, and translations move whole grid steps;
they are the only dilations/translations that commute with the dyadic
Littlewood-Paley ladder built on top of this module.

Every transform is ``numpy.fft``'s n-D one in place (``_fftn``, ``_ifftn``),
or of more than _CHUNK points in 1-D, on a grid or on a space norm's row,
a four-step of its batched short ones (:func:`_four_step`).  ``import numpy`` does not load ``numpy.fft``, so
classifying loads no FFT library; the first transform loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BandError, ParameterError, _integer, _shown

__all__ = [
    "GridSpec",
    "Field",
    "Spectrum",
    "forward_ft",
    "inverse_ft",
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

#: samples per block of a pass over a full-grid array (a chunk of a row, a
#: tile of cosets in the space norms): 1 MiB of complex samples, which stays in L2
_CHUNK = 2**16

#: points of the short transforms that make up a long 1-D one (:func:`_four_step`)
_STEP = 64


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
            raise ParameterError(f"N must be a power of two >= 16, got {_shown(self.N)}")
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
    """Complex samples of a function on a :class:`GridSpec`.

    A witness field also carries its exact spectrum, which :func:`forward_ft` returns; both are read-only.
    """

    grid: GridSpec
    values: np.ndarray
    _spectrum: Spectrum | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _on_grid(self.grid, self.values, "field"))


@dataclass(frozen=True)
class Spectrum:
    """Centered Fourier coefficients of a field.

    ``coeffs[k]`` (multi-index k relative to the array center) approximates
    F(f)(xi_k).  The entry at the center approximates F(f)(0); consumers with
    homogeneous-weight semantics must exclude it.

    A spectrum also carries a private support: disjoint centered boxes
    outside which ``coeffs`` is exactly zero.  It is the whole grid, one
    box, except for the witness spectra the package builds, whose support
    is the union of their terms' rows (:func:`_supported`); the norms,
    the weighted functional and the fidelity checks read only the support
    and sum over its boxes' values packed flat.
    """

    grid: GridSpec
    coeffs: np.ndarray
    _support: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _on_grid(self.grid, self.coeffs, "spectrum"))
        object.__setattr__(self, "_support", (_whole(self.grid),))


def _whole(grid: GridSpec) -> tuple:
    """The centered box of the whole grid."""
    return (slice(0, grid.N),) * grid.n


def _supported(spec: Spectrum, boxes) -> Spectrum:
    """``spec`` with the union of the rows of the centered ``boxes`` as its support; its coeffs must vanish off them.

    A box is widened to whole rows, the full grid along every axis but the
    first, so that overlapping row ranges can be merged, in order, into
    disjoint boxes, and no bin is read twice.  Empty boxes are dropped.
    """
    rows = sorted((box[0].start, box[0].stop) for box in boxes if all(s.start < s.stop for s in box))
    merged = []
    for start, stop in rows:
        if merged and start < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], stop)
        else:
            merged.append([start, stop])
    rest = _whole(spec.grid)[1:]
    object.__setattr__(spec, "_support", tuple((slice(start, stop),) + rest for start, stop in merged))
    return spec


def _on_grid(grid: GridSpec, a, what: str) -> np.ndarray:
    """``a`` as a C-contiguous complex array, copied only if it is not one; ParameterError unless grid-shaped."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    if a.shape != grid.shape:
        raise ParameterError(f"{what} shape {a.shape} does not match grid shape {grid.shape}")
    return a


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
    centered index bookkeeping; a field that carries its exact spectrum
    (a witness's, see :class:`Field`) returns that spectrum, untransformed.

    Raises:
        ArithmeticError: when the samples are finite and a coefficient is
            not; samples holding a nan or an infinity transform as they are.
    """
    if f._spectrum is not None:
        return f._spectrum
    g = f.grid
    coeffs = _centered(_fftn, f.values, g.dx**g.n)
    if not np.isfinite(coeffs.view(np.float64)).all() and np.isfinite(f.values).all():
        _finite(coeffs, f.values, "samples")  # finite samples: raises ArithmeticError
    return Spectrum(g, coeffs)


def _finite(result, inputs: np.ndarray, what: str):
    """``result``, a number or an array, if finite.

    Else ParameterError if ``inputs`` hold a nan or an infinity, and
    ArithmeticError if they do not: a transform or sum left the float range.
    """
    if not np.isfinite(result).all():
        if bad := inputs.size - int(np.count_nonzero(np.isfinite(inputs))):
            raise ParameterError(f"non-finite input: {bad} of {inputs.size} {what} are nan or inf")
        if np.ndim(result):
            bad = result.size - int(np.count_nonzero(np.isfinite(result)))
            result = f"{bad} of {result.size} values nan or inf"
        raise ArithmeticError(f"value exceeds the float range: a transform or sum of finite {what} gives {result}")
    return result


def inverse_ft(s: Spectrum) -> Field:
    """Exact discrete inverse of :func:`forward_ft` (identity up to roundoff)."""
    g = s.grid
    return Field(g, _centered(_ifftn, s.coeffs, 1.0 / g.dx**g.n))


def _fftn(x: np.ndarray, axes=None, norm=None) -> np.ndarray:
    """``numpy.fft.fftn(x, axes=axes, norm=norm)`` in place in a complex ``x``; no floating-point warning is raised."""
    with np.errstate(all="ignore"):
        return np.fft.fftn(x, axes=axes, norm=norm, out=x)


def _ifftn(x: np.ndarray, axes=None, norm=None) -> np.ndarray:
    """``numpy.fft.ifftn(x, axes=axes, norm=norm)`` in place in a complex ``x``; no floating-point warning is raised."""
    with np.errstate(all="ignore"):
        return np.fft.ifftn(x, axes=axes, norm=norm, out=x)


def _centered(transform, a: np.ndarray, factor: float) -> np.ndarray:
    """``fftshift(transform(ifftshift(a))) * factor`` of a C-contiguous complex ``a``: both transforms.

    A shift by N/2 on one side of a DFT is the sign (-1)^k on the other, and
    N/2 is even on every grid (N >= 16), so this is the plain transform
    between two sign flips of the entries whose index sum is odd.  The one
    full-grid array it makes is the copy of ``a``, which is left unchanged;
    the flips, the transform and the scaling run in place on the copy.  A
    long 1-D ``a`` goes through :func:`_four_step` on a copy written
    transposed, (S, N / S) with S = _STEP, so the samples come out in natural
    order; index S k2 + k1 of ``a`` is in row k1: its odd entries, odd rows.
    """
    if _is_long(a):
        v = a.reshape(-1, _STEP).T.copy()
        np.negative(v[1::2], out=v[1::2])
        v = _four_step(transform, v, 1).reshape(-1)
    else:
        v = a.copy()
        _flip_odd(v)
        transform(v)
    _flip_odd(v)
    _scale(v, factor)
    return v


def _is_long(a: np.ndarray) -> bool:
    """Whether ``a`` is a 1-D array of more than _CHUNK points, which is transformed by :func:`_four_step`."""
    return a.ndim == 1 and a.size > _CHUNK


def _four_step(transform, x: np.ndarray, axis: int) -> np.ndarray:
    """The 1-D DFT of N = P S points, S = _STEP, by ``transform`` (``_fftn`` or ``_ifftn``), in place in a 2-D ``x``.

    Input index S k2 + k1 is at k2 along ``axis`` (length P) and k1 along
    the other, output index P a + b at b and a.  S transforms of P points,
    the twiddles w^(+-k1 b), w = exp(2 pi i / N), by :func:`_rotate`, and P
    transforms of S points (Bailey, J. Supercomputing 4, 1990) are batched
    numpy calls that need no scratch of N points; no warning is raised.
    """
    transform(x, axes=(axis,))
    k1 = np.arange(_STEP).reshape((-1,) + (1, 1) * axis)  # varies along the other axis
    with np.errstate(all="ignore"):
        _rotate(x, axis, x.size, k1 if transform is _ifftn else -k1)
    return transform(x, axes=(1 - axis,))


def _rotate(x: np.ndarray, axis: int, N: int, b) -> None:
    """x *= w^(b k), w = exp(2 pi i / N), at index k along ``axis``, in place.

    The length along ``axis`` is a power of two, and ``b`` is an integer
    or integer array broadcasting against x with ``axis`` split in two.
    Each root is the product w^(b h s) w^(b l) of two roots, k = h s + l, s
    about sqrt(length), with exponents reduced exactly by ``fmod`` N (so -b
    gives the conjugate roots), so a b costs 2 sqrt(length) exponentials.
    """
    q = x.shape[axis]
    s = 1 << (q.bit_length() - 1) // 2
    split = x.reshape(x.shape[:axis] + (q // s, s) + x.shape[axis + 1 :])
    rest = (1,) * (x.ndim - axis - 1)
    for k in (np.arange(0, q, s).reshape((-1, 1) + rest), np.arange(s).reshape((1, -1) + rest)):
        split *= np.exp((2j * np.pi / N) * np.fmod(b * k, N))


def _flip_odd(v: np.ndarray) -> None:
    """Negate in place the entries of ``v`` whose index sum is odd: one strided pass per axis."""
    for axis in range(v.ndim):
        odd = v[(slice(None),) * axis + (slice(1, None, 2),)]
        np.negative(odd, out=odd)


def _scale(v: np.ndarray, factor: float) -> None:
    """Multiply C-contiguous complex samples by a real ``factor`` in place, both parts alike.

    numpy divides a complex by a real d (Smith's algorithm with a zero
    imaginary part) as both parts times 1/d, so with ``factor`` 1/d this is
    bit for bit ``v / d`` for finite samples, at a tenth of the cost of the
    complex division; and it is ``v * factor`` bit for bit except for the
    sign of an exact zero part, which it keeps.
    """
    parts = v.view(v.real.dtype)
    np.multiply(parts, factor, out=parts)


def boundary_decay_ratio(f: Field) -> float:
    """Largest |f| within 5% of the box boundary, relative to the peak.

    The periodic model represents a function on R^n faithfully only when
    this ratio is tiny (below ``BOUNDARY_TOL`` by convention).  Returns 0.0
    for the zero field.
    """
    return _leak_ratio(f.values, np.roll(_shell(f.grid), f.grid.center))


@lru_cache(maxsize=8)
def _shell(grid: GridSpec) -> np.ndarray:
    """The boundary shell along one axis in natural sample order, a read-only boolean vector.

    Index m holds x = m dx (mod the box), so the samples within
    BOUNDARY_MARGIN of the box side from the boundary are the middle block
    of indices N/2 - margin <= m < N/2 + margin.
    """
    margin = max(1, int(round(BOUNDARY_MARGIN * grid.N)))
    shell = np.zeros(grid.N, dtype=bool)
    shell[grid.center - margin : grid.center + margin] = True
    shell.setflags(write=False)
    return shell


def _leak_ratio(values: np.ndarray, outside_1d: np.ndarray) -> float:
    """Largest |values| where ``outside_1d`` holds along some axis, over the peak; 0.0 if none.

    The peak is taken a block of rows at a time, with no full-grid modulus.
    """
    rows = max(1, _CHUNK * len(values) // values.size)
    peak = max(float(np.abs(values[i : i + rows]).max()) for i in range(0, len(values), rows))
    outside = outside_1d if values.ndim == 1 else outside_1d[:, None] | outside_1d[None, :]
    if peak == 0.0 or not outside.any():
        return 0.0
    return float(np.max(np.abs(values[outside]))) / peak


def _axis_indices(grid: GridSpec) -> np.ndarray:
    return np.arange(grid.N) - grid.center


def dyadic_dilate(f: Field, m: int) -> Field:
    """Samples of h(x) = f(x / 2^m) on the same grid: one stride read for either sign of m.

    For m < 0, h reads f's samples at stride 2^-m (its spectrum spreads to
    bins 2^-m k); for m > 0, bin k of h reads 2^(mn) times f's bin 2^m k and
    h is synthesized by :func:`inverse_ft`, so F(h)(xi_k) = 2^(mn) F(f)(2^m xi_k)
    holds on the grid to roundoff, at one forward and one inverse transform.
    A source entry off the grid reads 0, not the periodization; so does
    f's Nyquist bin -N/2, which has no +N/2 partner, so a real f dilates to
    a real h.  For m > 0 f must vanish outside the shrunk box
    |x| < 0.95 L / 2^(m+1); a box holding no sample but x = 0 cannot
    represent f, and only the zero field (whose dilation is zero) passes.

    Raises:
        ParameterError: when m is not an integer.
        BandError: when the dilated spectrum would cross the Nyquist limit
            (m < 0) or the dilated support would reach the box boundary
            (m > 0), or when m > 0 leaves no sample but x = 0 in the box.
    """
    g = f.grid
    m = _integer(m, "m", None)
    if m == 0:
        return Field(g, f.values.copy())
    if m < 0 and -m >= g.N.bit_length() - 1:
        # 2^-m >= N: every bin but k = 0 spreads past Nyquist, and the
        # stride read keeps only x = 0, so only the zero field stays on the grid
        if f.values.any():
            raise BandError("dilation escapes grid: 2^-m >= N spreads every nonzero spectrum past xi_max")
        return Field(g, np.zeros(g.shape))
    if m < 0:
        # the spectrum spreads by 2^-m; it must stay below Nyquist
        _check_headroom(
            forward_ft(f).coeffs,
            np.abs(_axis_indices(g)) >= g.N // (2 ** (1 - m)),
            f"spectrum at {{:.2e}} of peak beyond |xi| = xi_max / 2^{-m}",
        )
        return Field(g, _stride_read(f.values, g, 2 ** (-m)))
    # the support spreads by 2^m; f must vanish outside the shrunk box
    outside = np.abs(g.x_axis()) >= math.ldexp(0.95 * g.L, -(m + 1))
    _check_headroom(f.values, outside, f"field at {{:.2e}} of peak outside |x| = 0.95 L / 2^{m + 1}")
    if np.count_nonzero(~outside) <= 1:
        if not f.values.any():
            return Field(g, np.zeros(g.shape))
        raise BandError(f"dilation escapes grid: |x| < 0.95 L / 2^{m + 1} holds no sample but x = 0")
    coeffs = _stride_read(forward_ft(f).coeffs, g, 2**m)
    _scale(coeffs, 2.0 ** (m * g.n))
    return inverse_ft(Spectrum(g, coeffs))


def _stride_read(a: np.ndarray, g: GridSpec, step: int) -> np.ndarray:
    """The centered entries ``a[step k]`` at every centered index k; 0 where step k is not in (-N/2, N/2)."""
    t = step * _axis_indices(g)
    inside = np.abs(t) < g.N // 2
    idx = np.where(inside, t + g.center, 0)
    if g.n == 1:
        return np.where(inside, a[idx], 0.0)
    return a[np.ix_(idx, idx)] * (inside[:, None] & inside[None, :])


def _check_headroom(values: np.ndarray, outside_1d: np.ndarray, message: str) -> None:
    """BandError when |values| exceeds 1e-12 of its peak where ``outside_1d`` holds on an axis.

    ``message`` says what escaped, with ``{}`` where the ratio to the peak goes.
    """
    ratio = _leak_ratio(values, outside_1d)
    if ratio > 1e-12:
        raise BandError("dilation escapes grid: " + message.format(ratio))


def grid_translate(f: Field, a) -> Field:
    """Translate f by a grid-aligned offset: samples of x -> f(x - a).

    ``a`` gives the offset per axis in spatial units and must be an integer
    multiple of the grid spacing (the model is periodic, so the shift is
    circular).

    Raises:
        ParameterError: for an offset of the wrong shape, or one that is not
            a finite number of grid steps (nan, inf, not a real number).
        BandError: for offsets that do not land on the grid.
    """
    g = f.grid
    try:
        a = np.atleast_1d(np.asarray(a, dtype=float))
    except (TypeError, ValueError):
        raise ParameterError(f"offset must be a finite number of grid steps, got {a!r}") from None
    if a.shape != (g.n,):
        raise ParameterError(
            f"offset must have {g.n} component(s), got shape {a.shape}"
        )
    with np.errstate(over="ignore"):
        steps = a / g.dx
    if not np.isfinite(steps).all():
        raise ParameterError(f"offset must be a finite number of grid steps, got {a}")
    rounded = np.round(steps)
    if np.max(np.abs(steps - rounded)) > 1e-9 * max(1.0, float(np.max(np.abs(steps)))):
        raise BandError(f"non-grid shift: offset {a} is not a multiple of dx = {g.dx}")
    shifts = tuple(int(s) for s in rounded)
    return Field(g, np.roll(f.values, shifts, axis=tuple(range(g.n))))
