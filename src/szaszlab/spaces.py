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
exactly empty, and those are skipped.  Every piece is made as (box,
values) blocks by :func:`~szaszlab.littlewood_paley._piece`.

Every other piece, and every witness term, is synthesized by
:func:`_synthesized`, which takes a piece as (centered box, values) blocks
and alone decides whether it is empty and how to read it
(:func:`_pieces_lr` gives their L_r norms).  It finds the circular
frequency window of a piece's nonzero bins (:func:`_window`).  A narrow
piece, whose window's Q^n bins fit one tile of 2^16 samples while the grid
does not and leave P^n >= 16 cosets (:func:`_narrow`), is read by FFT
pruning (:class:`_Cosets`): with P = N / Q, the samples m = P a + b of
coset b are one length-Q inverse FFT of the window's coefficients times
twiddles, so a tile of 2^16 samples is a batch of short transforms and no
full-grid array is made.  On hi-band every level of a witness is narrow.
Any other piece takes the next free row of one stack of at most W complex
full-grid rows, W being the usable CPUs (``os.sched_getaffinity``, else
``os.cpu_count()``), in FFT-natural order (frequency k at index k mod N),
and a full stack goes through one multi-row inverse FFT in place
(``_inverse_rows``), which pocketfft spreads over the cores
(:class:`_Rows`).  The stack is allocated at the first wide piece.
Both give samples in natural order (x = m dx at index m mod N), and no
result depends on sample order, so no ``fftshift`` copy is made.

The rest is one pass over tiles on W threads (:func:`_chunk_pass`), the
same for both kinds of piece: 2^16 samples, or one coset when a window
holds more bins, which the calling thread walks alone.  Each thread walks
a contiguous group of tiles and, for each tile, every piece of the batch
in level order: it synthesizes the tile or reads the row's chunk, takes
its modulus (times 1/dx^n for a row) into one reused per-thread buffer,
and keeps the tile's power sum (:func:`_lr_norms`), adds its terms into
the F-norm's pointwise sum at the tile's positions (:func:`_accumulate`),
whose final L_r sums its r/q-th powers, or keeps its peak and
boundary-shell maximum (:func:`_boundary_ratio`).  The boundary check
reads a spectrum coset by coset whenever its window leaves P^n >= 2
cosets on a grid of more than one tile, narrow or not, so a hi-band
witness's check makes no full-grid array; only a window of the whole grid
(P^n = 1) or a grid of one tile is synthesized by :func:`inverse_ft`.  A
piece's tile sums are added exactly rounded by ``math.fsum``, and each
point of the F-sum sees its levels in level order, so no result depends
on W.  The stack of W rows of
16 N^n bytes is all the full-grid memory a Besov norm's pieces add (the
F-norm adds its real pointwise sum, and the boundary check of a spectrum
whose window is the whole grid its field).

A spectrum is read only on its support, the boxes off which its
coefficients are exactly zero (``grid.Spectrum``): the whole grid for
``forward_ft``'s, the rows of the terms' boxes for a witness's.  The
level pieces are the level blocks met with those boxes, the out-of-band
mass takes |xi| from ``radial_xi`` on them, and the boundary check's
window and coset coefficients come from them.  A sum over them runs over
their values packed flat (:func:`_packed`).  It differs from the sum over
the whole zero-padded array only in how the terms are grouped, so at most
in the last bits.

Every power sum goes through :func:`_lr_norms`: a piece's, the F-norm's
final L_r, and through :func:`_lr_norm` the in-memory ones (the Parseval
sums at r = 2, the l_q sum over levels, ``lr_quasinorm`` and the weighted
functional).  It rescales a sum by its maximum only when the plain sum
overflows or underflows, and takes every root, raising ArithmeticError
when a root leaves the float range, so no quasi-norm silently returns inf
or 0.
For r < 1 or q < 1 the same formulas produce quasi-norms; nothing here
assumes the triangle inequality.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import fsum, isfinite, isinf, prod, sqrt

import numpy as np
import scipy.fft as _fft

from .errors import ParameterError, _power_of_two, _warn_fidelity
from .grid import (
    BOUNDARY_TOL,
    Field,
    Spectrum,
    _CHUNK,
    _finite,
    _shell_span,
    boundary_decay_ratio,
    forward_ft,
    inverse_ft,
    radial_xi,
)
from .littlewood_paley import BandLimits, _piece, _put_window, feasible_band

__all__ = ["SpaceParams", "lr_quasinorm", "besov_norm", "triebel_norm", "space_norm"]

#: relative spectral mass allowed outside the feasible band before a
#: truncation warning is issued
OUT_OF_BAND_TOL = 1e-10

#: smallest normal float; a power sum below it has lost digits to underflow
_TINY = float(np.finfo(float).tiny)

#: unit roundoff of a float
_EPS = float(np.finfo(float).eps) / 2.0


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


def _packed(arrays) -> np.ndarray:
    """The entries of ``arrays`` flattened one after another: a view of the one array if there is one.

    No arrays give an empty array.
    """
    arrays = [a.ravel() for a in arrays]
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays or [np.zeros(0)])


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: fewest cosets P^n of a narrow piece: at fewer, one full-grid transform
#: of a wide row measured faster per piece than the coset tiles (2 CPUs,
#: grids of 2^17 to 2^21 points)
_MIN_COSETS = 16


def _chunk_pass(size: int, work, tile: int) -> None:
    """Call ``work(lo, hi, buf, tmp)`` for every tile [lo, hi) of range(size), on W threads.

    Tiles hold ``tile`` samples, and W = min(usable CPUs, tiles), at least
    1, so an empty range makes one empty buffer and calls nothing.  Each
    thread walks one contiguous group of tiles in order with one real
    buffer ``buf`` and one complex buffer ``tmp`` of a tile's length,
    reused for every tile, and with over- and underflow ignored.  The
    buffers are allocated here, so the threads allocate no tile-sized
    memory.  The threads are joined, and the first exception raised, before
    this returns.

    Tiles longer than _CHUNK (one coset of a wide window) are walked by the
    calling thread alone, W = 1: the inverse FFT of such a tile allocates
    scratch of the tile's length in the thread that runs it, and a worker
    thread's freed scratch stays resident in that thread's malloc arena
    after the pass, or in a new arena when the previous worker had not yet
    exited, so the peak RSS of the process would move from run to run.
    """
    starts = range(0, size, tile)
    width = max(1, min(_usable_cpus(), len(starts))) if tile <= _CHUNK else 1
    bufs = np.empty((width, min(size, tile)))
    tmps = np.empty(bufs.shape, dtype=np.complex128)

    def walk(group, buf, tmp):
        with np.errstate(over="ignore", under="ignore"):
            for lo in group:
                hi = min(lo + tile, size)
                work(lo, hi, buf[: hi - lo], tmp)

    groups = [starts[i * len(starts) // width : (i + 1) * len(starts) // width] for i in range(width)]
    with ThreadPoolExecutor(max(1, width - 1)) as pool:  # starts no thread when width is 1
        rest = [pool.submit(walk, *args) for args in zip(groups[1:], bufs[1:], tmps[1:])]
        walk(groups[0], bufs[0], tmps[0])
        for future in rest:
            future.result()


class _Rows:
    """Samples in natural order, one full grid per row; tile [lo, hi) is that chunk of every row.

    Tiles hold _CHUNK samples.  The moduli are |v| times the real
    ``factor`` (the 1/dx^n of a synthesized row); the rows are only read.
    A row may be any array, in-memory power sums included
    (:func:`_lr_norm`).
    """

    tile = _CHUNK

    def __init__(self, rows: np.ndarray, factor: float = 1.0):
        self.flat, self.factor = rows.reshape(len(rows), -1), factor
        self.size = self.flat.shape[1]

    def moduli(self, lo: int, hi: int, buf: np.ndarray, tmp: np.ndarray):
        """``factor`` |samples| of tile [lo, hi) of each row in turn, in ``buf``."""
        for v in self.flat[:, lo:hi]:
            a = np.abs(v, out=buf)
            if self.factor != 1.0:
                a *= self.factor
            yield a

    def at(self, a: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The tile's positions in a full-grid array in natural order, shaped like its moduli."""
        return a.reshape(-1)[lo:hi]


def _rotate(x: np.ndarray, axis: int, N: int, b) -> None:
    """x *= w^(b k), w = exp(2 pi i / N), at index k along ``axis``, in place.

    The length along ``axis`` is a power of two, and ``b`` is an integer
    or an integer array broadcasting against the axes before ``axis``.
    Each root is the product w^(b h s) w^(b l) of two roots whose integer
    exponents are reduced mod N exactly, k = h s + l with s about
    sqrt(length), so a b costs about 2 sqrt(length) complex exponentials.
    """
    q = x.shape[axis]
    s = 1 << (q.bit_length() - 1) // 2
    split = x.reshape(x.shape[:axis] + (q // s, s) + x.shape[axis + 1 :])
    rest = (1,) * (x.ndim - axis - 1)
    for k in (np.arange(0, q, s).reshape((-1, 1) + rest), np.arange(s).reshape((1, -1) + rest)):
        split *= np.exp((2j * np.pi / N) * ((b * k) % N))


def _along(a: np.ndarray, axes: tuple, ndim: int) -> np.ndarray:
    """``a`` reshaped to broadcast along ``axes`` of an ``ndim``-dimensional array."""
    shape = [1] * ndim
    for axis, size in zip(axes, a.shape):
        shape[axis] = size
    return a.reshape(shape)


class _Cosets:
    """A piece's samples, one tile of cosets at a time, by FFT pruning.

    The piece's coefficients c_k vanish outside a circular window
    k0 <= k < k0 + Q per axis, Q a power of two, and P = N / Q.  Along an
    axis the sample at m = P a + b is

        f(m dx) = w^(k0 m) / (P dx) * IFFT_Q( c_(k0 + k') w^(k' b) )[a],   w = exp(2 pi i / N),

    one length-Q inverse FFT per coset b (Markel, IEEE Trans. Audio
    Electroacoust. 1971; Sorensen & Burrus, IEEE Trans. Signal Process.
    1993).  Every consumer takes |f|, so the unit phase w^(k0 m) is never
    computed.  A tile is G = max(1, min(P^n, _CHUNK / Q^n)) cosets, g_i
    per axis taken from the last axis first, so it holds ``tile`` = G Q^n
    samples: _CHUNK, or one coset of Q^n > _CHUNK samples.  The blocks of
    cosets in C order are the tiles [lo, hi) of range(N^n).  Its moduli are
    a (Q_1, g_1, ..., Q_n, g_n) view, and ``at`` gives the same positions of
    a natural-order array, ``a.reshape(Q_1, P_1, ...)[:, b_1:b_1 + g_1, ...]``.
    No full-grid array is allocated.
    """

    def __init__(self, grid, piece: list, window: tuple):
        self.N, n = grid.N, grid.n
        self.size = grid.N**n
        self.Q = tuple(q for _, q in window)
        self.P = tuple(grid.N // q for q in self.Q)
        compact = np.zeros(self.Q, dtype=np.complex128)
        for box, values in piece:
            _put_window(compact, box, values, grid.N, tuple(k0 for k0, _ in window))
        compact *= 1.0 / (prod(self.P) * grid.dx**n)
        self.compact = compact
        cosets, g = max(1, min(prod(self.P), _CHUNK // prod(self.Q))), []
        for p in reversed(self.P):
            g.insert(0, min(p, cosets))
            cosets //= g[0]
        self.g = tuple(g)
        self.tile = prod(g) * prod(self.Q)
        self.blocks = tuple(p // size for p, size in zip(self.P, g))
        # (i, w^(k' beta)) for the beta-th coset of a tile, on axes (i, n + i) of its (g, Q)
        # layout, for each axis i along which a tile holds more than its first coset; the
        # table is symmetric in (beta, k'), so it is rotated along its longer side
        self.twiddles = []
        for i, (size, q) in enumerate(zip(g, self.Q)):
            if size == 1:
                continue
            table = np.ones((min(size, q), max(size, q)), dtype=np.complex128)
            _rotate(table, 1, self.N, np.arange(len(table))[:, None, None])
            self.twiddles.append((i, _along(table if size <= q else table.T.copy(), (i, n + i), 2 * n)))
        self.order = tuple(axis for i in range(n) for axis in (n + i, i))

    def _first_cosets(self, lo: int) -> tuple:
        return tuple(b * size for b, size in zip(np.unravel_index(lo // self.tile, self.blocks), self.g))

    def moduli(self, lo: int, hi: int, buf: np.ndarray, tmp: np.ndarray):
        """|samples| of tile [lo, hi), in ``buf``, synthesized in ``tmp`` with no tile-sized allocation."""
        n = len(self.Q)
        x = tmp.reshape(self.g + self.Q)
        first = x[(0,) * n]  # the tile's first coset b, whose tile twiddles are all 1
        first[...] = self.compact
        for axis, b in enumerate(self._first_cosets(lo)):
            _rotate(first, axis, self.N, b)
        for i, twiddle in self.twiddles:  # the cosets made so far, times beta_i = 1, 2, ...
            made = tuple(slice(None) if j < i else slice(0, 1) for j in range(n))
            new = tuple(slice(None) if j < i else slice(1, None) if j == i else slice(0, 1) for j in range(n))
            np.multiply(x[made], twiddle[new], out=x[new])
        x = _fft.ifftn(x, axes=tuple(range(n, 2 * n)), workers=1, overwrite_x=True)
        yield np.abs(x, out=buf.reshape(x.shape)).transpose(self.order)

    def shell_max(self, a: np.ndarray, lo: int, span: tuple) -> float:
        """Largest of tile [lo, hi)'s moduli ``a`` at a natural index start <= m < stop along some axis.

        Along axis i the tile holds m = P_i r + b for its rows r and cosets
        b, so coset b meets the span in the rows
        ceil((start - b) / P_i) <= r < ceil((stop - b) / P_i): only the rows
        some coset has there are read, with a mask of those rows alone.
        """
        start, stop = span
        n, edge = len(self.Q), 0.0
        for i, (b, size, p) in enumerate(zip(self._first_cosets(lo), self.g, self.P)):
            cosets = b + np.arange(size)
            first, last = -((cosets - start) // p), -((cosets - stop) // p)
            top, bottom = int(first.min()), int(last.max())
            view = a[(slice(None),) * (2 * i) + (slice(top, bottom),)]
            rows = np.arange(top, bottom)[:, None]
            inside = _along((rows >= first) & (rows < last), (2 * i, 2 * i + 1), 2 * n)
            edge = max(edge, float(np.max(view, where=inside, initial=0.0)))
        return edge

    def at(self, a: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The tile's positions in a full-grid array in natural order, shaped like its moduli."""
        view = a.reshape(tuple(size for q, p in zip(self.Q, self.P) for size in (q, p)))
        return view[tuple(
            part for b, size in zip(self._first_cosets(lo), self.g) for part in (slice(None), slice(b, b + size))
        )]


def _lr_parts(source, count: int, r: float, divisors=None) -> np.ndarray:
    """(count, tiles) sums of the r-th powers of |samples| / divisor (maxima at r = inf), tile by tile.

    ``divisors`` holds one divisor per piece, 1 for all when None; a piece
    whose divisor is not positive and finite is skipped, its sums left 0.
    """
    parts = np.zeros((count, -(-source.size // source.tile)))

    def work(lo, hi, buf, tmp):
        for i, a in enumerate(source.moduli(lo, hi, buf, tmp)):
            if divisors is not None:
                if not 0.0 < divisors[i] < np.inf:
                    continue
                a /= divisors[i]
            parts[i, lo // source.tile] = a.max() if isinf(r) else np.sum(np.power(a, r, out=a))

    _chunk_pass(source.size, work, source.tile)
    return parts


def _exact_sum(tile_sums: np.ndarray) -> float:
    """``math.fsum`` of a piece's tile sums; inf when finite sums add up past the float range."""
    try:
        return fsum(tile_sums.tolist())
    except OverflowError:  # fsum's "intermediate overflow": an overflowed sum, rescaled like one
        return np.inf


def _lr_norms(source, count: int, r: float, weight: float, root: float | None = None) -> list:
    """(weight * sum |samples|^r)^(1/root) of each of the ``count`` pieces of a source, in one pass.

    ``root`` defaults to r, which with ``weight`` dx^n gives the L_r
    quasi-norm; r = inf gives the maxima, and an empty source 0.0.  A
    piece's power sum is its tile sums added exactly rounded by
    ``math.fsum`` (Shewchuk, DCG 1997), so no sum depends on W; finite tile
    sums adding up past the float range count as an overflow.  Only when
    some sums over- or underflow does one more pass, for all those pieces
    at once, find their maxima, and another sum the powers of those with a
    positive, finite maximum scaled by it (Blue, ACM TOMS 1978); an
    in-range sum keeps the bits of the plain formula.
    Every root is taken here: a positive, finite power sum whose root
    leaves the float range raises ArithmeticError, so no quasi-norm
    silently returns inf or 0.
    """
    parts = _lr_parts(source, count, r)
    if isinf(r):
        return [float(part.max(initial=0.0)) for part in parts]
    root = r if root is None else root
    totals = [_exact_sum(part) * weight for part in parts]
    scales = [1.0] * count
    lost = [i for i, total in enumerate(totals) if not _TINY <= total < np.inf]  # over- or underflowed, or nan
    if lost:
        peaks = np.zeros(count)
        peaks[lost] = _lr_parts(source, count, np.inf)[lost].max(axis=1, initial=0.0)
        lost = [i for i in lost if 0.0 < peaks[i] < np.inf]  # zero, inf or nan: the plain value is the answer
    if lost:
        scaled = _lr_parts(source, count, r, peaks)
        for i in lost:
            scales[i], totals[i] = float(peaks[i]), _exact_sum(scaled[i]) * weight
    norms = []
    for total, scale in zip(totals, scales):
        try:
            norm = scale ** (r / root) * total ** (1.0 / root)
        except OverflowError:  # a Python float power beyond the float range
            norm = np.inf
        if 0.0 < total < np.inf and not 0.0 < norm < np.inf:
            side = "falls below" if norm == 0.0 else "exceeds"
            raise ArithmeticError(f"quasi-norm {side} the float range: a power sum to the power 1/{root!r}")
        norms.append(norm)
    return norms


def _lr_norm(a: np.ndarray, r: float, weight: float = 1.0, root: float | None = None) -> float:
    """(weight * sum |a|^r)^(1/root) of an in-memory array by :func:`_lr_norms`; r = inf gives its maximum."""
    return _lr_norms(_Rows(a[None]), 1, r, weight, root)[0]


def lr_quasinorm(f: Field, r: float) -> float:
    """L_r quasi-norm of a sampled field, (sum |f(x_i)|^r dx^n)^(1/r).

    r = inf uses the grid maximum of |f|.  The power sum is rescaled when it
    would overflow or underflow.

    Raises:
        ParameterError: "invalid exponent" for r <= 0, "non-finite input"
            when f holds a nan or an infinity.
        ArithmeticError: "quasi-norm exceeds (falls below) the float range".
    """
    if not r > 0:
        raise ParameterError(f"invalid exponent: r must be > 0, got {r}")
    return _finite(_lr_norm(f.values, r, f.grid.dx**f.grid.n), f.values, "samples")


def _prepared_spectrum(
    f: Field | Spectrum, params: SpaceParams, spec: Spectrum | None = None
) -> tuple[Spectrum, BandLimits]:
    """Spectrum of f plus the model-fidelity validations shared by norms.

    A Field's spectrum is ``forward_ft(f)``, unless it is passed as ``spec``.
    A Spectrum is used as given, and its boundary check
    (:func:`_boundary_ratio`) reads the field of a spectrum whose window
    leaves two or more cosets tile by tile with no full-grid array.
    Neither path copies the spectrum: the k = 0 bin that the homogeneous
    norms discard lies outside every level mask, so it needs no zeroing.
    The total and out-of-band spectral mass are sums over the spectrum's
    support packed flat, with |xi| taken from ``radial_xi`` on its boxes,
    of the moduli divided by their peak, so their ratio does not depend on
    scale and no sum overflows.  A peak that is not finite because the
    field or spectrum holds a nan or an infinity raises ParameterError
    before any synthesis, and one of finite inputs ArithmeticError.
    """
    if spec is None:
        spec = forward_ft(f) if isinstance(f, Field) else f
    g = spec.grid
    band = feasible_band(g)
    modulus = np.abs(_packed(spec.coeffs[box] for box in spec._support))
    peak = float(modulus.max(initial=0.0))
    if not isfinite(peak):  # judge the inputs, not their moduli: |1.7e308 (1 + i)| is inf
        if isinstance(f, Field):
            _finite(peak, f.values, "samples")
        _finite(peak, _packed(spec.coeffs[box] for box in spec._support), "coefficients")
    if peak > 0.0:
        modulus /= peak
        total = float(np.sum(modulus))
        r = _packed(radial_xi(g)[box] for box in spec._support)
        leaked = r > band.cover_hi
        if params.homogeneous:
            leaked |= (r < band.cover_lo) & (r != 0.0)  # the discarded k = 0 bin is not leaked mass
        outside = float(np.sum(modulus[leaked]))
        if outside > OUT_OF_BAND_TOL * total:
            _warn_fidelity(
                f"spectral mass {outside/total:.2e} of total lies outside the "
                f"feasible band's annuli; the truncated norm misses it"
            )
    modulus = None  # freed before the boundary check's synthesis
    ratio = boundary_decay_ratio(f) if isinstance(f, Field) else _boundary_ratio(spec)
    if ratio > BOUNDARY_TOL:
        _warn_fidelity(
            f"space norm: field is {ratio:.2e} of its peak near the box boundary "
            f"(tolerance {BOUNDARY_TOL:.0e}); periodization error may not be subdominant"
        )
    return spec, band


def _boundary_ratio(spec: Spectrum) -> float:
    """``boundary_decay_ratio(inverse_ft(spec))``, with no full-grid array when its window leaves cosets.

    The window (:func:`_window`) reads only the spectrum's support.  When
    it leaves P^n >= 2 cosets on a grid of more than one tile, the field
    is synthesized coset by coset (:class:`_Cosets`), and each tile keeps
    its peak and its largest modulus in the boundary shell, which in
    natural sample order is the middle block of indices along some axis
    (``grid._shell_span``; :meth:`_Cosets.shell_max`).  Any other spectrum
    (P^n = 1, or a grid of one tile) is synthesized on the full grid; the
    zero spectrum gives 0.0.
    """
    g = spec.grid
    blocks = [(box, spec.coeffs[box]) for box in spec._support]
    window = _window(g, blocks)
    if window is None:
        return 0.0
    size = g.N**g.n
    if size <= _CHUNK or size == prod(q for _, q in window):
        return boundary_decay_ratio(inverse_ft(spec))
    source, span = _Cosets(g, blocks, window), _shell_span(g)
    peaks, edges = np.zeros((2, size // source.tile))

    def work(lo, hi, buf, tmp):
        (a,) = source.moduli(lo, hi, buf, tmp)
        peaks[lo // source.tile] = a.max()
        edges[lo // source.tile] = source.shell_max(a, lo, span)

    _chunk_pass(size, work, source.tile)
    peak = float(peaks.max())
    return 0.0 if peak == 0.0 else float(edges.max()) / peak


def _pieces_of(spec: Spectrum):
    """Level j -> the piece Q_j f (S_0 f for None) as (box, values) blocks on the spectrum's support."""
    return partial(_piece, spec.coeffs, spec.grid, support=spec._support)


def _norm_levels(params: SpaceParams, band) -> list[int]:
    if params.homogeneous:
        return list(band.levels())
    return [j for j in band.levels() if j >= 1]


def _parseval_l2(grid, energy: float) -> float:
    """||g||_2 of the field whose coefficients have sum |c_k|^2 = ``energy``."""
    return sqrt(energy * grid.dxi**grid.n / (2.0 * np.pi) ** grid.n)


def _piece_l2(spec: Spectrum, j: int | None) -> float:
    """||Q_j f||_2 (||S_0 f||_2 for j None) by Parseval on the piece's blocks, with no synthesis.

    The piece is read only where its blocks meet the spectrum's support,
    and its Riemann sum, sum |c_k|^2 dxi^n / (2 pi)^n, is one
    :func:`_lr_norm` over those bins packed flat; a piece with no bins
    there is 0.0 with no pass.
    """
    g = spec.grid
    values = _packed(values for _, values in _piece(spec.coeffs, g, j, spec._support))
    return _lr_norm(values, 2.0, g.dxi**g.n / (2.0 * np.pi) ** g.n) if values.size else 0.0


def _window(grid, piece: list) -> tuple | None:
    """Per axis (k0, Q): a circular window k0 <= k < k0 + Q holding the piece's nonzero bins; None if empty.

    Q is the least power of two holding the axis's nonzero frequencies
    (those of any bin of the piece) after its largest circular gap.  An
    axis with more than _CHUNK nonzero frequencies gets the whole axis,
    (0, N), without its gaps being sought.
    """
    n, N = grid.n, grid.N
    # in 2-D two blocks may share an axis's frequencies, so each axis's are marked in one array
    found: list = [[] if n == 1 else [(-grid.center, np.zeros(N, dtype=bool))] for _ in range(n)]
    for box, values in piece:
        nonzero = values != 0
        if n == 1:
            found[0].append((box[0].start - grid.center, nonzero))
        else:
            for i, s in enumerate(box):
                found[i][0][1][s] |= nonzero.any(axis=1 - i)
    window = []
    for axis in found:
        count = sum(int(np.count_nonzero(hit)) for _, hit in axis)
        if count == 0:
            return None
        if count > _CHUNK:
            window.append((0, N))
            continue
        k = np.concatenate([first + np.flatnonzero(hit) for first, hit in axis])
        if len(axis) > 1:
            k.sort()
        gaps = np.diff(k, append=k[0] + N)
        widest = int(np.argmax(gaps))
        span = N - int(gaps[widest]) + 1
        window.append((int(k[(widest + 1) % k.size]), min(N, 1 << (span - 1).bit_length())))
    return tuple(window)


def _narrow(grid, window: tuple) -> bool:
    """Whether a piece in this window is read by FFT pruning rather than on the full grid.

    It is when its Q^n bins fit one tile while the grid does not, and they
    leave at least _MIN_COSETS cosets (P^n = N^n / Q^n).  Below either
    bound the full-grid inverse FFT measured faster.
    """
    size, bins = grid.N**grid.n, prod(q for _, q in window)
    return bins <= _CHUNK < size and size // bins >= _MIN_COSETS


#: the one batched inverse FFT of a stack of wide rows: in place where scipy
#: can, and pocketfft spreads the rows over the cores
_inverse_rows = partial(_fft.ifftn, workers=-1, overwrite_x=True)


def _synthesized(grid, keys, blocks):
    """Batches (keys, source) of the nonempty pieces in the list ``keys``, in order.

    ``blocks(key)`` is a piece's spectrum as (centered box, values) blocks,
    zero off the boxes, and :func:`_window` finds the frequencies it
    occupies.  A narrow piece (:func:`_narrow`) is a batch of its own,
    read by FFT pruning coset by coset (:class:`_Cosets`).  Any other piece
    takes the next free row of one stack of at most W = usable CPUs rows,
    in FFT-natural order, and the stack goes through one unscaled inverse
    FFT in place when it is full, before a narrow piece and at the end, so
    the W transforms run on W cores (:class:`_Rows`, whose moduli carry the
    1/dx^n).  Sources give samples in natural order, which no L_r sum
    depends on; a batch is valid until the next is drawn.
    """
    rows, batch = None, []

    def flush():
        samples = _inverse_rows(rows[: len(batch)], axes=tuple(range(-grid.n, 0)))
        yield batch[:], _Rows(samples, 1.0 / grid.dx**grid.n)
        rows[: len(batch)] = 0.0
        batch.clear()

    for i, key in enumerate(keys):
        piece = blocks(key)
        window = _window(grid, piece)
        narrow = window is not None and _narrow(grid, window)
        if narrow:
            source = _Cosets(grid, piece, window)
        elif window is not None:
            if rows is None:
                rows = np.zeros((min(_usable_cpus(), len(keys) - i),) + grid.shape, dtype=np.complex128)
            for box, values in piece:
                _put_window(rows[len(batch)], box, values, grid.N, (0,) * grid.n)
            batch.append(key)
        piece = values = None  # a piece's blocks (16 MB on hi-band) must not outlive its write
        if narrow:
            if batch:
                yield from flush()
            yield [key], source
        if batch and (len(batch) == len(rows) or i == len(keys) - 1):
            yield from flush()


def _pieces_lr(grid, keys, blocks, r: float) -> dict:
    """{key: grid L_r quasi-norm of the piece ``blocks(key)``, 0.0 if empty}, in key order."""
    norms = dict.fromkeys(keys, 0.0)
    for batch, source in _synthesized(grid, keys, blocks):
        norms.update(zip(batch, _lr_norms(source, len(batch), r, grid.dx**grid.n)))
    return norms


def _accumulate(source, keys: list, s: float, q: float, acc, peak=None) -> None:
    """Add (2^(js) |Q_j f|)^q of each piece of a source into ``acc``, in key order, on W threads.

    ``keys`` name the source's pieces (|S_0 f| for key None carries no
    factor); q = inf takes the pointwise maximum instead of the sum.  With
    ``peak``, each scaled modulus is divided by ``peak`` where that is
    positive before its power is taken.  Each tile takes every piece's
    moduli into the thread's buffer in turn and adds them into the tile's
    positions of ``acc``, so a point sees its levels in order whatever the
    batch width.
    """
    gains = [1.0 if j is None else _power_of_two(j, s, "level weight") for j in keys]

    def work(lo, hi, buf, tmp):
        out = source.at(acc, lo, hi)
        top = None if peak is None else source.at(peak, lo, hi)
        for gain, a in zip(gains, source.moduli(lo, hi, buf, tmp)):
            if gain != 1.0:  # s = 0 or S_0: the product would change no bit
                a *= gain
            if top is not None:
                np.divide(a, top, out=a, where=top > 0.0)
            if isinf(q):
                np.maximum(out, a, out=out)
            else:
                out += np.power(a, q, out=a)

    _chunk_pass(source.size, work, source.tile)


def besov_norm(f: Field | Spectrum, params: SpaceParams) -> float:
    """Besov quasi-norm of a sampled field, given as a Field or its Spectrum.

    Homogeneous: l_q over the feasible band of 2^(js) ||Q_j f||_r, with the
    k = 0 bin discarded.  Inhomogeneous: ||S_0 f||_r joins the l_q sum with
    the levels j >= 1.  At r = 2 each piece's norm comes from Parseval on
    its spectral window; every other r synthesizes the nonempty pieces,
    narrow ones coset by coset and the others W at a time on the full grid.

    Raises:
        ParameterError: "invalid params" when params.family != "B",
            "non-finite input" when f holds a nan or an infinity.
    """
    if params.family != "B":
        raise ParameterError(f"invalid params: besov_norm needs family B, got {params.family}")
    return _norm(f, params)


def _besov(spec: Spectrum, band: BandLimits, params: SpaceParams) -> float:
    levels = _norm_levels(params, band)
    keys = levels if params.homogeneous else [None] + levels
    if params.r == 2.0:
        norms = {j: _piece_l2(spec, j) for j in keys}
    else:
        norms = _pieces_lr(spec.grid, keys, _pieces_of(spec), params.r)
    # an empty level's summand is its 0.0, with no weight to overflow
    summands = [x if j is None or x == 0.0 else _power_of_two(j, params.s, "level weight") * x
                for j, x in norms.items()]
    return _lr_norm(np.asarray(summands), params.q)


def triebel_norm(f: Field | Spectrum, params: SpaceParams) -> float:
    """Lizorkin-Triebel quasi-norm of a sampled field, given as a Field or its Spectrum.

    The l_q sum over levels is taken pointwise on the grid before the L_r
    quadrature.  Requires r < inf.

    Raises:
        ParameterError: "invalid params" when params.family != "F",
            "non-finite input" when f holds a nan or an infinity.
    """
    if params.family != "F":
        raise ParameterError(f"invalid params: triebel_norm needs family F, got {params.family}")
    return _norm(f, params)


def _triebel(spec: Spectrum, band: BandLimits, params: SpaceParams) -> float:
    g = spec.grid
    q, r = params.q, params.r
    keys = _norm_levels(params, band) + ([] if params.homogeneous else [None])

    def pointwise(exponent, acc, peak=None):
        for batch, source in _synthesized(g, keys, _pieces_of(spec)):
            _accumulate(source, batch, params.s, exponent, acc, peak)
        return acc

    acc, weight = pointwise(q, np.zeros(g.shape)), g.dx**g.n
    if isinf(q):
        return _lr_norm(acc, r, weight)
    if acc.max() < np.inf:
        # a point whose power sum is below the normal range has all its terms
        # there, so its value is below (pieces * tiny)^(1/q); keep the plain
        # norm when all such points together cannot move the L_r sum
        low = int(np.count_nonzero(acc < _TINY))
        norm = _lr_norm(acc, r / q, weight, root=r)  # (sum acc^(r/q) dx^n)^(1/r)
        lost = (low * weight) ** (1.0 / r) * (len(keys) * _TINY) ** (1.0 / q)
        if lost <= _EPS ** (1.0 / r) * norm:
            return norm
    # overflow, or underflow that matters: redo each point with its pieces
    # scaled by their maximum there (Blue 1978)
    peak = pointwise(np.inf, np.zeros(g.shape))
    acc[...] = 0.0
    pointwise(q, acc, peak)
    np.power(acc, 1.0 / q, out=acc)
    acc *= peak
    return _lr_norm(acc, r, weight)


def space_norm(f: Field | Spectrum, params: SpaceParams) -> float:
    """The quasi-norm of params.family: :func:`besov_norm` or :func:`triebel_norm`."""
    return (besov_norm if params.family == "B" else triebel_norm)(f, params)


def _norm(f: Field | Spectrum, params: SpaceParams, spec: Spectrum | None = None) -> float:
    """The quasi-norm of params.family; a field's spectrum already at hand is passed as ``spec``."""
    norm = _besov if params.family == "B" else _triebel
    return norm(*_prepared_spectrum(f, params, spec), params)
