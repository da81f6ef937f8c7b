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
piece, whose window's Q^n bins fit one tile of 2^16 samples on a grid of
more than one tile, is read by FFT pruning (:class:`_Cosets`): with
P = N / Q, the samples m = P a + b of coset b are one length-Q inverse
FFT of the window's coefficients times twiddles, so a tile of 2^16
samples is a batch of short transforms and no full-grid array is made.
On hi-band every level of a witness is narrow.
Any other piece takes the next free row of one stack of at most W complex
full-grid rows, W being the usable CPUs (``os.sched_getaffinity``, else
``os.cpu_count()``), in FFT-natural order (frequency k at index k mod N),
and the rows of a full stack go through their inverse FFTs in place, one
row per thread (``_inverse_rows``, a long 1-D row by ``grid._four_step``);
each of its rows is then read as a source of its own (:class:`_Rows`).  The
stack is allocated at the first wide piece.  Every source holds one piece,
and ``at`` maps its tiles to natural order (x = m dx at index m mod N),
a long 1-D row's from coset order: no result needs an ``fftshift`` copy.

The rest is one pass over a piece's tiles of 2^16 samples on W threads
(:func:`_chunk_pass`), the same for both kinds of source.  It alone cuts
a source into tiles.  Each thread walks a contiguous group of tiles; each
tile is synthesized, or read from the row, as moduli (times 1/dx^n for a
row) in one reused per-thread buffer and handed to the consumer's
reduction, whose results come back in tile order: the tile's power sum or
maximum (:func:`_lr_norms`), its peak and boundary-shell maximum
(:func:`_synthesized_ratio`), its power sum and roundoff bound
(:func:`_even_q_norm`), or nothing once its terms are
added into the F-norm's pointwise sum at the tile's positions
(:func:`_accumulate`), whose final L_r sums its r/q-th powers.  A
source's ``at`` maps a tile to its positions in any natural-order
full-grid array, which both the pointwise sum and the boundary shell
(``grid._shell``) are read through.  The boundary check
(:func:`_boundary_ratio`) takes a spectrum's support blocks as one piece
through :func:`_synthesized`, so a narrow check synthesizes no full-grid
field; only on a grid of one tile is it :func:`inverse_ft`'s.  On any
other grid a spectrum that carries a certified ratio, a modulated
witness's (``grid.Spectrum``), gives it unsynthesized, so no hi-band
modulated record synthesizes its check.  A piece's
tile sums are added exactly rounded by ``math.fsum``, and each
point of the F-sum sees its levels in level order, so no result depends
on W.  The stack of W rows of 16 N^n bytes, which its row sources only
view, is all the full-grid memory a Besov norm's pieces add (the F-norm
adds its real pointwise sum, the boundary check of a wide spectrum its
one row, and a 2-D check its shell mask of N^n bytes).  A row whose
inverse FFT would overflow is written scaled by a power of two, as a
narrow piece's window is (``grid._shift``).

A piece whose coefficients are even bit for bit, c(-k mod N) = c(k) with
-k taken per axis and the Nyquist bin its own mirror, has even samples,
|Q_j f(-x)| = |Q_j f(x)|: the coset rows b and P - b along its first axis
hold the same moduli.  :func:`_synthesized` checks this once per piece
from its blocks (:func:`_mirrored`) and marks the source ``mirrored``;
such a source's L_r sum, and the even-q pass's sums, walk only the
blocks b <= B/2, the tiles before T/2 whole and tile T/2 cut to its
first block, and add 2 sum_(b < B/2) S_b - S_0 + S_(B/2) by
``math.fsum``, its maximum the same blocks' (:func:`_pass_parts`).  The
blocks are the cosets of :class:`_Cosets` and the P = N / 64 coset rows
of a long 1-D :class:`_Rows`.  An even long row is also transformed in
half, by ``grid._four_step_even``, into the four-step's coset-order row
to roundoff, which every consumer reads unchanged.  A source of one
tile, a natural-order row, the pointwise F-sum and the boundary check
(whose shell is not mirror-symmetric by one sample) walk every tile.
The witnesses built from radial profiles (``random_bandlimited``,
``lowfreq_blowup``, ``dilated_low``) have even pieces; a ``forward_ft``
spectrum is even only to roundoff, and a modulated witness's moved
boxes not at all, but its coefficients are real, so its |Q_j f| are
even, and the even-q pass makes its sum's spectrum even bit for bit.

At even q, |Q_j f|^q is a trigonometric polynomial of about q Q
frequencies per axis for a window of Q bins, so the F-norm's pointwise sum
is first built as one small spectrum and synthesized once, its pass
bounding the roundoff from the FFT's forward-error bound
(:func:`_even_q_norm`); when every piece is real or even, that spectrum
is made even and its synthesis walked in half.  Only a norm certified to
_SPECTRAL_TOL relative is kept.  Otherwise (a window too wide for its
small grid, a value off the float range, a field decaying until roundoff
swamps S^(r/q)), at q = r >= 1 the F-norm is the B-norm, F^s_(r,r) =
B^s_(r,r) by Fubini (Triebel, Theory of Function Spaces, 1983), from the
same per-level L_r sums; at r < 1 a level's root of an in-range power sum
can fall below the float range where the pointwise sum's does not, so
there, and at q != r, the pointwise path runs.

A spectrum is read only on its support, the boxes off which its
coefficients are exactly zero (``grid.Spectrum``): the whole grid for
``forward_ft``'s, the rows of the terms' boxes for a witness's.  The
level pieces are the level blocks met with those boxes, the out-of-band
mass takes |xi| from ``radial_xi`` on them, and the boundary check's
piece is them.  A sum over them runs over
their values packed flat (:func:`_packed`).  It differs from the sum over
the whole zero-padded array only in how the terms are grouped, so at most
in the last bits.

Every power of a sample goes through :func:`_power`, which takes the
square root by ``np.sqrt``.  Every power sum goes through
:func:`_lr_norms`: a piece's, the F-norm's final L_r, and through
:func:`_lr_norm` the in-memory ones (the Parseval sums at r = 2, the l_q
sum over levels, ``lr_quasinorm`` and the weighted functional).  It
rescales a sum by its maximum only when the plain sum overflows or
underflows, and takes every root, raising ArithmeticError when a root
leaves the float range, so no quasi-norm silently returns inf or 0.  The witness builders' own L_2 sums of their bounded profiles
(``witnesses._l2_norm`` and the per-level mass of ``_random_spectrum``)
are the exception: they are plain ``np.sum(np.abs(.)**2)``, whose terms
cannot leave the float range.
For r < 1 or q < 1 the same formulas produce quasi-norms; nothing here
assumes the triangle inequality.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import product
from math import fsum, isfinite, isinf, ldexp, prod, sqrt

import numpy as np

from .errors import ParameterError, _power_of_two, _warn_fidelity
from .grid import (
    BOUNDARY_TOL,
    Field,
    Spectrum,
    _CHUNK,
    _STEP,
    _fftn,
    _finite,
    _flip_odd,
    _four_step,
    _four_step_even,
    _ifftn,
    _is_long,
    _rotate,
    _scale,
    _shell,
    _shift,
    _union,
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

#: unit roundoff of a long double (a float's where they are the same)
_EPS_L = float(np.finfo(np.longdouble).eps) / 2.0

#: largest certified relative error of the even-q F-norm's one synthesis
_SPECTRAL_TOL = 1e-11


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


def _chunk_pass(source, work, tiles: list | None = None) -> list:
    """``work(a, lo, hi, tmp)`` of every tile [lo, hi) of ``source``, or of the list ``tiles``, in order, on W threads.

    ``a`` is the tile's moduli, ``source.moduli(lo, hi, buf, tmp)``; ``work``
    may overwrite it and the complex buffer ``tmp``.  Tiles hold
    ``source.tile`` of the ``source.size`` samples, a listed one at most
    that, and W = min(usable CPUs, tiles walked), at least 1, so an empty
    source gives [].  Each thread
    walks one contiguous group of tiles in order with one real buffer
    ``buf`` and one ``tmp`` of a tile's length, reused for every tile, and
    with over- and underflow ignored, so the threads allocate no
    tile-sized memory.  The threads are joined, and the first exception
    raised, before this returns.
    """
    size, tile = source.size, source.tile
    if tiles is None:
        tiles = [(lo, min(lo + tile, size)) for lo in range(0, size, tile)]
    width = max(1, min(_usable_cpus(), len(tiles)))
    bufs = np.empty((width, min(size, tile)))
    tmps = np.empty(bufs.shape, dtype=np.complex128)

    def walk(group, buf, tmp):
        with np.errstate(over="ignore", under="ignore"):
            return [work(source.moduli(lo, hi, buf[: hi - lo], tmp), lo, hi, tmp) for lo, hi in group]

    groups = [tiles[i * len(tiles) // width : (i + 1) * len(tiles) // width] for i in range(width)]
    with ThreadPoolExecutor(max(1, width - 1)) as pool:  # starts no thread when width is 1
        rest = [pool.submit(walk, *args) for args in zip(groups[1:], bufs[1:], tmps[1:])]
        results = walk(groups[0], bufs[0], tmps[0])
        for future in rest:
            results += future.result()
    return results


class _Rows:
    """A piece's samples over the full grid; tile [lo, hi) is that chunk of the row.

    Tiles hold _CHUNK samples.  The moduli are |v| times the real
    ``factor`` (the 1/dx^n of a synthesized row); the row is only read.
    It may be any array, in-memory power sums included (:func:`_lr_norm`),
    or with ``cosets`` a long 1-D row in ``grid._four_step``'s coset order,
    sample P a + b at index b S + a (S = _STEP): a tile's moduli are then an
    S by (hi - lo) / S view, and ``at`` its columns of an (S, P) natural view.
    Such a row is ``mirrored`` when its samples are even, f(-x) = f(x): coset
    b's moduli are then coset P - b's, and its ``blocks`` tiles of whole
    cosets each start with the coset of ``lead`` samples that :meth:`tail`
    leaves out (:func:`_pass_parts`).
    """

    tile, lead = _CHUNK, _STEP

    def __init__(self, row: np.ndarray, factor: float = 1.0, cosets: bool = False, mirrored: bool = False):
        self.flat, self.factor, self.cosets, self.mirrored = row.reshape(-1), factor, cosets, mirrored
        self.size = self.flat.size
        self.blocks = (-(-self.size // self.tile),)

    def moduli(self, lo: int, hi: int, buf: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """``factor`` |samples| of tile [lo, hi), in ``buf``."""
        a = np.abs(self.flat[lo:hi], out=buf)
        if self.factor != 1.0:
            a *= self.factor
        return a.reshape(-1, _STEP).T if self.cosets else a

    def at(self, a: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The tile's positions in a full-grid array in natural order, shaped like its moduli."""
        return a.reshape(_STEP, -1)[:, lo // _STEP : hi // _STEP] if self.cosets else a.reshape(-1)[lo:hi]

    @staticmethod
    def tail(a: np.ndarray) -> np.ndarray:
        """A coset-order tile's moduli without its first coset."""
        return a[:, 1:]


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
    computed.  The window's Q^n bins fit one tile, on a grid of more than
    one, so a tile is G = _CHUNK / Q^n cosets, g_i per axis taken from the
    last axis first, and holds ``tile`` = _CHUNK samples.  The blocks of
    cosets in C order are the tiles [lo, hi) of range(N^n).  Its moduli are
    a (Q_1, g_1, ..., Q_n, g_n) view, and ``at`` gives the same positions of
    a natural-order array, ``a.reshape(Q_1, P_1, ...)[:, b_1:b_1 + g_1, ...]``,
    as :class:`_Rows` does: ``tile``, ``size``, ``moduli`` and ``at`` are
    all a tile pass reads.  No full-grid array is allocated.

    The window times 1/(P^n dx^n) is scaled by 2^-``shift`` and the moduli
    by 2^``shift`` (``grid._shift``), so that no transform overflows.

    The source is ``mirrored`` when its window's coefficients are even,
    c(-k) = c(k) (:func:`_mirrored`): coset b_1 of the first axis then holds
    the moduli of coset P_1 - b_1, and the ``blocks`` of tiles along the
    first axis each start with the coset row of ``lead`` samples that
    :meth:`tail` leaves out.  A tile [lo, lo + lead) of a tile's start is
    that row alone, g = (1, g_2, ..., g_n), synthesized and placed by
    ``moduli`` and ``at`` as a whole tile is.
    """

    tile, mirrored = _CHUNK, False

    def __init__(self, grid, piece: list, window: tuple):
        self.N, n = grid.N, grid.n
        self.size = grid.N**n
        self.Q = tuple(q for _, q in window)
        self.P = tuple(grid.N // q for q in self.Q)
        compact = np.zeros(self.Q, dtype=np.complex128)
        for box, values in piece:
            _put_window(compact, box, values, grid.N, tuple(k0 for k0, _ in window))
        factor = 1.0 / (prod(self.P) * grid.dx**n)
        self.shift = _shift([compact], factor, prod(self.Q))
        compact *= ldexp(factor, -self.shift)
        self.compact, cosets, g = compact, _CHUNK // prod(self.Q), []
        for p in reversed(self.P):
            g.insert(0, min(p, cosets))
            cosets //= g[0]
        self.g, self.lead = tuple(g), _CHUNK // g[0]
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

    def _cosets(self, lo: int, hi: int) -> tuple:
        """Cosets per axis of tile [lo, hi): ``g``, or (1, g_2, ...) for its first coset row alone."""
        return self.g if hi - lo == self.tile else (1,) + self.g[1:]

    def moduli(self, lo: int, hi: int, buf: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """|samples| of tile [lo, hi), in ``buf``, synthesized in ``tmp`` with no tile-sized allocation."""
        n, g = len(self.Q), self._cosets(lo, hi)
        x = tmp[: hi - lo].reshape(g + self.Q)
        first = x[(0,) * n]  # the tile's first coset b, whose tile twiddles are all 1
        first[...] = self.compact
        for axis, b in enumerate(self._first_cosets(lo)):
            _rotate(first, axis, self.N, b)
        for i, twiddle in self.twiddles:  # the cosets made so far, times beta_i = 1, 2, ...
            if g[i] == 1:  # a first coset row alone
                continue
            made = tuple(slice(None) if j < i else slice(0, 1) for j in range(n))
            new = tuple(slice(None) if j < i else slice(1, None) if j == i else slice(0, 1) for j in range(n))
            np.multiply(x[made], twiddle[new], out=x[new])
        a = np.abs(_ifftn(x, tuple(range(n, 2 * n))), out=buf.reshape(x.shape)).transpose(self.order)
        return np.ldexp(a, self.shift, out=a) if self.shift else a

    def at(self, a: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The tile's positions in a full-grid array in natural order, shaped like its moduli."""
        view = a.reshape(tuple(size for q, p in zip(self.Q, self.P) for size in (q, p)))
        return view[tuple(
            part for b, size in zip(self._first_cosets(lo), self._cosets(lo, hi)) for part in (slice(None), slice(b, b + size))
        )]

    def tail(self, a: np.ndarray) -> np.ndarray:
        """A tile's moduli without its first coset row along the first axis."""
        return a[:0] if self.g[0] == 1 else a[:, 1:]


def _mirrored(piece: list, N: int) -> bool:
    """Whether a piece's coefficients are even bit for bit, c(-k mod N) = c(k), from its (centered box, values) blocks.

    Centered index i holds k = i - N/2, so -k is at (N - i) mod N: the
    Nyquist index 0 is its own mirror, and a run [a, b) of indices a >= 1
    mirrors to [N - b + 1, N - a + 1) reversed, per axis.  The piece is even
    when the values of each block, reversed, are those on the mirrored box
    of the one block holding it: a nonzero bin whose mirror is off the
    blocks fails at its own block, and a bin off them whose mirror is
    nonzero at its mirror's.  A mirrored box that no one block holds is
    taken as not even.  The check reads each bin about twice, O(bins).
    """
    for box, values in piece:
        runs = []
        for s in box:
            runs.append([(slice(0, 1), slice(0, 1))] if s.start == 0 else [])
            if (a := max(s.start, 1)) < s.stop:
                runs[-1].append((slice(a, s.stop), slice(N - s.stop + 1, N - a + 1)))
        for split in product(*runs):
            part = tuple(slice(run.start - s.start, run.stop - s.start) for (run, _), s in zip(split, box))
            mirror = tuple(m for _, m in split)
            held = [v[tuple(slice(m.start - t.start, m.stop - t.start) for m, t in zip(mirror, other))]
                    for other, v in piece if all(t.start <= m.start and m.stop <= t.stop for m, t in zip(mirror, other))]
            if not held or not np.array_equal(values[part][(slice(None, None, -1),) * len(box)], held[0]):
                return False
    return True


def _power(a: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """``np.power(a, p, out=out)``, by ``np.sqrt`` at p = 1/2: the same bits, from a correctly rounded root, in about half the time."""
    return np.sqrt(a, out=out) if p == 0.5 else np.power(a, p, out=out)


def _pass_parts(source, terms, reduce=np.sum) -> np.ndarray:
    """Rows of parts, one column per array of ``terms``, whose fsum (``reduce`` np.sum) or maximum is that array's over all of ``source``.

    ``terms(a, lo, hi, tmp)`` gives arrays shaped like a tile's moduli
    ``a``, and a part is ``reduce`` of them over some samples: np.sum, or a
    maximum with initial 0.  A ``mirrored`` source, whose blocks b and
    B - b along the first axis (cosets, or a long row's coset rows) hold the
    same moduli, and whose tiles group those blocks into ``blocks[0]`` >= 2
    runs of R tiles each, walks only the blocks b <= B/2: the first T/2 of
    its T tiles whole and the next R cut to their first block, the
    ``source.lead`` samples that ``_chunk_pass`` synthesizes alone.  Each of
    the first R tiles gives the rows of its S and of S less its first block
    (``source.tail``), each further tile before T/2 its S twice, and each
    cut tile its S_(B/2) once: per column, ``math.fsum`` adds them up to the
    full pass's sum, 2 sum_(b < B/2) S_b - S_0 + S_(B/2), and their maximum
    is its maximum.  Any other source, one of one tile too, walks every
    tile, one row each.
    """
    tile, rows, half = source.tile, prod(source.blocks[1:]), prod(source.blocks) // 2
    tiles = None
    if source.mirrored and source.blocks[0] >= 2:
        tiles = [(lo, lo + tile) for lo in range(0, half * tile, tile)]
        tiles += [(lo, lo + source.lead) for lo in range(half * tile, (half + rows) * tile, tile)]

    def work(a, lo, hi, tmp):
        arrays = terms(a, lo, hi, tmp)
        whole, t = tuple(map(reduce, arrays)), lo // tile
        if tiles is None or t >= half:
            return [whole]
        return [whole, tuple(reduce(source.tail(x)) for x in arrays)] if t < rows else [whole, whole]

    return np.array([part for parts in _chunk_pass(source, work, tiles) for part in parts])


def _lr_parts(source, r: float, divisor=None) -> np.ndarray:
    """Terms whose sum is that of the r-th powers of |samples| / divisor, half a mirrored source's walk; no divisor is 1.

    At r = inf the terms are maxima, whose maximum is the samples', otherwise
    sums (:func:`_pass_parts`).
    """

    def terms(a, lo, hi, tmp):
        if divisor is not None:
            a /= divisor
        return (a if isinf(r) else _power(a, r, out=a),)

    return _pass_parts(source, terms, partial(np.max, initial=0.0) if isinf(r) else np.sum).reshape(-1)


def _exact_sum(tile_sums: np.ndarray) -> float:
    """``math.fsum`` of a piece's tile sums; inf when finite sums add up past the float range."""
    try:
        return fsum(tile_sums.tolist())
    except OverflowError:  # fsum's "intermediate overflow": an overflowed sum, rescaled like one
        return np.inf


def _lr_norms(source, r: float, weight: float, root: float | None = None) -> float:
    """(weight * sum |samples|^r)^(1/root) of a source's piece, in one pass.

    ``root`` defaults to r, which with ``weight`` dx^n gives the L_r
    quasi-norm; r = inf gives the maximum, and an empty source 0.0.  The
    power sum is the tile sums added exactly rounded by ``math.fsum``
    (Shewchuk, DCG 1997), so no sum depends on W; finite tile sums adding
    up past the float range count as an overflow.  Only when the sum over-
    or underflows does one more pass find the maximum, and, when that is
    positive and finite, another sum the powers scaled by it (Blue, ACM
    TOMS 1978); an in-range sum keeps the bits of the plain formula.
    Every root is taken here: a positive, finite power sum whose root
    leaves the float range raises ArithmeticError, so no quasi-norm
    silently returns inf or 0.
    """
    parts = _lr_parts(source, r)
    if isinf(r):
        return float(parts.max(initial=0.0))
    root = r if root is None else root
    total, scale = _exact_sum(parts) * weight, 1.0
    if not _TINY <= total < np.inf:  # over- or underflowed, or nan
        peak = float(_lr_parts(source, np.inf).max(initial=0.0))
        if 0.0 < peak < np.inf:  # zero, inf or nan: the plain value is the answer
            scale, total = peak, _exact_sum(_lr_parts(source, r, peak)) * weight
    try:
        norm = scale ** (r / root) * total ** (1.0 / root)
    except OverflowError:  # a Python float power beyond the float range
        norm = np.inf
    if 0.0 < total < np.inf and not 0.0 < norm < np.inf:
        side = "falls below" if norm == 0.0 else "exceeds"
        raise ArithmeticError(f"quasi-norm {side} the float range: a power sum to the power 1/{root!r}")
    return norm


def _lr_norm(a: np.ndarray, r: float, weight: float = 1.0, root: float | None = None) -> float:
    """(weight * sum |a|^r)^(1/root) of an in-memory array by :func:`_lr_norms`; r = inf gives its maximum."""
    return _lr_norms(_Rows(a), r, weight, root)


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
    (:func:`_boundary_ratio`) is the ratio it carries, if any (a modulated
    witness's), or reads its field through :func:`_synthesized`, a narrow
    spectrum's tile by tile with no full-grid array.
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
    """``boundary_decay_ratio(inverse_ft(spec))``, with no full-grid field on a grid of more than one tile.

    On a grid of one tile it is that.  On any other, a spectrum that
    carries a certified boundary ratio (``grid.Spectrum``, a modulated
    witness's) gives it with no synthesis, and any other spectrum's is read
    from its support blocks by :func:`_synthesized_ratio`.  The zero
    spectrum gives 0.0.
    """
    g = spec.grid
    if g.N**g.n <= _CHUNK:  # the benchmark's smoke test counts inverse_ft's spans under a norm on one-tile grids
        return boundary_decay_ratio(inverse_ft(spec))
    if spec._boundary is not None:
        return spec._boundary
    return _synthesized_ratio(g, [(box, spec.coeffs[box]) for box in spec._support])


def _synthesized_ratio(grid, blocks) -> float:
    """The boundary ratio of the field whose spectrum is the (centered box, values) ``blocks``, zero off them.

    The blocks are one piece of :func:`_synthesized`: its cosets, or one
    row, give each tile's peak and its largest modulus in the boundary
    shell, read at the tile's positions (``at``) of the natural-order shell
    mask, ``grid._union`` of the vector ``grid._shell`` over the axes: the
    vector itself in 1-D.  No blocks, or zero ones, give 0.0.
    """
    shell = _union(_shell(grid), grid.n)
    peak = edge = 0.0
    for _, source in _synthesized(grid, [None], lambda _: blocks):

        def work(a, lo, hi, tmp):
            return a.max(), np.max(a, where=source.at(shell, lo, hi), initial=0.0)

        peak, edge = map(float, np.max(_chunk_pass(source, work), axis=0))
    return 0.0 if peak == 0.0 else edge / peak


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

    Q is the least power of two holding the axis's nonzero frequencies after
    their largest circular gap; past _CHUNK of them the window is the whole
    axis, (0, N), with no gap sought.  They are any block's (``any`` over
    the other axes), ORed over the blocks of one run [start, stop) on the
    axis: off the first axis a piece's blocks share one run (a level box met
    with whole-row support boxes), and a shared frequency counts once.
    """
    N, runs = grid.N, [{} for _ in range(grid.n)]
    for box, values in piece:
        nonzero = values != 0
        for i, s in enumerate(box):
            hit = nonzero.any(axis=tuple(j for j in range(grid.n) if j != i))
            run = (s.start, s.stop)
            runs[i][run] = runs[i][run] | hit if run in runs[i] else hit
    window = []
    for axis in runs:
        count = sum(int(np.count_nonzero(hit)) for hit in axis.values())
        if count == 0:
            return None
        if count > _CHUNK:
            window.append((0, N))
            continue
        k = np.concatenate([start - grid.center + np.flatnonzero(hit) for (start, _), hit in axis.items()])
        if len(axis) > 1:
            k.sort()
        gaps = np.diff(k, append=k[0] + N)
        widest = int(np.argmax(gaps))
        span = N - int(gaps[widest]) + 1
        window.append((int(k[(widest + 1) % k.size]), min(N, 1 << (span - 1).bit_length())))
    return tuple(window)


def _inverse_rows(x: np.ndarray, axes: tuple, mirrored) -> np.ndarray:
    """The inverse FFT along ``axes``, counted from the end, of each row of a stack of wide rows, in place.

    A long 1-D row goes through ``grid._four_step`` and is left in coset
    order, or through ``grid._four_step_even`` where its flag in
    ``mirrored`` says its coefficients are even (:func:`_mirrored`); both
    give the same coset-order row.  Each row runs on a thread of its own;
    numpy's transforms release the GIL, so the W rows run on W cores.
    """

    def inverse(row, even):
        if not _is_long(row):
            return _ifftn(row, axes)
        return _four_step_even(row.reshape(-1, _STEP)) if even else _four_step(_ifftn, row.reshape(-1, _STEP), 0)

    with ThreadPoolExecutor(max(1, len(x) - 1)) as pool:  # starts no thread for one row
        rest = pool.map(inverse, x[1:], mirrored[1:])
        inverse(x[0], mirrored[0])
        list(rest)  # raises a row's exception
    return x


def _synthesized(grid, keys, blocks):
    """(key, source) of each nonempty piece in the list ``keys``, in order.

    ``blocks(key)`` is a piece's spectrum as (centered box, values) blocks,
    zero off the boxes, and :func:`_window` finds the frequencies it
    occupies.  A narrow piece, whose window's Q^n bins fit one tile of
    _CHUNK samples on a grid of more than one tile, is read by FFT pruning
    coset by coset (:class:`_Cosets`).  Any other piece takes the next free
    row of one stack of at most W = usable CPUs rows, in FFT-natural order,
    and the stack's rows go through their inverse FFTs in place, one row per
    thread, when it is full, before a narrow piece and at the end, so the W
    transforms run on W cores; then each transformed row is a source of its
    own, a view of the stack (:class:`_Rows`, whose moduli carry the
    1/dx^n), and the stack is zeroed after the last.  A row and a window
    are written scaled by 2^-s and their moduli carry 2^s, where s is
    ``grid._shift``'s, 0 unless a transform would overflow.  Samples come in natural
    or coset order, which no L_r sum depends on (``at`` maps them); a source
    is valid until the next is drawn.  The blocks of a narrow piece and of a
    long 1-D row are checked once as they are written, and the source is
    ``mirrored`` when they are even (:func:`_mirrored`); an even long row is
    transformed by ``grid._four_step_even`` (:func:`_inverse_rows`).
    """
    rows, stacked = None, []

    def flush():
        samples = _inverse_rows(rows[: len(stacked)], tuple(range(-grid.n, 0)), [m for _, _, m in stacked])
        for (key, shift, mirrored), row in zip(stacked, samples):
            yield key, _Rows(row, ldexp(1.0 / grid.dx**grid.n, shift), _is_long(row), mirrored)
        rows[: len(stacked)] = 0.0
        stacked.clear()

    for i, key in enumerate(keys):
        piece = blocks(key)
        window = _window(grid, piece)
        narrow = window is not None and prod(q for _, q in window) <= _CHUNK < grid.N**grid.n
        if narrow:
            source = _Cosets(grid, piece, window)
            source.mirrored = _mirrored(piece, grid.N)
        elif window is not None:
            if rows is None:
                rows = np.zeros((min(_usable_cpus(), len(keys) - i),) + grid.shape, dtype=np.complex128)
            row = rows[len(stacked)]
            for box, values in piece:
                _put_window(row, box, values, grid.N, (0,) * grid.n)
            shift = _shift([values for _, values in piece], 1.0, row.size)
            if shift:
                _scale(row, ldexp(1.0, -shift))
            stacked.append((key, shift, _is_long(row) and _mirrored(piece, grid.N)))
        piece = values = None  # a piece's blocks (16 MB on hi-band) must not outlive its write
        if narrow:
            if stacked:
                yield from flush()
            yield key, source
        if stacked and (len(stacked) == len(rows) or i == len(keys) - 1):
            yield from flush()


def _pieces_lr(grid, keys, blocks, r: float) -> dict:
    """{key: grid L_r quasi-norm of the piece ``blocks(key)``, 0.0 if empty}, in key order."""
    norms = dict.fromkeys(keys, 0.0)
    for key, source in _synthesized(grid, keys, blocks):
        norms[key] = _lr_norms(source, r, grid.dx**grid.n)
    return norms


def _accumulate(source, key, s: float, q: float, acc, peak=None) -> None:
    """Add (2^(js) |Q_j f|)^q of the source's piece, level j = ``key``, into ``acc``, on W threads.

    |S_0 f|, key None, carries no factor; q = inf takes the pointwise
    maximum instead of the sum.  With ``peak``, each scaled modulus is
    divided by ``peak`` where that is positive before its power is taken.
    Each tile takes the moduli into the thread's buffer and adds them into
    the tile's positions of ``acc``; called in key order, a point sees its
    levels in order whatever W.
    """
    gain = 1.0 if key is None else _power_of_two(key, s, "level weight")

    def work(a, lo, hi, tmp):
        if gain != 1.0:  # s = 0 or S_0: the product would change no bit
            a *= gain
        if peak is not None:
            top = source.at(peak, lo, hi)
            np.divide(a, top, out=a, where=top > 0.0)
        out = source.at(acc, lo, hi)
        if isinf(q):
            np.maximum(out, a, out=out)
        else:
            out += _power(a, q, out=a)

    _chunk_pass(source, work)


def besov_norm(f: Field | Spectrum, params: SpaceParams) -> float:
    """Besov quasi-norm of a sampled field, given as a Field or its Spectrum.

    Homogeneous: l_q over the feasible band of 2^(js) ||Q_j f||_r, with the
    k = 0 bin discarded.  Inhomogeneous: ||S_0 f||_r joins the l_q sum with
    the levels j >= 1.  At r = 2 each piece's norm comes from Parseval on
    its spectral window; every other r synthesizes the nonempty pieces,
    narrow ones coset by coset and the others on the full grid, W per FFT.

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
    quadrature; at even q it is synthesized once from its spectrum when
    that is certified to 1e-11 relative, and otherwise at q = r >= 1 the
    norm is the Besov norm's per-level sums.  Requires r < inf.

    Raises:
        ParameterError: "invalid params" when params.family != "F",
            "non-finite input" when f holds a nan or an infinity.
    """
    if params.family != "F":
        raise ParameterError(f"invalid params: triebel_norm needs family F, got {params.family}")
    return _norm(f, params)


def _even_q_norm(spec: Spectrum, keys: list, params: SpaceParams) -> float | None:
    """The F-norm at even q from one synthesis of its pointwise sum S; None unless certified.

    Piece j's window of Q bins per axis (:func:`_window`) makes |Q_j f|^q a
    polynomial of q (Q - 1) + 1 frequencies per axis, given by a long-double
    FFT of its samples on M >= that many points per axis; times w_j =
    (2^(js) / (N dx)^n)^q (2^(js) = 1 for S_0) they add into one centred
    block T.  The pass over T's synthesis S~ sums S~^rho, rho = r / q, and
    the largest |S~^rho - t^rho| for t in [S~ - d, S~ + d] clipped at 0,
    where, to first order in the unit roundoffs u and u_L of double and
    long double, with l_j = log2(M_j^n) and C_j = sum |c_k| over piece j,

        d = (7 log2(N^n) + 80 n) u sum |T_l| + sum_j M_j^(n/2) (q + 2) (7 l_j + 20) u_L w_j C_j^q

    bounds |S~ - S|.  An FFT errs by at most 7 u per radix-2 stage times the
    sum of moduli of its inputs (Higham's eta, twiddles within u; Accuracy
    and Stability of Numerical Algorithms, 2002, Sec. 24.1): a small-grid
    sample by 7 l_j u_L C_j, its q-th power by q (7 l_j + 2) u_L C_j^q, and
    by Higham's normwise bound the M_j^n coefficients by (q + 1)(7 l_j + 2)
    u_L C_j^q in 2-norm; w_j and the sum into T fit in the rest of the 20.
    The synthesis errs by 7 log2(N^n) u in its FFT, 76 u per axis in the
    coset twiddles (two factors per rotation, each phase off by up to 4 pi u)
    and 4 u per axis in T's rounding to double, the scalings and the moduli.
    Only M <= N with M^n <= 2^16 is taken, and the norm only if nothing left
    the float range and its relative error bound, with (130 + log2 tile) u
    for the powers and tile sums, is at most _SPECTRAL_TOL.

    When every piece is real (imaginary parts exactly 0) or even
    (:func:`_mirrored`), each |Q_j f| is even, so S is real and even and so
    are its exact coefficients.  T then leaves out its edge k = -t/2 along
    each even axis, exactly 0 in S since q (Q - 1) / 2 < M / 2, and is
    replaced by Re(T(k) + T(-k)) / 2 in long double: even bit for bit, so
    :func:`_synthesized` marks its source mirrored, and its pass walks the
    blocks b <= B/2 (:func:`_pass_parts`).  The average errs no more against
    the exact T, summed over k, than T did, and its rounding adds u_L
    sum |T_l| to d.  d bounds |S~ - S| at every walked sample and S(-x) =
    S(x), so the walked half's one-signed bound terms, added as its powers
    are, bound the full sum's error as the full walk's do.
    """
    g, q, r = spec.grid, params.q, params.r
    side = min(g.N, 1 << (_CHUNK.bit_length() - 1) // g.n)  # the most M per axis: side^n <= 2^16
    if q % 2 or q > side:  # q inf too
        return None
    parts, volume, slack, even = [], np.longdouble(g.N * g.dx) ** g.n, 0.0, True
    with np.errstate(all="ignore"):
        for key in keys:
            piece = _pieces_of(spec)(key)
            if (window := _window(g, piece)) is None:  # an empty level, unweighted
                continue
            even = even and (not any(values.imag.any() for _, values in piece) or _mirrored(piece, g.N))
            M = tuple(1 << (int(q) * (Q - 1)).bit_length() for _, Q in window)
            if max(M) > side:
                return None
            c = np.zeros(M, dtype=np.clongdouble)
            for box, values in piece:
                _put_window(c, box, values, g.N, tuple(k0 for k0, _ in window))
            w = ((1.0 if key is None else _power_of_two(key, params.s, "level weight")) / volume) ** q
            slack += sqrt(prod(M)) * (q + 2) * (7 * np.log2(prod(M)) + 20) * _EPS_L * w * np.sum(np.abs(c)) ** q
            a = np.abs(_ifftn(c, norm="forward")) ** q  # c is transformed in place
            _flip_odd(a)  # M is 1 or even along each axis, so the spectrum comes out centred
            parts.append((M, w * _fftn(a.astype(np.clongdouble), norm="forward")))
        T = np.zeros(tuple(map(max, zip(*(M for M, _ in parts)))), dtype=np.clongdouble)
        for M, a in parts:
            T[tuple(slice(t // 2 - m // 2, t // 2 - m // 2 + m) for t, m in zip(T.shape, M))] += a
        if even:  # S is real and even: so is T, from k = -t/2 + 1 (its exact 0 at -t/2 left out) up
            T = T[tuple(slice(1 - t % 2, None) for t in T.shape)].real
            T = (T + T[(slice(None, None, -1),) * T.ndim]) / 2
            slack += _EPS_L * float(np.sum(np.abs(T)))
        T = (T * volume).astype(np.complex128)  # the centred coefficients of S (N dx)^n
        spread = float((7 * np.log2(g.N**g.n) + 80 * g.n) * _EPS * np.sum(np.abs(T)) / volume)
        if not _TINY <= spread <= (delta := float(spread + slack)) < np.inf:
            return None
        box = tuple(slice(g.center - t // 2, g.center - t // 2 + t) for t in T.shape)

        def terms(a, lo, hi, tmp):  # a is S~: its powers, and their one-signed differences from the ends' powers
            end = np.add(a, delta if r > q else -delta, out=tmp.view(np.float64)[: hi - lo].reshape(a.shape))
            _power(np.maximum(end, 0.0, out=end), r / q, out=end)
            _power(a, r / q, out=a)
            return a, np.subtract(a, end, out=end)

        for _, source in _synthesized(g, [None], lambda _: [(box, T)]):
            sums, bounds = _pass_parts(source, terms).T
        total = _exact_sum(sums) * g.dx**g.n
        e = min(1.0, abs(np.float64(_exact_sum(bounds))) * g.dx**g.n / total + (130 + np.log2(source.tile)) * _EPS)
        norm = np.float64(total) ** (1.0 / r)
        certified = max((1.0 + e) ** (1.0 / r) - 1.0, 1.0 - (1.0 - e) ** (1.0 / r)) <= _SPECTRAL_TOL
    return float(norm) if certified and _TINY <= total < np.inf and 0.0 < norm < np.inf else None


def _triebel(spec: Spectrum, band: BandLimits, params: SpaceParams) -> float:
    """The F-norm: by :func:`_even_q_norm` when it certifies one, else as :func:`_besov` at q = r >= 1, else pointwise."""
    keys = _norm_levels(params, band) + ([] if params.homogeneous else [None])
    if (norm := _even_q_norm(spec, keys, params)) is not None:
        return norm
    if params.q == params.r >= 1.0:  # F^s_(r,r) = B^s_(r,r) by Fubini: the per-level L_r sums
        return _besov(spec, band, params)
    return _pointwise_triebel(spec, band, params)


def _pointwise_triebel(spec: Spectrum, band: BandLimits, params: SpaceParams) -> float:
    """The F-norm by its pointwise sum over levels, for any q and r.

    Each level's (2^(js) |Q_j f|)^q is added into one sum on the grid
    (:func:`_accumulate`), whose L_r is taken; an overflow, or an underflow
    that can move the sum, redoes it scaled by the pointwise maximum of the
    levels.
    """
    g = spec.grid
    q, r = params.q, params.r
    keys = _norm_levels(params, band) + ([] if params.homogeneous else [None])

    def pointwise(exponent, acc, peak=None):
        for key, source in _synthesized(g, keys, _pieces_of(spec)):
            _accumulate(source, key, params.s, exponent, acc, peak)
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
    _power(acc, 1.0 / q, out=acc)
    acc *= peak
    return _lr_norm(acc, r, weight)


def space_norm(f: Field | Spectrum, params: SpaceParams) -> float:
    """The quasi-norm of params.family: :func:`besov_norm` or :func:`triebel_norm`."""
    return (besov_norm if params.family == "B" else triebel_norm)(f, params)


def _norm(f: Field | Spectrum, params: SpaceParams, spec: Spectrum | None = None) -> float:
    """The quasi-norm of params.family; a field's spectrum already at hand is passed as ``spec``."""
    norm = _besov if params.family == "B" else _triebel
    return norm(*_prepared_spectrum(f, params, spec), params)
