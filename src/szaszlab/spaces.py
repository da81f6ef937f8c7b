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
exactly empty, and those are skipped.  Every piece is read through its
blocks from :func:`~szaszlab.littlewood_paley._piece_blocks`.

Every other piece, and every witness term, is synthesized on the full grid
in batches by :func:`_synthesized`, which takes a piece as (centered box,
values) blocks and alone decides whether it is empty (:func:`_pieces_lr`
gives their L_r norms).  A call allocates one stack of W complex full-grid
rows, W being the usable CPUs (``os.sched_getaffinity``, else
``os.cpu_count()``) capped by the number of pieces.  Each nonempty piece
takes the next free row in FFT-natural order (frequency k at index k mod
N), and a full stack goes through one multi-row inverse FFT
(:func:`~szaszlab.grid.inverse_ft_rows`), which pocketfft spreads over the
cores.  No L_r sum depends on sample order, so no ``fftshift`` copy is made.

The rest is one chunked pass over the batch on W threads
(:func:`_chunk_pass`).  Each thread walks a contiguous group of chunks of
2^16 samples and, for each chunk, every row in level order: it scales the
chunk by 1/dx^n in place, takes its modulus into one reused per-thread
buffer, and keeps the chunk's power sum (:func:`_rows_lr`) or adds the
chunk's terms into the F-norm's pointwise sum (:func:`_accumulate`).  A
row's chunk sums are added pairwise in chunk order (:func:`_tree_sum`),
which on the power-of-two lengths of every grid is bit for bit ``np.sum``
of the whole row, and each point of the F-sum sees its levels in level
order, so no result depends on W.  The stack of W rows of 16 N^n bytes is
all the full-grid memory a Besov norm adds (the F-norm adds its real
pointwise sum).

Power sums are rescaled by their maximum only when the plain sum overflows
or underflows, so no quasi-norm silently returns inf or 0.
For r < 1 or q < 1 the same formulas produce quasi-norms; nothing here
assumes the triangle inequality.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import isfinite, isinf, sqrt

import numpy as np

from .errors import ParameterError, _warn_fidelity
from .grid import (
    BOUNDARY_TOL,
    Field,
    Spectrum,
    _unscale,
    boundary_decay_ratio,
    forward_ft,
    inverse_ft,
    inverse_ft_rows,
    radial_xi,
)
from .littlewood_paley import BandLimits, _piece_blocks, _put_natural, feasible_band

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


def _in_range(total: float) -> bool:
    """Whether a plain power sum is finite and normal, so that no digits were lost."""
    return isfinite(total) and total >= _TINY


def _power_sum(a: np.ndarray, p: float, weight: float = 1.0) -> float:
    """(weight * sum(a**p))**(1/p) for a nonnegative array, with no spurious inf or 0.

    p = inf gives the maximum (0.0 for an empty array).  The plain sum is
    kept unless it is non-finite or below the smallest normal float; only
    then is it recomputed with ``a`` scaled by its maximum (Blue, ACM TOMS
    1978).  An in-range sum thus costs one pass and has the bits of the
    plain formula.
    """
    if isinf(p):
        return float(a.max()) if a.size else 0.0
    with np.errstate(over="ignore", under="ignore"):
        total = float(np.sum(np.power(a, p))) * weight
    if _in_range(total):
        return total ** (1.0 / p)
    peak = float(a.max()) if a.size else 0.0
    if not 0.0 < peak < np.inf:  # zero, inf or nan: the plain value is the answer
        return total ** (1.0 / p)
    return peak * (float(np.sum((a / peak) ** p)) * weight) ** (1.0 / p)


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: samples per chunk of a row pass: 1 MiB of complex samples, which stays in L2
_CHUNK = 2**16


def _chunk_pass(size: int, work) -> None:
    """Call ``work(lo, hi, buf)`` for every chunk [lo, hi) of range(size), on W threads.

    Chunks hold _CHUNK samples, and W = min(usable CPUs, chunks).  Each
    thread walks one contiguous group of chunks in order with one real
    buffer of a chunk's length, reused for every chunk, and with over- and
    underflow ignored.  The buffers are allocated here, so the threads
    allocate no memory.  The threads are joined, and the first exception
    raised, before this returns.
    """
    starts = range(0, size, _CHUNK)
    width = min(_usable_cpus(), len(starts))
    bufs = np.empty((width, min(size, _CHUNK)))

    def walk(group, buf):
        with np.errstate(over="ignore", under="ignore"):
            for lo in group:
                hi = min(lo + _CHUNK, size)
                work(lo, hi, buf[: hi - lo])

    groups = [starts[i * len(starts) // width : (i + 1) * len(starts) // width] for i in range(width)]
    with ThreadPoolExecutor(max(1, width - 1)) as pool:  # starts no thread when width is 1
        rest = [pool.submit(walk, group, buf) for group, buf in zip(groups[1:], bufs[1:])]
        walk(groups[0], bufs[0])
        for future in rest:
            future.result()


def _tree_sum(parts: list) -> float:
    """Chunk partial sums added pairwise, neighbours first, in chunk order.

    numpy sums a power-of-two length by halving it down to 128-element
    leaves (pairwise summation; Higham, SIAM J. Sci. Comput. 1993), so each
    chunk is one subtree: on the power-of-two lengths of every grid this is
    bit for bit ``np.sum`` of the whole array.
    """
    while len(parts) > 1:
        parts = [a + b for a, b in zip(parts[::2], parts[1::2])] + parts[len(parts) & ~1 :]
    return parts[0]


def _rows_lr(rows: np.ndarray, r: float, grid, prepare=None) -> list:
    """L_r quasi-norm on ``grid`` of each row of a stack, in one chunked pass on W threads.

    ``rows`` has shape (W, *grid.shape).  For each chunk, each row in turn
    is set by ``prepare(chunk)`` in place when given, its modulus goes to
    the thread's buffer, and the chunk keeps the sum of its r-th powers
    (its maximum for r = inf).  A row's power sum is its chunk sums added by
    :func:`_tree_sum`, and is recomputed rescaled from the prepared row only
    when it over- or underflows (:func:`_power_sum`).
    """
    flat = rows.reshape(len(rows), -1)
    parts = np.empty((len(flat), -(-flat.shape[1] // _CHUNK)))

    def work(lo, hi, buf):
        for i, v in enumerate(flat[:, lo:hi]):
            if prepare is not None:
                prepare(v)
            np.abs(v, out=buf)
            parts[i, lo // _CHUNK] = buf.max() if isinf(r) else np.sum(np.power(buf, r, out=buf))

    _chunk_pass(flat.shape[1], work)
    if isinf(r):
        return [float(part.max()) for part in parts]
    weight = grid.dx**grid.n
    norms = []
    for v, part in zip(flat, parts):
        total = _tree_sum(part.tolist()) * weight
        norms.append(total ** (1.0 / r) if _in_range(total) else _power_sum(np.abs(v), r, weight))
    return norms


def lr_quasinorm(f: Field, r: float) -> float:
    """L_r quasi-norm of a sampled field, (sum |f(x_i)|^r dx^n)^(1/r).

    r = inf uses the grid maximum of |f|.  The power sum is rescaled when it
    would overflow or underflow.

    Raises:
        ParameterError: "invalid exponent" for r <= 0.
    """
    if not r > 0:
        raise ParameterError(f"invalid exponent: r must be > 0, got {r}")
    return _rows_lr(f.values[None], r, f.grid)[0]


def _prepared_spectrum(
    f: Field | Spectrum, params: SpaceParams, spec: Spectrum | None = None
) -> tuple[Spectrum, BandLimits]:
    """Spectrum of f plus the model-fidelity validations shared by norms.

    A Field is transformed once, unless its spectrum is passed as ``spec``.
    A Spectrum is used as given and is synthesized once for the boundary
    check only; that field is dropped before the norm's levels are
    evaluated.  Neither path copies the spectrum: the k = 0 bin that the
    homogeneous norms discard lies outside every level mask, so it needs no
    zeroing.
    """
    if spec is None:
        spec = forward_ft(f) if isinstance(f, Field) else f
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
            _warn_fidelity(
                f"spectral mass {outside/total:.2e} of total lies outside the "
                f"feasible band's annuli; the truncated norm misses it"
            )
    ratio = boundary_decay_ratio(f if isinstance(f, Field) else inverse_ft(spec))
    if ratio > BOUNDARY_TOL:
        _warn_fidelity(
            f"space norm: field is {ratio:.2e} of its peak near the box boundary "
            f"(tolerance {BOUNDARY_TOL:.0e}); periodization error may not be subdominant"
        )
    return spec, band


def _norm_levels(params: SpaceParams, band) -> list[int]:
    if params.homogeneous:
        return list(band.levels())
    return [j for j in band.levels() if j >= 1]


def _parseval_l2(grid, energy: float) -> float:
    """||g||_2 of the field whose coefficients have sum |c_k|^2 = ``energy``."""
    return sqrt(energy * grid.dxi**grid.n / (2.0 * np.pi) ** grid.n)


def _piece(spec: Spectrum, j: int | None) -> list:
    """Q_j f's spectrum (S_0 f's for j None) as (box, masked coefficients) blocks, centered."""
    return [(box, spec.coeffs[box] * mult) for box, mult in _piece_blocks(spec.grid, j)]


def _piece_l2(spec: Spectrum, j: int | None) -> float:
    """||Q_j f||_2 (||S_0 f||_2 for j None) by Parseval on the piece's blocks, with no synthesis."""
    energy = 0.0
    for _, block in _piece(spec, j):
        energy += float(np.sum(np.abs(block) ** 2))
    return _parseval_l2(spec.grid, energy)


def _synthesized(grid, keys, blocks):
    """Batches (keys, rows) of the nonempty pieces in the list ``keys``, in order, W at a time.

    ``blocks(key)`` is a piece's spectrum as (centered box, values) blocks,
    zero off the boxes.  A piece with a nonzero value takes the next free
    row of one stack of W = min(usable CPUs, len(keys)) rows, in FFT-natural
    order, and each full stack (and the last, partial one) goes through one
    :func:`inverse_ft_rows` call, so the W transforms run on W cores.  A
    batch holds the keys of its pieces and their unscaled samples in
    natural order, which no L_r sum depends on; it is valid until the next
    batch is drawn.
    """
    rows = np.zeros((min(_usable_cpus(), len(keys)),) + grid.shape, dtype=np.complex128)
    batch: list = []
    for i, key in enumerate(keys):
        piece = blocks(key)
        if any(values.any() for _, values in piece):
            for box, values in piece:
                _put_natural(rows[len(batch)], box, values)
            batch.append(key)
        piece = values = None  # a piece's blocks (16 MB on hi-band) must not outlive its write
        if batch and (len(batch) == len(rows) or i == len(keys) - 1):
            yield batch, inverse_ft_rows(grid, rows[: len(batch)])
            rows[: len(batch)] = 0.0
            batch = []


def _pieces_lr(grid, keys, blocks, r: float) -> dict:
    """{key: grid L_r quasi-norm of the piece ``blocks(key)``, 0.0 if empty}, in key order."""
    norms = dict.fromkeys(keys, 0.0)
    for batch, rows in _synthesized(grid, keys, blocks):
        norms.update(zip(batch, _rows_lr(rows, r, grid, partial(_unscale, grid=grid))))
    return norms


def _accumulate(rows: np.ndarray, keys: list, grid, s: float, q: float, acc, peak=None) -> None:
    """Add (2^(js) |Q_j f|)^q of each synthesized row into ``acc``, in key order, on W threads.

    ``rows`` are unscaled samples of the pieces ``keys`` (|S_0 f| for key
    None carries no factor); q = inf takes the pointwise maximum instead of
    the sum.  With ``peak``, each scaled modulus is divided by ``peak``
    where that is positive before its power is taken.  Each chunk scales
    every row in place, takes its modulus into the thread's buffer and adds
    into the chunk's slice of ``acc``, so a point sees its levels in order
    whatever the batch width.
    """
    flat = rows.reshape(len(rows), -1)
    sink, top = acc.reshape(-1), None if peak is None else peak.reshape(-1)
    gains = [None if j is None else 2.0 ** (j * s) for j in keys]

    def work(lo, hi, buf):
        out = sink[lo:hi]
        for gain, v in zip(gains, flat[:, lo:hi]):
            _unscale(v, grid)
            np.abs(v, out=buf)
            if gain is not None:
                buf *= gain
            if top is not None:
                np.divide(buf, top[lo:hi], out=buf, where=top[lo:hi] > 0.0)
            if isinf(q):
                np.maximum(out, buf, out=out)
            else:
                out += np.power(buf, q, out=buf)

    _chunk_pass(sink.size, work)


def besov_norm(f: Field | Spectrum, params: SpaceParams) -> float:
    """Besov quasi-norm of a sampled field, given as a Field or its Spectrum.

    Homogeneous: l_q over the feasible band of 2^(js) ||Q_j f||_r, with the
    k = 0 bin discarded.  Inhomogeneous: ||S_0 f||_r joins the l_q sum with
    the levels j >= 1.  At r = 2 each piece's norm comes from Parseval on
    its spectral window; every other r synthesizes the nonempty pieces on
    the full grid, W at a time.

    Raises:
        ParameterError: "invalid params" when params.family != "B".
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
        norms = _pieces_lr(spec.grid, keys, partial(_piece, spec), params.r)
    summands = [x if j is None else 2.0 ** (j * params.s) * x for j, x in norms.items()]
    return _power_sum(np.asarray(summands), params.q)


def triebel_norm(f: Field | Spectrum, params: SpaceParams) -> float:
    """Lizorkin-Triebel quasi-norm of a sampled field, given as a Field or its Spectrum.

    The l_q sum over levels is taken pointwise on the grid before the L_r
    quadrature.  Requires r < inf.

    Raises:
        ParameterError: "invalid params" when params.family != "F".
    """
    if params.family != "F":
        raise ParameterError(f"invalid params: triebel_norm needs family F, got {params.family}")
    return _norm(f, params)


def _triebel(spec: Spectrum, band: BandLimits, params: SpaceParams) -> float:
    g = spec.grid
    q, r = params.q, params.r
    keys = _norm_levels(params, band) + ([] if params.homogeneous else [None])

    def pointwise(exponent, acc, peak=None):
        for batch, rows in _synthesized(g, keys, partial(_piece, spec)):
            _accumulate(rows, batch, g, params.s, exponent, acc, peak)
        return acc

    acc = pointwise(q, np.zeros(g.shape))
    if isinf(q):
        return _rows_lr(acc[None], r, g)[0]
    if acc.max() < np.inf:
        # a point whose power sum is below the normal range has all its terms
        # there, so its value is below (pieces * tiny)^(1/q); keep the plain
        # norm when all such points together cannot move the L_r sum
        low = int(np.count_nonzero(acc < _TINY))
        norm = _rows_lr(acc[None], r, g, lambda v: np.power(v, 1.0 / q, out=v))[0]
        lost = (low * g.dx**g.n) ** (1.0 / r) * (len(keys) * _TINY) ** (1.0 / q)
        if lost <= _EPS ** (1.0 / r) * norm:
            return norm
    # overflow, or underflow that matters: redo each point with its pieces
    # scaled by their maximum there (Blue 1978)
    peak = pointwise(np.inf, np.zeros(g.shape))
    acc[...] = 0.0
    pointwise(q, acc, peak)
    np.power(acc, 1.0 / q, out=acc)
    acc *= peak
    return _rows_lr(acc[None], r, g)[0]


def space_norm(f: Field | Spectrum, params: SpaceParams) -> float:
    """The quasi-norm of params.family: :func:`besov_norm` or :func:`triebel_norm`."""
    return (besov_norm if params.family == "B" else triebel_norm)(f, params)


def _norm(f: Field | Spectrum, params: SpaceParams, spec: Spectrum | None = None) -> float:
    """The quasi-norm of params.family; a field's spectrum already at hand is passed as ``spec``."""
    norm = _besov if params.family == "B" else _triebel
    return norm(*_prepared_spectrum(f, params, spec), params)
