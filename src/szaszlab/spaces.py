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
blocks from :func:`~szaszlab.littlewood_paley._piece_blocks`, and its
emptiness is decided there.

Every other piece is synthesized on the full grid, in batches.  A norm call
allocates one stack of W complex full-grid rows, W being the number of CPUs
the process may use (``os.sched_getaffinity``, else ``os.cpu_count()``)
capped by the number of pieces.  Each nonempty piece writes its blocks
into the next free row in FFT-natural order (frequency k at index k mod N),
and a full stack goes through one multi-row inverse FFT
(:func:`~szaszlab.grid.inverse_ft_rows`), which pocketfft spreads over the
cores.  The samples stay in natural order
too: no L_r sum depends on the order of the samples, so no ``fftshift``
copy is made.  |piece| and its powers are computed inside the row's own
memory, so the stack of W rows of 16 N^n bytes is all the full-grid memory
a Besov norm adds (the F-norm adds its real pointwise sum).  Pieces combine in level order, so the result does not depend
on W: a batched row is bitwise the single transform.

Power sums are rescaled by their maximum only when the plain sum overflows
or underflows, so no quasi-norm silently returns inf or 0.
For r < 1 or q < 1 the same formulas produce quasi-norms; nothing here
assumes the triangle inequality.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import partial
from math import isfinite, isinf, sqrt

import numpy as np

from .errors import ModelFidelityWarning, ParameterError
from .grid import (
    Field,
    Spectrum,
    forward_ft,
    inverse_ft,
    inverse_ft_rows,
    radial_xi,
    warn_if_boundary_mass,
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


def _power_sum(a: np.ndarray, p: float, weight: float = 1.0, out: np.ndarray | None = None) -> float:
    """(weight * sum(a**p))**(1/p) for a nonnegative array, with no spurious inf or 0.

    The plain sum is kept unless it is non-finite or below the smallest
    normal float; only then is it recomputed with ``a`` scaled by its
    maximum (Blue, ACM TOMS 1978).  An in-range sum thus costs one pass and
    has the bits of the plain formula.  a**p goes to ``out`` when given;
    ``a`` itself is never modified.
    """
    with np.errstate(over="ignore", under="ignore"):
        total = float(np.sum(np.power(a, p, out=out))) * weight
    if isfinite(total) and total >= _TINY:
        return total ** (1.0 / p)
    peak = float(a.max()) if a.size else 0.0
    if not 0.0 < peak < np.inf:  # zero, inf or nan: the plain value is the answer
        return total ** (1.0 / p)
    return peak * (float(np.sum((a / peak) ** p)) * weight) ** (1.0 / p)


#: elements per np.abs call in :func:`_modulus_in_place`
_CHUNK = 2**16


def _modulus_in_place(row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|row| written over the first half of the row's own memory.

    Returns (modulus, spare): two real arrays of the row's shape that view
    the row's bytes, the modulus in the first half and the second half free
    for a work array.  The row's samples are destroyed.  Chunk k's output covers
    the input of chunks below k only, so no chunk after the first reads
    bytes it has already overwritten and none needs a copy.
    """
    flat = row.reshape(-1)
    halves = flat.view(np.float64)
    a, spare = halves[: flat.size], halves[flat.size :]
    for lo in range(0, flat.size, _CHUNK):
        np.abs(flat[lo : lo + _CHUNK], out=a[lo : lo + _CHUNK])
    return a.reshape(row.shape), spare.reshape(row.shape)


def _lr_of_modulus(a: np.ndarray, r: float, grid, out: np.ndarray | None = None) -> float:
    """L_r quasi-norm of samples on ``grid`` whose modulus is ``a``; a**r goes to ``out``."""
    if isinf(r):
        return float(a.max())
    return _power_sum(a, r, grid.dx**grid.n, out=out)


def _row_lr(row: np.ndarray, r: float, grid) -> float:
    """L_r quasi-norm of one synthesized row, computed inside the row's memory."""
    a, spare = _modulus_in_place(row)
    return _lr_of_modulus(a, r, grid, out=spare)


def lr_quasinorm(f: Field, r: float) -> float:
    """L_r quasi-norm of a sampled field, (sum |f(x_i)|^r dx^n)^(1/r).

    r = inf uses the grid maximum of |f|.  The power sum is rescaled when it
    would overflow or underflow.

    Raises:
        ParameterError: "invalid exponent" for r <= 0.
    """
    if not r > 0:
        raise ParameterError(f"invalid exponent: r must be > 0, got {r}")
    return _lr_of_modulus(np.abs(f.values), r, f.grid)


def _ell_q(values: np.ndarray, q: float) -> float:
    """l_q combination of a finite nonnegative sequence (max for q = inf)."""
    if values.size == 0:
        return 0.0
    if isinf(q):
        return float(values.max())
    return _power_sum(values, q)


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
    if spec is not None:
        field = f
    elif isinstance(f, Field):
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


def _fill_piece(spec: Spectrum, row: np.ndarray, j: int | None) -> bool:
    """Write Q_j f's spectrum (S_0 f's for j None) into a zeroed row, in FFT-natural order.

    Returns whether the piece has a nonzero bin; only its blocks are read.
    """
    blocks = _piece(spec, j)
    if not any(block.any() for _, block in blocks):
        return False
    for box, block in blocks:
        _put_natural(row, box, block)
    return True


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _synthesized(grid, fill, keys):
    """Samples of each piece in ``keys``, in order; None for an empty piece.

    ``fill(row, key)`` writes a piece's spectrum in FFT-natural order into
    a zeroed row and returns whether it has a nonzero bin.  Nonempty pieces
    take the next free row of one stack of W = min(usable CPUs, len(keys))
    rows, and each full stack (and the last, partial one) goes through one
    :func:`inverse_ft_rows` call, so the W transforms run on W cores.  The
    samples are in natural order, which no L_r sum depends on.  A yielded
    row is valid until the next one is drawn.
    """
    keys = list(keys)
    rows = np.zeros((min(_usable_cpus(), len(keys)),) + grid.shape, dtype=np.complex128)
    batch: list[int | None] = []  # per key of the batch: its row, or None if empty
    used = 0
    for i, key in enumerate(keys):
        if fill(rows[used], key):
            batch.append(used)
            used += 1
        else:
            batch.append(None)
        if used == len(rows) or i == len(keys) - 1:
            samples = inverse_ft_rows(grid, rows[:used]) if used else rows
            for slot in batch:
                yield None if slot is None else samples[slot]
            rows[:used] = 0.0
            batch, used = [], 0


def _scaled_moduli(spec: Spectrum, keys, s: float):
    """2^(js) |Q_j f| for each nonempty key j in order (|S_0 f| for j None).

    Each item lives in its synthesized row's memory and is valid until the
    next is drawn; the consumer may overwrite it.
    """
    for j, row in zip(keys, _synthesized(spec.grid, partial(_fill_piece, spec), keys)):
        if row is None:
            continue
        a, _ = _modulus_in_place(row)
        if j is not None:
            a *= 2.0 ** (j * s)
        yield a


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
    return _besov(*_prepared_spectrum(f, params), params)


def _besov(spec: Spectrum, band: BandLimits, params: SpaceParams) -> float:
    g = spec.grid
    levels = _norm_levels(params, band)
    keys = levels if params.homogeneous else [None] + levels
    if params.r == 2.0:
        norms = [_piece_l2(spec, j) for j in keys]
    else:
        rows = _synthesized(g, partial(_fill_piece, spec), keys)
        norms = [0.0 if row is None else _row_lr(row, params.r, g) for row in rows]
    summands = [x if j is None else 2.0 ** (j * params.s) * x for j, x in zip(keys, norms)]
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
    return _triebel(*_prepared_spectrum(f, params), params)


def _triebel(spec: Spectrum, band: BandLimits, params: SpaceParams) -> float:
    g = spec.grid
    q = params.q
    keys = _norm_levels(params, band) + ([] if params.homogeneous else [None])
    acc = np.zeros(g.shape)
    with np.errstate(over="ignore", under="ignore"):
        for piece in _scaled_moduli(spec, keys, params.s):
            if isinf(q):
                np.maximum(acc, piece, out=acc)
            else:
                acc += np.power(piece, q, out=piece)
    if isinf(q):
        return _lr_of_modulus(acc, params.r, g)
    r = params.r
    if acc.max() < np.inf:
        # a point whose power sum is below the normal range has all its terms
        # there, so its value is below (pieces * tiny)^(1/q); keep the plain
        # norm when all such points together cannot move the L_r sum
        low = int(np.count_nonzero(acc < _TINY))
        norm = _lr_of_modulus(np.power(acc, 1.0 / q, out=acc), r, g)
        lost = (low * g.dx**g.n) ** (1.0 / r) * (len(keys) * _TINY) ** (1.0 / q)
        if lost <= _EPS ** (1.0 / r) * norm:
            return norm
    # overflow, or underflow that matters: redo each point with its pieces
    # scaled by their maximum there (Blue 1978)
    peak = np.zeros(g.shape)
    for piece in _scaled_moduli(spec, keys, params.s):
        np.maximum(peak, piece, out=peak)
    acc[...] = 0.0
    for piece in _scaled_moduli(spec, keys, params.s):
        np.divide(piece, peak, out=piece, where=peak > 0.0)
        acc += np.power(piece, q, out=piece)
    np.power(acc, 1.0 / q, out=acc)
    acc *= peak
    return _lr_of_modulus(acc, r, g)


def space_norm(f: Field | Spectrum, params: SpaceParams) -> float:
    """Dispatch to :func:`besov_norm` or :func:`triebel_norm` by family."""
    if params.family == "B":
        return besov_norm(f, params)
    return triebel_norm(f, params)


def _transformed_norm(f: Field, spec: Spectrum, params: SpaceParams) -> float:
    """space_norm(f, params) for a field whose spectrum ``spec`` is already at hand."""
    norm = _besov if params.family == "B" else _triebel
    return norm(*_prepared_spectrum(f, params, spec), params)
