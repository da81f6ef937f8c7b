"""Counterexample witness families and divergence/boundedness experiments.

Three families drive the sharpness demonstrations, each built directly in
the spectral domain so that supports are exact on the grid:

* ``modulated_witness``: partial sums sum_k a_k e^(i nu_k x_1) phi(x) with
  nu_k the grid-rounded frequency 2^k and phi a smooth low-pass bump, so
  term k occupies the annulus C_k = {3/4 * 2^k <= |xi| <= 5/4 * 2^k}.  With
  weights a_k = k 2^(-k theta) the space norm converges while the weighted
  Fourier functional grows, refuting the inequality when p > r'; with
  a_k = k^(-1/p) 2^(-k theta) the growth is harmonic, refuting the F-case
  boundary p = r' < q.
* ``dilated_witness``: low-frequency dilations of an annulus bump psi with
  coefficients k^(-1/p) 2^(k(s - n/r)), putting term k inside C_(-k) with
  space-norm summand k^(-1/p) and weighted-functional contribution k^(-1)
  per annulus: the harmonic series diverges whenever p < q.
* ``lowfreq_blowup_witness``: geometrically weighted low-frequency sums
  whose space norm stays Cauchy while the low-frequency Fourier mass grows
  geometrically, separating the weak property from the strong one when
  s > n/r.

``random_bandlimited`` supplies generic positive-case fields: seeded random
smooth spectra confined to the plateau {3/4 * 2^j <= |xi| <= 2^j} of each
dyadic level (where the level multiplier is identically 1), with equal
spectral mass per level so that ratio sequences stay flat for admissible
parameter systems.

Grid presets
------------

======== ========= ============== ============= ================= =========================
name     N         L              dxi           xi_max            feasible band
======== ========= ============== ============= ================= =========================
hi-band  2^21      16 pi          1/8           131072            j in [0, 16]
lo-band  2^20      2^14 * 2 pi    2^-14         32                j in [-11, 4]
mid-band 2^14      16 pi          1/8           1024              j in [0, 9]
======== ========= ============== ============= ================= =========================

hi-band resolves the modulation annuli C_k up to k = 16 while keeping at
least 9 bins across the low-pass ball |xi| <= 1/2; lo-band resolves the
dilation annuli C_(-k) down to k = 11; mid-band is a fast preset for demos
and cheap positive-case sampling.

On hi-band and mid-band every modulated record raises the norms' boundary
``ModelFidelityWarning``, and rightly so: phi itself is 0.127 of its peak in
the boundary shell of both presets.  phi's spectrum has its transition on
1/3 <= |xi| <= 1/2, and a band-limited bump with so narrow a transition
decays slowly compared with the box half-width 8 pi, so the samples are not
a faithful picture of a function on R^n.  The modulated norms are still
exact for the periodic function the grid holds.  Its spectrum is set bin by
bin, the Littlewood-Paley pieces and the weighted functional read exactly
those coefficients, and at r = 2 each level's norm is their Parseval sum,
so periodization does not enter.  They match the closed-form series to
1.4e-4 at K = 16; that gap comes from the low terms, whose bumps reach into
the transition of level k + 1 (4.7e-3 at K = 2), not from the box.

Experiment records are spectrum-native: ``divergence_experiment`` hands the
witness's exact spectrum to the space norm and to ``weighted_lhs``, so a
record costs one synthesis (the norm's boundary check), levels the
witness does not reach are skipped as exactly empty, and at r = 2 no level
is synthesized at all.  Every term is evaluated only on the box holding its
support (``littlewood_paley._box``): phi on |xi| <= 1/2, psi's dilation into
C_(-k) on |xi| <= 5/4 * 2^-k, and a random plateau on its two one-sided
runs 3/4 * 2^j < |xi| < 2^j in 1-D (``littlewood_paley._one_sided``) and on
|xi| <= 2^j in 2-D.  One registry maps each witness kind to its default
preset and spectrum builder.  A public builder's Field carries that spectrum
(:func:`_field`), so ``forward_ft`` of it, in ``realization_report`` too, is exact.

Every builder hands its terms, (centered box, values) pairs, to
``_spectrum``, which sums them with ``littlewood_paley._summed`` and
records their boxes, widened to whole rows in 2-D and overlapping ones
merged, as the spectrum's support (``grid._supported``): a modulated
record holds 7-112 nonzero bins of 2^21, and the norms, ``weighted_lhs``
and the fidelity checks read only those boxes.  The
blowup witness scales each term by its grid L_r norm, taken from the space
norms' own path, ``spaces._pieces_lr``, and kept in one small table per
(grid, r) for the life of the process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BandError, ExperimentAbort, ParameterError, _integer, _power_of_two
from .grid import Field, GridSpec, Spectrum, _supported, inverse_ft, radial_xi
from .littlewood_paley import (
    KAPPA,
    SAFETY,
    _box,
    _mollifier_step,
    _one_sided,
    _summed,
    feasible_band,
    lowpass_profile,
)
from .spaces import SpaceParams, _packed, _parseval_l2, _pieces_lr, space_norm
from .szasz import SzaszQuery, _require_grid_dimension, weighted_lhs

__all__ = [
    "GRID_PRESETS",
    "WitnessSpec",
    "ExperimentRecord",
    "bump_lowpass_phi",
    "annulus_psi",
    "modulated_witness",
    "dilated_witness",
    "lowfreq_blowup_witness",
    "random_bandlimited",
    "divergence_experiment",
    "resolve_grid",
]

GRID_PRESETS: dict[str, GridSpec] = {
    "hi-band": GridSpec(n=1, N=2**21, L=16.0 * np.pi),
    "lo-band": GridSpec(n=1, N=2**20, L=2.0**14 * 2.0 * np.pi),
    "mid-band": GridSpec(n=1, N=2**14, L=16.0 * np.pi),
}

def resolve_grid(grid) -> GridSpec:
    """Accept a GridSpec or a preset name."""
    if isinstance(grid, GridSpec):
        return grid
    try:
        return GRID_PRESETS[grid]
    except KeyError:
        raise ParameterError(
            f"unknown grid preset {grid!r}; known: {sorted(GRID_PRESETS)}"
        ) from None


@dataclass(frozen=True)
class WitnessSpec:
    """Construction request for one witness partial sum."""

    kind: str
    K: int
    query: SzaszQuery
    seed: int = 0

    def __post_init__(self):
        _witness(self.kind)
        object.__setattr__(self, "K", _integer(self.K, "K"))


@dataclass(frozen=True)
class ExperimentRecord:
    """One row of a divergence/boundedness experiment."""

    size: int
    space_norm: float
    lhs: float
    ratio: float

    def to_row(self) -> tuple:
        return (self.size, self.space_norm, self.lhs, self.ratio)


def _l2_norm(grid: GridSpec, blocks) -> float:
    """L2 norm (Parseval) of the field whose spectrum is the (box, values) blocks, zero elsewhere."""
    norm = _parseval_l2(grid, float(np.sum(np.abs(_packed(values for _, values in blocks)) ** 2)))
    if norm <= 0.0:
        raise ParameterError("cannot normalize an empty spectrum")
    return norm


def _phi_hat_window(grid: GridSpec) -> tuple[tuple, np.ndarray]:
    """Smooth radial bump supported in |xi| <= 1/2, unit spatial L2 norm.

    Returns (box, values): the centered box holding the ball |xi| <= 1/2
    and the bump on it.  The bump vanishes off the box.
    """
    box = _box(grid, 0.5)
    r = radial_xi(grid)[box]
    inside = int(np.count_nonzero(r <= 0.5))
    if inside < 8:
        raise BandError(f"grid too coarse: only {inside} bins resolve |xi| <= 1/2")
    prof = lowpass_profile(3.0 * r).astype(np.complex128)
    return box, prof / _l2_norm(grid, [(box, prof)])


def _psi_hat_profile(t: np.ndarray) -> np.ndarray:
    """Radial annulus bump: supported on 3/4 <= t <= 5/4, peak 1 at t = 1."""
    return _mollifier_step(4.0 * t - 3.0) * _mollifier_step(5.0 - 4.0 * t)


def _psi_term(grid: GridSpec, k: int) -> tuple[tuple, np.ndarray]:
    """(box, profile): psi's profile dilated into C_(-k), on the box holding |xi| <= 5/4 * 2^-k."""
    box = _box(grid, 1.25 * 2.0**-k)
    return box, _psi_hat_profile(2.0**k * radial_xi(grid)[box])


def _psi_norm_constant(grid: GridSpec) -> float:
    """Scale making the C_0 annulus bump a unit-L2 field on this grid."""
    box, prof = _psi_term(grid, 0)
    r = radial_xi(grid)[box]
    inside = np.count_nonzero((r >= 0.75) & (r <= 1.25))
    if inside < 8:
        raise BandError(f"grid too coarse: only {inside} bins resolve the annulus C_0")
    return 1.0 / _l2_norm(grid, [(box, prof)])


def _spectrum(grid: GridSpec, terms) -> Spectrum:
    """The spectrum summing ``terms``, (centered box, values) pairs, each zero off its box.

    Its support is the union of the terms' rows (``grid._supported``).
    """
    boxes = []

    def kept():
        for box, values in terms:
            boxes.append(box)
            yield box, values

    return _supported(Spectrum(grid, _summed(np.zeros(grid.shape, dtype=np.complex128), kept())), boxes)


def _field(spec: Spectrum) -> Field:
    """``inverse_ft(spec)`` carrying ``spec`` for ``forward_ft``; both arrays read-only, so they cannot drift apart."""
    f = inverse_ft(spec)
    f.values.setflags(write=False)
    spec.coeffs.setflags(write=False)
    object.__setattr__(f, "_spectrum", spec)
    return f


def _real_part(grid: GridSpec, box: tuple, values: np.ndarray) -> Field:
    """Real part of the field whose spectrum is ``values`` on the centered ``box`` and 0 off it."""
    return Field(grid, inverse_ft(_spectrum(grid, [(box, values)])).values.real.astype(np.complex128))


def bump_lowpass_phi(grid: GridSpec) -> Field:
    """Real field whose spectrum is a smooth bump in the ball |xi| <= 1/2."""
    return _real_part(grid, *_phi_hat_window(grid))


def annulus_psi(grid: GridSpec) -> Field:
    """Real field whose spectrum is a smooth radial bump supported in C_0."""
    box, prof = _psi_term(grid, 0)
    return _real_part(grid, box, _psi_norm_constant(grid) * prof)


def _modulation_weights(kind: str, K: int, theta: float, p: float) -> np.ndarray:
    k = np.arange(1, K + 1, dtype=float)
    if kind == "linear":
        amp = k
    elif kind == "inverse_root":
        amp = k ** (-1.0 / p)
    else:
        raise ParameterError(f"invalid params: unknown weights {kind!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf is nan
        weights = amp * 2.0 ** (-k * theta)
    if not np.isfinite(weights).all():
        raise OverflowError(f"modulation weight 2^(-k theta) at theta = {theta!r}")
    if not (weights > 0.0).all():  # a weight below the smallest float: its term would silently vanish
        k = int(np.argmin(weights > 0.0)) + 1
        raise ArithmeticError(f"modulation weight a_{k} ~ 2^(-{k} * {theta!r}) underflows to 0")
    return weights


def modulated_witness(grid, spec: WitnessSpec, weights: str = "linear") -> Field:
    """Partial sum sum_{k=1..K} a_k e^(i nu_k x_1) phi(x).

    nu_k is 2^k rounded to the nearest grid frequency, so term k's spectrum
    sits exactly inside the annulus C_k.  ``weights`` chooses
    a_k = k 2^(-k theta) ("linear") or a_k = k^(-1/p) 2^(-k theta)
    ("inverse_root"), with theta the Szasz exponent of ``spec.query``.

    Raises:
        BandError: "K exceeds band" when C_K would cross the Nyquist margin.
        OverflowError: when a weight a_k exceeds the float range.
        ArithmeticError: when a weight a_k underflows to 0, so its term
            would vanish.
    """
    return _field(_modulated_spectrum(grid, spec, weights))


def _modulated_spectrum(grid, spec: WitnessSpec, weights: str) -> Spectrum:
    """Exact spectrum of :func:`modulated_witness`.

    Term k adds a_k times phi on its box, moved up by nu_k along the first
    axis; below the Nyquist margin that K is checked against, the moved box
    stays on the grid and overlaps no other term's.
    """
    grid = resolve_grid(grid)
    K = spec.K
    if K > 0 and 1.25 * 2.0 ** min(K, 1023) > SAFETY * grid.xi_max:  # 2.0**K overflows past 1023
        raise BandError(
            f"K exceeds band: annulus C_{K} needs 5/4*2^K <= {SAFETY} * xi_max"
        )
    if K == 0:
        return _spectrum(grid, [])
    box, phi = _phi_hat_window(grid)
    amps = _modulation_weights(weights, K, spec.query.theta, spec.query.p)
    shifts = [int(round(2.0**k / grid.dxi)) for k in range(1, K + 1)]
    return _spectrum(grid, (
        ((slice(box[0].start + shift, box[0].stop + shift),) + box[1:], amp * phi)
        for amp, shift in zip(amps, shifts)
    ))


def dilated_witness(grid, spec: WitnessSpec) -> Field:
    """Partial sum sum_{k=1..K} k^(-1/p) 2^(k(s - n/r)) psi(x / 2^k).

    Term k has spectrum exactly inside C_(-k); in the continuum model its
    space-norm summand at level -k is k^(-1/p) times ||psi||_r and its
    contribution to the weighted functional's p-th power is proportional to
    k^(-1).

    Raises:
        BandError: "K exceeds low band" when C_(-K) is not resolvable.
    """
    return _field(_dilated_spectrum(grid, spec))


def _dilated_spectrum(grid, spec: WitnessSpec) -> Spectrum:
    """Exact spectrum of :func:`dilated_witness`."""
    grid = resolve_grid(grid)
    K = spec.K
    _check_low_band(grid, K, "K")
    if K == 0:
        return _spectrum(grid, [])
    q = spec.query
    n = grid.n
    unit = _psi_norm_constant(grid)  # also validates C_0 resolution

    def terms():
        for k in range(1, K + 1):
            c_k = k ** (-1.0 / q.p) * _power_of_two(k, q.space.s - n / q.space.r, "witness coefficient")
            box, prof = _psi_term(grid, k)
            yield box, (c_k * 2.0 ** (k * n) * unit) * prof

    return _spectrum(grid, terms())


def lowfreq_blowup_witness(grid, M: int, s: float, r: float) -> Field:
    """Low-frequency sum whose norm is Cauchy but whose Fourier mass blows up.

    Term k (spectrum in C_(-k)) is scaled so its space-norm summand at level
    -k is exactly 2^(-k(s - n/r)/2) on the grid; the low-frequency L1 mass
    of the spectrum then grows like sum_k 2^(+k(s - n/r)/2), i.e.
    geometrically in the truncation M.  Requires s > n/r, the regime where
    no translation-commuting realization exists.

    Raises:
        ParameterError: when s is not finite, r is not > 0, s <= n/r, or M
            is not an integer >= 0.
        BandError: "M exceeds low band" when C_(-M) is not resolvable.
    """
    return _field(_blowup_spectrum(grid, M, s, r))


@lru_cache(maxsize=16)
def _term_norm_table(grid: GridSpec, r: float) -> dict:
    """k -> grid L_r norm of psi's dilation into C_(-k), for at most the resolvable k (11 on lo-band)."""
    return {}


def _term_norms(grid: GridSpec, terms: dict, r: float) -> list:
    """Grid L_r norm of each term (k -> (box, profile)) of :func:`_blowup_spectrum`, in order.

    A norm depends only on (grid, k, r), so each is synthesized once, with
    the terms a build misses synthesized W at a time.
    """
    table = _term_norm_table(grid, r)
    table.update(_pieces_lr(grid, [k for k in terms if k not in table], lambda k: [terms[k]], r))
    return [table[k] for k in terms]


def _check_low_band(grid: GridSpec, K: int, name: str) -> None:
    """BandError "<name> exceeds low band" unless the annulus C_(-K) is resolvable."""
    if K > 0 and 0.75 * 2.0 ** (-K) < KAPPA * grid.dxi:
        raise BandError(
            f"{name} exceeds low band: annulus C_-{K} needs 3/4*2^-{name} >= {KAPPA} * dxi"
        )


def _blowup_regime(grid: GridSpec, s: float, r: float) -> float:
    """n/r, after ParameterError unless s > n/r, the only regime of :func:`lowfreq_blowup_witness`."""
    n_over_r = grid.n / r
    if not s > n_over_r:
        raise ParameterError(f"invalid params: needs s > n/r, got s={s}, n/r={n_over_r}")
    return n_over_r


def _blowup_spectrum(grid, M: int, s: float, r: float) -> Spectrum:
    """Exact spectrum of :func:`lowfreq_blowup_witness`."""
    SpaceParams(s, r, 1.0)  # ParameterError unless s is finite and r > 0, in the norms' words
    grid = resolve_grid(grid)
    M = _integer(M, "M")
    n_over_r = _blowup_regime(grid, s, r)
    _check_low_band(grid, M, "M")
    terms = {k: _psi_term(grid, k) for k in range(1, M + 1)}
    return _spectrum(grid, (
        (box, 2.0 ** (-k * (s - n_over_r) / 2.0) * _power_of_two(k, s, "witness coefficient") / norm_r * prof)
        for (k, (box, prof)), norm_r in zip(terms.items(), _term_norms(grid, terms, r))
    ))


def random_bandlimited(grid, seed: int, j_lo: int, j_hi: int) -> Field:
    """Seeded random smooth field with spectrum in dyadic plateau windows.

    Each level j in [j_lo, j_hi] carries a smooth random modulation of a
    bump supported in {3/4 * 2^j <= |xi| <= 2^j}, where the level-j
    Littlewood-Paley multiplier is identically 1, and every level is scaled
    to equal spectral mass.  The result is normalized to unit L2 norm and is
    a deterministic function of the seed.

    Raises:
        BandError: when [j_lo, j_hi] is not inside the feasible band.
    """
    return _field(_random_spectrum(grid, seed, j_lo, j_hi))


def _plateau(grid: GridSpec, j: int) -> tuple:
    """(t, place): |xi| / 2^j on the bins of level j's plateau 3/4 < |xi| / 2^j < 1, in centered order.

    ``place(values)``, given one value per bin in the order of ``t``, gives
    them as (centered box, values) terms.  In 1-D the plateau is its two
    one-sided runs, laid out as ``_one_sided`` lays out a level; otherwise
    it is the box holding the ball |xi| <= 2^j, zero off the plateau.
    """
    scale = 2.0**j
    if grid.n == 1:
        k_lo = max(1, math.floor(0.75 * scale / grid.dxi))
        pos, _ = _one_sided(grid, k_lo, min(grid.N // 2 - 1, math.ceil(scale / grid.dxi)))
        t = radial_xi(grid)[pos] / scale
        inside = (t > 0.75) & (t < 1.0)  # one run, as t grows with k
        first, t = int(np.argmax(inside)), t[inside]
        pos, neg = _one_sided(grid, k_lo + first, k_lo + first + t.size - 1)
        # the mirror's bins hold the same |xi|, in reverse
        return np.concatenate([t[::-1], t]), lambda values: [(neg, values[: t.size]), (pos, values[t.size :])]
    box = _box(grid, scale)
    t = radial_xi(grid)[box] / scale
    plateau = (t > 0.75) & (t < 1.0)

    def place(values):
        out = np.zeros(plateau.shape, dtype=np.complex128)
        out[plateau] = values
        return [(box, out)]

    return t[plateau], place


def _random_spectrum(grid, seed: int, j_lo: int, j_hi: int) -> Spectrum:
    """Exact spectrum of :func:`random_bandlimited`, normalized by Parseval."""
    grid = resolve_grid(grid)
    band = feasible_band(grid)
    j_lo, j_hi = _integer(j_lo, "j_lo", None), _integer(j_hi, "j_hi", None)
    if j_lo > j_hi or j_lo not in band or j_hi not in band:
        raise BandError(
            f"levels [{j_lo}, {j_hi}] not inside feasible band [{band.j_min}, {band.j_max}]"
        )
    rng = np.random.default_rng(_integer(seed, "seed"))
    n_modes = 4

    def plateaus():
        for j in range(j_lo, j_hi + 1):
            t, place = _plateau(grid, j)
            window = _mollifier_step(16.0 * (t - 0.75)) * _mollifier_step(16.0 * (1.0 - t))
            u = (t - 0.75) * 4.0
            coeff = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
            modulation = np.zeros(window.shape, dtype=np.complex128)
            for d in range(n_modes):
                modulation += coeff[d] / (1.0 + d) * np.exp(2j * np.pi * d * u)
            level = window * modulation
            mass = np.sum(np.abs(level) ** 2) * grid.dxi**grid.n
            if mass > 0.0:
                yield from place(level / np.sqrt(mass))

    spec = _spectrum(grid, plateaus())
    blocks = [(box, spec.coeffs[box]) for box in spec._support]
    if any(values.any() for _, values in blocks):
        norm = _l2_norm(grid, blocks)
        for box, values in blocks:
            values /= norm
    return spec


def _top_levels_spectrum(grid: GridSpec, spec: WitnessSpec) -> Spectrum:
    """The random field on the K highest levels of the feasible band; K = 0 gives the empty spectrum."""
    if spec.K == 0:
        return _spectrum(grid, ())
    j_max = feasible_band(grid).j_max
    return _random_spectrum(grid, spec.seed, j_max - spec.K + 1, j_max)


#: kind -> (default grid preset, exact-spectrum builder(grid, WitnessSpec)); a
#: spec's K is the experiment size
_WITNESSES = {
    "modulated": ("hi-band", lambda g, w: _modulated_spectrum(g, w, "linear")),
    "modulated_borderline": ("hi-band", lambda g, w: _modulated_spectrum(g, w, "inverse_root")),
    "dilated_low": ("lo-band", _dilated_spectrum),
    "random_bandlimited": ("lo-band", _top_levels_spectrum),
    "lowfreq_blowup": ("lo-band", lambda g, w: _blowup_spectrum(g, w.K, w.query.space.s, w.query.space.r)),
}

WITNESS_KINDS = tuple(_WITNESSES)


def _witness(kind: str) -> tuple:
    """The registry entry (preset, builder) of a witness kind."""
    try:
        return _WITNESSES[kind]
    except (KeyError, TypeError):
        raise ParameterError(
            f"invalid params: unknown witness kind {kind!r}; known: {WITNESS_KINDS}"
        ) from None


def _record(spec: Spectrum, query: SzaszQuery, size: int) -> ExperimentRecord:
    """One record from the witness's exact spectrum, with no forward transform.

    The spectrum is the only full-grid array kept; the norm's boundary
    check synthesizes the field once and keeps only its peak and shell
    maximum.
    """
    norm = space_norm(spec, query.space)
    lhs = weighted_lhs(spec, query.theta, query.p, query.space.setting)
    ratio = lhs / norm if norm > 0.0 else float("nan")
    return ExperimentRecord(size, norm, lhs, ratio)


def divergence_experiment(kind: str, query: SzaszQuery, sizes, grid=None, seed: int = 0) -> list:
    """Evaluate space norm, weighted functional and their ratio per size.

    Returns one :class:`ExperimentRecord` per entry of ``sizes``, in input
    order.  A failure partway through raises :class:`ExperimentAbort`
    carrying the records computed so far.

    Raises:
        ParameterError: for an unknown kind or grid preset, a size or seed
            that is not an integer >= 0, when ``query.n`` is not the
            grid's dimension, or for ``lowfreq_blowup`` when s <= n/r;
            before any record is computed.
    """
    preset, build = _witness(kind)
    grid = resolve_grid(grid if grid is not None else preset)
    _require_grid_dimension(query, grid)
    if kind == "lowfreq_blowup":
        _blowup_regime(grid, query.space.s, query.space.r)
    seed = _integer(seed, "seed")
    sizes = [_integer(size, "size") for size in sizes]
    records: list[ExperimentRecord] = []
    for size in sizes:
        try:
            records.append(_record(build(grid, WitnessSpec(kind, size, query, seed)), query, size))
        except OverflowError as exc:  # a Python float power 2.0 ** x, or a modulation weight
            reason = f"size {size}: a level weight or witness coefficient overflows a float: {exc}"
            raise ExperimentAbort(reason, records) from exc
        except (BandError, ParameterError, ArithmeticError) as exc:  # a quasi-norm off the float range too
            raise ExperimentAbort(f"size {size}: {exc}", records) from exc
    return records
