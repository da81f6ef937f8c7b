"""Quasi-norm values, invariances and the dyadic scaling law."""

import hashlib
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import szaszlab.grid as grid_module
import szaszlab.spaces as spaces_module
import szaszlab.witnesses as witnesses_module
from szaszlab import (
    Field,
    GridSpec,
    ModelFidelityWarning,
    ParameterError,
    SpaceParams,
    Spectrum,
    SzaszQuery,
    WitnessSpec,
    besov_norm,
    bump_lowpass_phi,
    dilated_witness,
    divergence_experiment,
    dyadic_dilate,
    feasible_band,
    forward_ft,
    grid_translate,
    inverse_ft,
    low_frequency_mass,
    lowpass_profile,
    lp_project,
    lr_quasinorm,
    radial_xi,
    random_bandlimited,
    realization_report,
    space_norm,
    szasz_ratio,
    triebel_norm,
    weighted_lhs,
)

from szaszlab.grid import BOUNDARY_MARGIN, BOUNDARY_TOL, _scale, _shell, boundary_decay_ratio
from szaszlab.littlewood_paley import apply_level_mask
from szaszlab.witnesses import _blowup_spectrum, _random_spectrum

from conftest import bound_free, plateau_field, wave_packet


class TestSpaceParams:
    def test_f_family_needs_finite_r(self):
        with pytest.raises(ParameterError, match="r=inf unsupported"):
            SpaceParams(0.0, np.inf, 2.0, "F")

    @pytest.mark.parametrize("bad", [dict(r=0.0), dict(q=-1.0), dict(family="X"), dict(s=np.inf)])
    def test_rejects_bad_params(self, bad):
        kwargs = dict(s=0.0, r=2.0, q=2.0, family="B")
        kwargs.update(bad)
        with pytest.raises(ParameterError):
            SpaceParams(**kwargs)

    def test_infinite_exponents_allowed_for_besov(self):
        p = SpaceParams(1.0, np.inf, np.inf, "B")
        assert np.isinf(p.r) and np.isinf(p.q)


class TestLrQuasinorm:
    def test_zero(self, grid_1d):
        assert lr_quasinorm(Field(grid_1d, np.zeros(4096)), 2.0) == 0.0

    def test_indicator_closed_form(self, grid_1d):
        vals = np.zeros(4096, dtype=complex)
        vals[100:228] = 3.0 * 1j  # constant modulus on M = 128 samples
        f = Field(grid_1d, vals)
        assert lr_quasinorm(f, 2.0) == pytest.approx(3.0 * np.sqrt(128 * grid_1d.dx))

    def test_gaussian_l2(self, grid_1d):
        x = grid_1d.x_axis()
        f = Field(grid_1d, np.exp(-(x**2) / 2))
        assert abs(lr_quasinorm(f, 2.0) - np.pi**0.25) < 1e-6

    def test_sup_norm(self, grid_1d):
        vals = np.zeros(4096)
        vals[7] = 4.5
        assert lr_quasinorm(Field(grid_1d, vals), np.inf) == 4.5

    def test_quasi_range(self, grid_1d):
        x = grid_1d.x_axis()
        f = Field(grid_1d, np.exp(-(x**2) / 2))
        assert lr_quasinorm(f, 0.5) > 0

    def test_invalid_exponent(self, grid_1d):
        with pytest.raises(ParameterError, match="invalid exponent"):
            lr_quasinorm(Field(grid_1d, np.zeros(4096)), 0.0)


class TestBesovNorm:
    def test_zero_field(self, grid_mid):
        assert besov_norm(Field(grid_mid, np.zeros(grid_mid.shape)), SpaceParams(0.3, 2, 2)) == 0.0

    def test_single_band_value(self, grid_mid):
        f = plateau_field(grid_mid, 4)
        for s, r, q in [(0.7, 2.0, 2.0), (-0.4, 1.5, 3.0), (0.0, 2.0, np.inf)]:
            got = besov_norm(f, SpaceParams(s, r, q, "B"))
            assert got == pytest.approx(2.0 ** (4 * s) * lr_quasinorm(f, r), rel=1e-12)

    def test_single_band_value_quasinorm_range(self, grid_mid):
        # q < 1 amplifies roundoff from the empty levels as eps^q, so the
        # single-band identity holds only to ~1e-6 there
        f = plateau_field(grid_mid, 4)
        got = besov_norm(f, SpaceParams(1.1, 3.0, 0.5, "B"))
        assert got == pytest.approx(2.0 ** (4 * 1.1) * lr_quasinorm(f, 3.0), rel=1e-5)

    def test_family_checked(self, grid_mid):
        f = plateau_field(grid_mid, 4)
        with pytest.raises(ParameterError, match="invalid params"):
            besov_norm(f, SpaceParams(0.0, 2.0, 2.0, "F"))

    @pytest.mark.parametrize("s", [100.0, 120.0, 150.0, 200.0, 250.0])
    def test_empty_levels_weigh_nothing(self, grid_mid, s):
        # levels 0-1 and 5-9 are exactly empty: their weights 2^(js) may leave
        # the float range, their summands are 0; at r = q = 2, B equals F
        spec = _random_spectrum(grid_mid, 1, 2, 4)
        got = besov_norm(spec, SpaceParams(s, 2.0, 2.0))
        assert got == pytest.approx(triebel_norm(spec, SpaceParams(s, 2.0, 2.0, "F")), rel=1e-12, abs=0.0)

    def test_absolute_homogeneity(self, grid_mid):
        f = plateau_field(grid_mid, 5)
        p = SpaceParams(0.25, 1.5, 2.5, "B")
        base = besov_norm(f, p)
        scaled = besov_norm(Field(grid_mid, (-2.0 + 1.5j) * f.values), p)
        assert scaled == pytest.approx(abs(-2.0 + 1.5j) * base, rel=1e-12)

    def test_translation_invariance(self, grid_mid):
        f = plateau_field(grid_mid, 5)
        p = SpaceParams(0.25, 1.5, 2.5, "B")
        t = grid_translate(f, 37 * grid_mid.dx)
        assert besov_norm(t, p) == pytest.approx(besov_norm(f, p), rel=1e-10)

    def test_monotone_in_q(self, grid_mid):
        f = Field(grid_mid, plateau_field(grid_mid, 3).values + plateau_field(grid_mid, 6).values)
        norms = [besov_norm(f, SpaceParams(0.3, 2.0, q, "B")) for q in (0.5, 1.0, 2.0, np.inf)]
        assert all(norms[i] >= norms[i + 1] - 1e-12 for i in range(len(norms) - 1))

    def test_out_of_band_mass_warns(self, grid_mid):
        # content below the lowest feasible annulus
        coeffs = np.zeros(grid_mid.shape, dtype=complex)
        coeffs[grid_mid.center + 1] = 1.0
        from szaszlab import Spectrum, inverse_ft

        f = inverse_ft(Spectrum(grid_mid, coeffs))
        with pytest.warns(ModelFidelityWarning, match="outside the feasible band"):
            besov_norm(f, SpaceParams(0.0, 2.0, 2.0, "B"))

    def test_out_of_band_mass_warns_from_spectrum(self, grid_mid):
        # one bin below the lowest feasible annulus, one above the highest
        for k in (1, int(feasible_band(grid_mid).cover_hi / grid_mid.dxi) + 1):
            coeffs = np.zeros(grid_mid.shape, dtype=complex)
            coeffs[grid_mid.center + k] = 1.0
            with pytest.warns(ModelFidelityWarning, match="outside the feasible band"):
                besov_norm(Spectrum(grid_mid, coeffs), SpaceParams(0.0, 2.0, 2.0, "B"))

    def test_boundary_mass_warns(self, grid_mid):
        f = plateau_field(grid_mid, 4)  # mollifier tails reach the boundary at this L
        with pytest.warns(ModelFidelityWarning, match="box boundary"):
            besov_norm(f, SpaceParams(0.0, 2.0, 2.0, "B"))

    def test_homogeneous_ignores_mean(self, grid_mid):
        f = plateau_field(grid_mid, 4)
        shifted = Field(grid_mid, f.values + 0.7)  # constant = pure k=0 content
        p = SpaceParams(0.5, 2.0, 2.0, "B")
        assert besov_norm(shifted, p) == pytest.approx(besov_norm(f, p), rel=1e-10)

    def test_inhomogeneous_includes_lowpass(self, grid_mid):
        f = plateau_field(grid_mid, 4)
        shifted = Field(grid_mid, f.values + 0.7)
        p = SpaceParams(0.5, 2.0, 2.0, "B", setting="inhomogeneous")
        assert besov_norm(shifted, p) > besov_norm(f, p) + 0.1

    def test_inhomogeneous_matches_homogeneous_on_high_band(self, grid_mid):
        f = plateau_field(grid_mid, 5)
        hom = besov_norm(f, SpaceParams(0.5, 2.0, 2.0, "B"))
        inhom = besov_norm(f, SpaceParams(0.5, 2.0, 2.0, "B", setting="inhomogeneous"))
        assert inhom == pytest.approx(hom, rel=1e-12)

    def test_empty_parseval_pieces_make_no_pass(self, monkeypatch):
        # hi-band's modulated witness fills few of its 17 levels: of the 112
        # row passes its r = 2 Besov records made when every piece was
        # walked, 62 were the plain and peak walks of empty pieces; no record
        # runs a boundary check, and phi's, run once per grid, is one pass
        passes, chunk_pass = [], spaces_module._chunk_pass
        monkeypatch.setattr(spaces_module, "_chunk_pass", lambda *args: passes.append(1) or chunk_pass(*args))
        query = SzaszQuery(SpaceParams(0.0, 2.0, 4.0, "B"), 4.0, 1)
        witnesses_module._phi_boundary.cache_clear()
        records = divergence_experiment("modulated", query, [2, 4, 8, 16], grid="hi-band")
        assert len(passes) == 1 + 50

        def walked(spec, j):  # every piece walked, an empty one too
            g = spec.grid
            values = spaces_module._packed(v for _, v in spaces_module._piece(spec.coeffs, g, j, spec._support))
            return spaces_module._lr_norm(values, 2.0, g.dxi**g.n / (2.0 * np.pi) ** g.n)

        monkeypatch.setattr(spaces_module, "_piece_l2", walked)
        assert divergence_experiment("modulated", query, [2, 4, 8, 16], grid="hi-band") == records
        assert len(passes) == 1 + 50 + 112


class TestTriebelNorm:
    def test_zero_field(self, grid_mid):
        assert triebel_norm(Field(grid_mid, np.zeros(grid_mid.shape)), SpaceParams(0.3, 2, 2, "F")) == 0.0

    def test_equals_besov_when_q_is_r(self, grid_mid):
        # F^s_(r,r) = B^s_(r,r): at r >= 1 the F-norm is the B-norm's per-level sums, which the
        # pointwise reference must match too
        f = Field(grid_mid, plateau_field(grid_mid, 3).values + 0.6 * plateau_field(grid_mid, 6).values)
        for s, r in [(0.0, 2.0), (0.8, 1.5), (-0.5, 3.0), (0.3, 1.0)]:
            b = besov_norm(f, SpaceParams(s, r, r, "B"))
            t = triebel_norm(f, SpaceParams(s, r, r, "F"))
            assert abs(t - b) < 1e-12 * b
            assert t == pytest.approx(_synthesized_triebel(f, SpaceParams(s, r, r, "F")), rel=1e-12)

    def test_q_equal_to_r_below_one_sums_pointwise(self, monkeypatch, grid_mid):
        # at r < 1 a level's root may leave the float range where the pointwise sum's does not,
        # so q = r = 0.5 keeps the pointwise path
        f = Field(grid_mid, plateau_field(grid_mid, 3).values + 0.6 * plateau_field(grid_mid, 6).values)
        params = SpaceParams(0.2, 0.5, 0.5, "F")
        calls, accumulate = [], spaces_module._accumulate
        monkeypatch.setattr(spaces_module, "_accumulate", lambda *args: calls.append(1) or accumulate(*args))
        got = triebel_norm(f, params)
        assert calls
        assert got == pytest.approx(_synthesized_triebel(f, params), rel=1e-12)
        calls.clear()
        assert triebel_norm(f, SpaceParams(0.2, 1.5, 1.5, "F")) > 0.0 and not calls

    def test_single_band_value(self, grid_mid):
        f = plateau_field(grid_mid, 4)
        got = triebel_norm(f, SpaceParams(0.7, 2.0, 17.0, "F"))
        assert got == pytest.approx(2.0 ** (4 * 0.7) * lr_quasinorm(f, 2.0), rel=1e-12)

    def test_infinite_r_rejected(self, grid_mid):
        f = plateau_field(grid_mid, 4)
        with pytest.raises(ParameterError):
            triebel_norm(f, SpaceParams(0.0, 2.0, 2.0, "B"))

    def test_q_infinite_pointwise_sup(self, grid_mid):
        f = plateau_field(grid_mid, 4)
        got = triebel_norm(f, SpaceParams(0.0, 2.0, np.inf, "F"))
        assert got == pytest.approx(lr_quasinorm(f, 2.0), rel=1e-12)


class TestScalingLaw:
    @pytest.mark.parametrize("family", ["B", "F"])
    def test_dyadic_scaling(self, grid_wide, family):
        f = wave_packet(grid_wide, 0.109, 400.0)  # level -3 plateau
        s, r, q = 0.6, 1.7, 2.3
        params = SpaceParams(s, r, q, family)
        base = space_norm(f, params)
        for m in (-2, -1, 1, 2):
            expected = 2.0 ** (m * (1 / r - s)) * base
            got = space_norm(dyadic_dilate(f, m), params)
            assert abs(got - expected) < 1e-3 * expected

    def test_scaling_2d(self):
        # level-2 packet on a box large enough that truncation noise stays
        # below the dilation headroom check; one dilation step
        from szaszlab import GridSpec

        g = GridSpec(2, 512, 64.0)
        f = wave_packet(g, 3.5, 6.0)
        params = SpaceParams(0.4, 2.0, 2.0, "B")
        base = besov_norm(f, params)
        got = besov_norm(dyadic_dilate(f, -1), params)
        expected = 2.0 ** (-(2 / 2.0 - 0.4)) * base
        assert abs(got - expected) < 1e-3 * expected


def _broadband_field(grid):
    """Packets across many levels, through LP transitions, plus a mean."""
    vals = sum(
        (0.8**k) * wave_packet(grid, xi0, width).values
        for k, (xi0, width) in enumerate([(0.9, 6.0), (2.3, 4.0), (5.1, 3.0), (11.0, 2.0), (40.0, 1.0)])
    )
    return Field(grid, vals + 0.2 * wave_packet(grid, 0.0, 5.0).values)


def _synthesized_besov(f, params):
    """Reference Besov norm: every level synthesized on the full grid."""
    g = f.grid
    levels = [j for j in feasible_band(g).levels() if params.homogeneous or j >= 1]
    summands = [2.0 ** (j * params.s) * lr_quasinorm(lp_project(f, j), params.r) for j in levels]
    if not params.homogeneous:
        low = forward_ft(f).coeffs * lowpass_profile(radial_xi(g))
        summands.append(lr_quasinorm(inverse_ft(Spectrum(g, low)), params.r))
    a = np.asarray(summands)
    return float(a.max()) if np.isinf(params.q) else float(np.sum(a**params.q) ** (1.0 / params.q))


class TestSpectrumInput:
    @pytest.mark.parametrize("grid_name", ["grid_mid", "grid_2d"])
    @pytest.mark.parametrize("setting", ["homogeneous", "inhomogeneous"])
    @pytest.mark.parametrize("q", [1.0, 4.0, np.inf])
    def test_parseval_matches_full_grid_synthesis(self, request, grid_name, setting, q):
        grid = request.getfixturevalue(grid_name)
        f = _broadband_field(grid)
        params = SpaceParams(0.35, 2.0, q, "B", setting)
        want = _synthesized_besov(f, params)
        assert besov_norm(f, params) == pytest.approx(want, rel=1e-12)
        assert besov_norm(forward_ft(f), params) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "params",
        [
            SpaceParams(0.35, 1.5, 2.0, "B"),
            SpaceParams(0.35, 1.5, 2.0, "B", "inhomogeneous"),
            SpaceParams(0.2, 2.0, 4.0, "F"),
            SpaceParams(0.2, 1.5, 3.0, "F", "inhomogeneous"),
        ],
    )
    def test_spectrum_and_field_give_the_same_norm(self, grid_mid, params):
        f = _broadband_field(grid_mid)
        assert space_norm(forward_ft(f), params) == space_norm(f, params)

    def test_synthesis_path_matches_reference(self, grid_mid):
        f = _broadband_field(grid_mid)
        params = SpaceParams(0.35, 1.5, 4.0, "B", "inhomogeneous")
        assert besov_norm(f, params) == pytest.approx(_synthesized_besov(f, params), rel=1e-12)

    def test_boundary_mass_warns_from_spectrum(self, grid_mid):
        f = plateau_field(grid_mid, 4)
        with pytest.warns(ModelFidelityWarning, match="box boundary"):
            besov_norm(forward_ft(f), SpaceParams(0.0, 2.0, 2.0, "B"))


def _synthesized_triebel(f, params):
    """Reference Triebel norm: every level synthesized on the full grid."""
    g = f.grid
    levels = [j for j in feasible_band(g).levels() if params.homogeneous or j >= 1]
    pieces = [2.0 ** (j * params.s) * np.abs(lp_project(f, j).values) for j in levels]
    if not params.homogeneous:
        low = forward_ft(f).coeffs * lowpass_profile(radial_xi(g))
        pieces.append(np.abs(inverse_ft(Spectrum(g, low)).values))
    stack = np.asarray(pieces)
    if np.isinf(params.q):
        pointwise = stack.max(axis=0)
    else:
        pointwise = np.sum(stack**params.q, axis=0) ** (1.0 / params.q)
    return lr_quasinorm(Field(g, pointwise), params.r)


_BATCHED_PARAMS = [
    SpaceParams(0.35, r, 2.0, "B", setting)
    for r in (1.0, 1.5, np.inf)
    for setting in ("homogeneous", "inhomogeneous")
] + [
    SpaceParams(0.2, 1.5, q, "F", setting)
    for q in (1.5, 3.0, np.inf)
    for setting in ("homogeneous", "inhomogeneous")
]


def _with_cpus(monkeypatch, width):
    monkeypatch.setattr(spaces_module, "_usable_cpus", lambda: width)


class _Tiles:
    """A stand-in tile source of ``size`` samples in tiles of ``tile``, all of modulus 1."""

    def __init__(self, size, tile):
        self.size, self.tile = size, tile

    def moduli(self, lo, hi, buf, tmp):
        buf[...] = 1.0
        return buf


class TestBatchedSynthesis:
    @pytest.mark.parametrize("grid_name", ["grid_mid", "grid_2d"])
    @pytest.mark.parametrize("params", _BATCHED_PARAMS, ids=str)
    @pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
    def test_matches_per_level_reference(self, request, grid_name, params):
        grid = request.getfixturevalue(grid_name)
        f = _broadband_field(grid)
        ref = _synthesized_besov if params.family == "B" else _synthesized_triebel
        assert space_norm(f, params) == pytest.approx(ref(f, params), rel=1e-12)

    @pytest.mark.parametrize("params", _BATCHED_PARAMS, ids=str)
    @pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
    def test_bitwise_independent_of_batch_width(self, monkeypatch, grid_mid, grid_wide, params):
        # seven exactly nonempty levels, or eight pieces with S_0: every
        # width below leaves a partial last stack for one of the inputs;
        # a grid_wide row is four chunks, split unevenly over three threads
        # and a modulated witness's narrow pieces, four tiles each on a 2^18-point grid
        spec = _random_spectrum(grid_mid, 5, 2, 8)
        wide = inverse_ft(_random_spectrum(grid_wide, 5, -6, 2))
        hi = GridSpec(1, 2**18, 16.0 * np.pi)
        query = SzaszQuery(SpaceParams(params.s, params.r, params.q, params.family), 4.0, 1)
        modulated = witnesses_module._modulated_spectrum(hi, WitnessSpec("modulated", 6, query))
        inputs = (spec, inverse_ft(spec), wide, modulated)
        got = {}
        for width in (1, 2, 3):
            _with_cpus(monkeypatch, width)
            witnesses_module._term_norm.cache_clear()
            got[width] = [space_norm(x, params) for x in inputs] + [
                lr_quasinorm(wide, params.r),
                _blowup_spectrum(grid_wide, 3, 2.0, params.r).coeffs.tobytes(),
            ]
        assert got[1] == got[2] == got[3]

    @pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
    @pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
    def test_threads_switching_often_lose_no_update(self, monkeypatch, grid_wide):
        # more threads than cores write disjoint tiles of one pointwise sum
        spec = _random_spectrum(grid_wide, 6, -8, 4)
        params = SpaceParams(0.2, 1.5, 2.0, "F")
        _with_cpus(monkeypatch, 1)
        want = triebel_norm(spec, params)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            _with_cpus(monkeypatch, 4)
            assert triebel_norm(spec, params) == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("levels", [(-6, 0), (3, 4)], ids=["narrow", "wide"])
    def test_no_thread_outlives_a_norm_call(self, monkeypatch, grid_wide, levels):
        _with_cpus(monkeypatch, 3)
        spec = _random_spectrum(grid_wide, 5, *levels)
        before = threading.active_count()
        besov_norm(spec, SpaceParams(0.2, 1.5, 2.0, "B"))
        assert threading.active_count() == before
        triebel_norm(spec, SpaceParams(0.2, 1.5, 2.0, "F"))
        assert threading.active_count() == before

    def test_chunk_pass_raises_a_worker_error(self, monkeypatch):
        _with_cpus(monkeypatch, 2)

        def work(a, lo, hi, tmp):
            if lo > 0:
                raise ValueError(f"chunk at {lo}")

        with pytest.raises(ValueError, match="chunk at"):
            spaces_module._chunk_pass(_Tiles(2 * spaces_module._CHUNK, spaces_module._CHUNK), work)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_chunk_pass_gives_results_in_tile_order(self, monkeypatch, width):
        # six row tiles, the last one short, and eight coset tiles of a 16-bin window on 2^19
        # points; more tiles than threads, split unevenly, every pass on W threads, the same bits
        _with_cpus(monkeypatch, width)
        rows = spaces_module._Rows(np.random.default_rng(0).standard_normal(5 * spaces_module._CHUNK + 7))
        grid = GridSpec(1, 2**19, 2.0**13 * np.pi)
        whole = [((slice(0, grid.N),), _window_spectrum(grid, [-8], [16]).coeffs)]
        sources = [(rows, 6), (spaces_module._Cosets(grid, whole, spaces_module._window(grid, whole)), 8)]
        for source, tiles in sources:
            buf, tmp = np.empty(source.tile), np.empty(source.tile, dtype=np.complex128)
            want = []
            for lo in range(0, source.size, source.tile):
                hi = min(lo + source.tile, source.size)
                want.append((lo, hi, hashlib.sha256(source.moduli(lo, hi, buf[: hi - lo], tmp).tobytes()).digest()))
            threads = set()

            def work(a, lo, hi, tmp):
                threads.add(threading.get_ident())
                return lo, hi, hashlib.sha256(a.tobytes()).digest()

            got = spaces_module._chunk_pass(source, work)
            assert len(want) == tiles and got == want and (len(threads) > 1) == (width > 1)

    def test_first_transform_on_two_threads_binds_one_library(self, monkeypatch, grid_wide, tmp_path):
        # in a fresh process the first transform is a narrow level's 4 tiles of cosets on
        # W = 2 threads, the calling one and a worker, which find numpy.fft not yet loaded together
        script = """
import sys, threading
import numpy as np
import szaszlab.spaces as spaces
from szaszlab import GridSpec, SpaceParams, besov_norm
from szaszlab.witnesses import _random_spectrum
spaces._usable_cpus = lambda: 2
threads, moduli = set(), spaces._Cosets.moduli
spaces._Cosets.moduli = lambda self, *args: threads.add(threading.get_ident()) or moduli(self, *args)
spec = _random_spectrum(GridSpec(1, 2**18, 2.0**12 * 2.0 * np.pi), 4, 0, 0)
assert "numpy.fft" not in sys.modules
value = besov_norm(spec, SpaceParams(0.2, 1.5, 2.0, "B"))
assert len(threads) >= 2, threads  # the calling thread and a worker per pass
print(value.hex())
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(spaces_module.__file__).parents[1])] + sys.path))
        _with_cpus(monkeypatch, 2)
        want = besov_norm(_random_spectrum(grid_wide, 4, 0, 0), SpaceParams(0.2, 1.5, 2.0, "B")).hex()
        for _ in range(3):
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == want

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_one_nonempty_level_fills_one_row(self, monkeypatch, grid_wide, cpus):
        # level 4's plateau spans 2^17 bins of grid_wide: a wide piece
        _with_cpus(monkeypatch, cpus)
        widths = []
        real = spaces_module._inverse_rows

        def counting(rows, axes, mirrored):
            widths.append(rows.shape[0])
            return real(rows, axes, mirrored)

        monkeypatch.setattr(spaces_module, "_inverse_rows", counting)
        spec = _random_spectrum(grid_wide, 3, 4, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelFidelityWarning)
            besov_norm(spec, SpaceParams(0.0, 1.5, 2.0, "B"))
            triebel_norm(spec, SpaceParams(0.0, 1.5, 2.0, "F"))
        assert widths == [1, 1, 1, 1]  # per norm, the wide field's boundary check, then the level

    def test_one_source_per_nonempty_piece_in_key_order(self, monkeypatch, grid_wide):
        # keys (field, level) of three seeded fields: level 4 is wide on grid_wide (2^17 bins),
        # -1 narrow, -5 and -9 exactly empty: at 3 CPUs the stack is flushed part full before
        # the narrow piece and at the end, at 2 full then at the end; every row is a source of
        # its own, read as it is at one CPU
        specs = [_random_spectrum(grid_wide, seed, -2, 4) for seed in (5, 6, 7)]
        keys = [(0, 4), (1, 4), (0, -1), (0, -5), (2, 4), (0, -9)]
        blocks = lambda key: spaces_module._pieces_of(specs[key[0]])(key[1])
        real, flushed, got = spaces_module._inverse_rows, [], {}

        def counting(rows, axes, mirrored):
            flushed.append(rows.shape[0])
            return real(rows, axes, mirrored)

        monkeypatch.setattr(spaces_module, "_inverse_rows", counting)
        for width in (1, 2, 3):
            _with_cpus(monkeypatch, width)
            flushed.clear()
            got[width] = [
                (key, type(source).__name__, _natural_moduli(source, grid_wide).tobytes())
                for key, source in spaces_module._synthesized(grid_wide, keys, blocks)
            ]
            assert flushed == {1: [1, 1, 1], 2: [2, 1], 3: [2, 1]}[width]
        assert [key for key, _, _ in got[1]] == [(0, 4), (1, 4), (0, -1), (2, 4)]
        assert [kind for _, kind, _ in got[1]] == ["_Rows", "_Rows", "_Cosets", "_Rows"]
        assert got[1] == got[2] == got[3]

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    @pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
    def test_one_sided_level_is_not_empty(self, grid_mid, side):
        # an analytic signal fills one side of its level only
        spec = _random_spectrum(grid_mid, 3, 5, 5)
        one_sided = Spectrum(grid_mid, np.where(side * grid_mid.xi_axis() > 0, spec.coeffs, 0.0))
        params = SpaceParams(0.0, 1.5, 2.0, "B")
        want = _synthesized_besov(inverse_ft(one_sided), params)
        assert want > 0.0
        assert besov_norm(one_sided, params) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("grid_name", ["grid_mid", "grid_2d", "grid_wide"])
    def test_level_window_is_natural_order_of_centered_mask(self, monkeypatch, request, grid_name):
        # a wide piece's row handed to the inverse FFT is the natural order of
        # its centered spectrum; a narrow piece's window is that row read at
        # the window's frequencies, times 1/(P^n dx^n), and holds all its bins
        _with_cpus(monkeypatch, 1)
        filled = []

        def keep(rows, axes, mirrored):
            filled.append(rows[0].copy())
            return rows

        monkeypatch.setattr(spaces_module, "_inverse_rows", keep)
        grid = request.getfixturevalue(grid_name)
        spec = forward_ft(_broadband_field(grid))
        keys = list(feasible_band(grid).levels()) + [None]
        kinds = []
        sources = spaces_module._synthesized(grid, keys, spaces_module._pieces_of(spec))
        for (key, source), j in zip(sources, keys, strict=True):
            assert key == j
            if j is None:
                centered = spec.coeffs * lowpass_profile(radial_xi(grid))
            else:
                centered = apply_level_mask(spec.coeffs, grid, j)
            natural = np.fft.ifftshift(centered)
            if isinstance(source, spaces_module._Rows):
                kinds.append("wide")
                assert np.array_equal(filled.pop(0), natural)
                continue
            kinds.append("narrow")
            window = spaces_module._window(grid, spaces_module._pieces_of(spec)(j))
            index = np.ix_(*[(k0 + np.arange(q)) % grid.N for k0, q in window])
            scale = 1.0 / (np.prod(source.P) * grid.dx**grid.n)
            assert np.array_equal(source.compact, natural[index] * scale)
            assert np.count_nonzero(source.compact) == np.count_nonzero(natural)
        assert not filled
        # one-tile grids read every piece on the full grid
        assert "wide" in kinds and ("narrow" in kinds) == (grid_name == "grid_wide")


def _natural_moduli(source, grid):
    """|samples| of a source's piece over the grid in natural order, put back tile by tile."""
    out = np.full(grid.shape, -1.0)
    size = grid.N**grid.n
    chunk = min(size, source.tile)
    buf, tmp = np.empty(chunk), np.empty(chunk, dtype=np.complex128)
    for lo in range(0, size, chunk):
        a = source.moduli(lo, lo + chunk, buf, tmp)
        view = source.at(out, lo, lo + chunk)
        assert np.all(view == -1.0)  # tiles cover disjoint positions
        view[...] = a
    return out


def _window_spectrum(grid, starts, spans, seed=0):
    """Random coefficients on the circular window starts_i <= k < starts_i + spans_i per axis.

    A span of more than _CHUNK bins is filled at every 4th bin from its
    first, so that ``_window`` seeks its gaps rather than taking the whole axis.
    """
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    index = np.ix_(*[
        (grid.center + k0 + np.arange(0, span, 1 if span <= spaces_module._CHUNK else 4)) % grid.N
        for k0, span in zip(starts, spans)
    ])
    shape = coeffs[index].shape
    coeffs[index] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Spectrum(grid, coeffs)


#: (N, cosets P): P = 1 and 2 on one-tile grids, 16 and 4 over several tiles, and one bin (P = N)
_COSET_CASES = [(2**12, 1), (2**16, 1), (2**16, 2), (2**18, 16), (2**18, 4), (2**18, 2**18), (2**16, 2**16)]

#: (n, N, window spans, cosets P^n) of the boundary check: 1-D windows leaving 2, 4 and 8
#: cosets, 2-D windows leaving 2 and 8, and windows of the whole grid; a window of more than
#: 2^16 bins is read from one row, a long 1-D one in coset order, any other by cosets
_BOUNDARY_CASES = [
    (1, 2**18, (2**17,), 2),
    (1, 2**18, (2**16,), 4),
    (1, 2**18, (2**15,), 8),
    (1, 2**19, (2**17,), 4),
    (2, 512, (256, 512), 2),
    (2, 512, (128, 256), 8),
    (1, 2**18, (2**17 + 1,), 1),
    (2, 512, (300, 512), 1),
]


class TestCosetSynthesis:
    # every narrow piece is read coset by coset; each check is against the
    # full-grid inverse FFT of the same spectrum

    @pytest.mark.parametrize("N, P", _COSET_CASES)
    @pytest.mark.parametrize("where", ["zero", "nyquist", "one-sided", "lowest"])
    def test_moduli_match_the_full_grid_field(self, N, P, where):
        grid = GridSpec(1, N, 2.0 * np.pi * N / 64.0)
        span = N // P if P > 1 else N // 2 + 1  # P = 1: more than half the axis
        start = {"zero": -(span // 2), "nyquist": N // 2 - span // 2, "one-sided": N // 8, "lowest": -N // 2}[where]
        spec = _window_spectrum(grid, [start], [span])
        whole = [((slice(0, N),), spec.coeffs)]
        window = spaces_module._window(grid, whole)
        assert [q for _, q in window] == [N // P]
        source = spaces_module._Cosets(grid, whole, window)
        want = np.abs(np.fft.ifftshift(inverse_ft(spec).values))
        np.testing.assert_allclose(_natural_moduli(source, grid), want, rtol=0.0, atol=1e-12 * want.max())
        for r in (1.5, 2.0, np.inf):
            got = spaces_module._lr_norms(source, r, grid.dx**grid.n)
            assert got == pytest.approx(lr_quasinorm(inverse_ft(spec), r), rel=1e-12)

    @pytest.mark.parametrize(
        "N, starts, spans, Q",
        [
            (256, (-5, 120), (11, 17), (16, 32)),  # around 0 and across Nyquist, one tile
            (512, (40, -256), (30, 60), (32, 64)),  # one-sided and from the lowest bin, four tiles
            (512, (-3, 250), (1, 3), (1, 4)),  # a column and a few rows of bins
        ],
    )
    def test_two_dimensional_pieces(self, N, starts, spans, Q):
        grid = GridSpec(2, N, 32.0)
        spec = _window_spectrum(grid, starts, spans, seed=1)
        whole = [((slice(0, N),) * 2, spec.coeffs)]
        window = spaces_module._window(grid, whole)
        assert tuple(q for _, q in window) == Q
        source = spaces_module._Cosets(grid, whole, window)
        want = np.abs(np.fft.ifftshift(inverse_ft(spec).values))
        np.testing.assert_allclose(_natural_moduli(source, grid), want, rtol=0.0, atol=1e-12 * want.max())
        assert spaces_module._lr_norms(source, 1.5, grid.dx**grid.n) == pytest.approx(
            lr_quasinorm(inverse_ft(spec), 1.5), rel=1e-12
        )

    @pytest.mark.parametrize("n, N, spans", [(1, 2**19, (2**16,)), (2, 512, (256, 256))])
    def test_window_of_one_tile_is_read_by_cosets(self, monkeypatch, n, N, spans):
        # Q^n = 2^16 bins leave only P^n = 8 or 4 cosets, yet they fit one tile of a larger grid
        grid = GridSpec(n, N, 32.0)
        spec = _window_spectrum(grid, [-(span // 2) for span in spans], spans, seed=5)
        whole = [((slice(0, N),) * n, spec.coeffs)]
        want = {r: lr_quasinorm(inverse_ft(spec), r) for r in (1.5, np.inf)}
        for width in (1, 2, 3):
            _with_cpus(monkeypatch, width)
            [(_, source)] = spaces_module._synthesized(grid, ["f"], lambda _: whole)
            assert isinstance(source, spaces_module._Cosets) and np.prod(source.Q) == spaces_module._CHUNK
            for r in want:
                assert spaces_module._lr_norms(source, r, grid.dx**n) == pytest.approx(want[r], rel=1e-12)

    def test_empty_piece_is_skipped(self, grid_wide):
        zeros = [((slice(10, 20),), np.zeros(10, dtype=np.complex128))]
        assert spaces_module._window(grid_wide, zeros) is None
        assert list(spaces_module._synthesized(grid_wide, ["a"], lambda _: zeros)) == []
        assert spaces_module._pieces_lr(grid_wide, ["a"], lambda _: zeros, 1.5) == {"a": 0.0}

    @pytest.mark.parametrize("family", ["B", "F"])
    @pytest.mark.parametrize("setting", ["homogeneous", "inhomogeneous"])
    @pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
    def test_narrow_and_wide_levels_match_the_reference(self, grid_wide, family, setting):
        # levels -9..3 and S_0 of a field on grid_wide are narrow, 4 wide
        f = inverse_ft(_random_spectrum(grid_wide, 4, -9, 4))
        params = SpaceParams(0.2, 1.5, 2.0, family, setting)
        ref = _synthesized_besov if family == "B" else _synthesized_triebel
        assert space_norm(f, params) == pytest.approx(ref(f, params), rel=1e-12)

    @pytest.mark.parametrize("grid_name", ["grid_mid", "grid_wide", "grid_2d", "grid_2d_512"])
    @pytest.mark.parametrize("build", ["random", "modulated", "zero"])
    def test_spectrum_boundary_ratio_is_the_fields(self, request, grid_name, build):
        # on grid_2d_512, band [0, 4], the random field's level-4 plateau spans 285 bins per axis
        grid = GridSpec(2, 512, 56.0) if grid_name == "grid_2d_512" else request.getfixturevalue(grid_name)
        if build == "zero":
            spec = Spectrum(grid, np.zeros(grid.shape))
        elif build == "random":
            band = feasible_band(grid)
            spec = _random_spectrum(grid, 2, band.j_min, band.j_max)
        else:  # one bump, narrow, moved up by a quarter of the band
            coeffs = np.zeros(grid.shape, dtype=np.complex128)
            coeffs[(slice(grid.center + grid.N // 8 - 4, grid.center + grid.N // 8 + 5),) * grid.n] = 1.0
            spec = Spectrum(grid, coeffs)
        # the bump is read coset by coset on grids of more than one tile, a random field's
        # window of more than one tile on the full grid
        whole = [((slice(0, grid.N),) * grid.n, spec.coeffs)]
        kinds = [type(source).__name__ for _, source in spaces_module._synthesized(grid, [0], lambda _: whole)]
        narrow = build == "modulated" and grid.N**grid.n > spaces_module._CHUNK
        assert kinds == ([] if build == "zero" else ["_Cosets"] if narrow else ["_Rows"])
        want = boundary_decay_ratio(inverse_ft(spec))
        assert spaces_module._boundary_ratio(spec) == pytest.approx(want, rel=1e-12, abs=0.0)
        caught = {}
        for x in (spec, inverse_ft(spec)):
            with warnings.catch_warnings(record=True) as caught[type(x)]:
                warnings.simplefilter("always", ModelFidelityWarning)
                besov_norm(x, SpaceParams(0.0, 1.5, 2.0, "B"))
        assert [str(w.message) for w in caught[Spectrum]] == [str(w.message) for w in caught[Field]]


    @pytest.mark.parametrize("name", ["mid-band", "grid_wide", "512^2", "hi-band modulated", "lo-band random"])
    @pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
    def test_no_norm_or_check_builds_a_tile_over_a_chunk(self, monkeypatch, request, name):
        # every coset source the norms and the boundary check build holds tiles of at most
        # 2^16 samples; hi-band's size-16 modulated record (a 2^19-bin window, four cosets),
        # checked on a bound-free copy, and a lo-band record over the whole band (a window of
        # the whole grid) read their check from one row, the same ratio as the field's
        query = SzaszQuery(SpaceParams(0.0, 2.0, 4.0, "B"), 4.0, 1)
        spec = {
            "mid-band": lambda: _random_spectrum(request.getfixturevalue("grid_mid"), 2, 0, 9),
            "grid_wide": lambda: _random_spectrum(request.getfixturevalue("grid_wide"), 2, -9, 4),
            "512^2": lambda: _random_spectrum(GridSpec(2, 512, 56.0), 2, 0, 4),
            "hi-band modulated": lambda: witnesses_module._modulated_spectrum(
                witnesses_module.GRID_PRESETS["hi-band"], WitnessSpec("modulated", 16, query)
            ),
            "lo-band random": lambda: _random_spectrum(witnesses_module.GRID_PRESETS["lo-band"], 3, -11, 4),
        }[name]()
        tiles, init = [], spaces_module._Cosets.__init__

        def counted(self, *args):
            init(self, *args)
            tiles.append(np.prod(self.g) * np.prod(self.Q))

        monkeypatch.setattr(spaces_module._Cosets, "__init__", counted)
        for params in (SpaceParams(0.0, 1.5, 2.0, "B"), SpaceParams(0.0, 1.5, 3.0, "F")):
            space_norm(spec, params)
        ratio = spaces_module._boundary_ratio(bound_free(spec))
        assert all(tile <= spaces_module._CHUNK for tile in tiles)
        assert bool(tiles) == (name != "mid-band")
        if name in ("hi-band modulated", "lo-band random"):
            assert ratio == pytest.approx(boundary_decay_ratio(inverse_ft(spec)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "n, N, Q", [(1, 2**18, (2**17,)), (1, 2**18, (2**15,)), (1, 2**18, (32,)), (2, 512, (256, 512)),
                    (2, 512, (128, 256)), (2, 512, (16, 32))],
    )
    def test_boundary_check_reads_the_shell_positions(self, monkeypatch, n, N, Q):
        # the shell found from the sample coordinates: the margin's samples nearest each side of
        # the box; the moduli of the cosets, or of the row of a window of more than 2^16 bins
        # (a long 1-D one in coset order, a 2-D one natural), replaced by known values, with
        # spikes just outside the shell along each axis and a lesser one on its first or last index
        grid = GridSpec(n, N, 32.0)
        x, edge = grid.x_axis(), max(1, round(BOUNDARY_MARGIN * N)) * grid.dx
        near = np.fft.ifftshift((x < -grid.L / 2 + edge) | (x >= grid.L / 2 - edge))  # natural order
        start, stop = np.flatnonzero(near)[[0, -1]] + (0, 1)
        assert np.array_equal(_shell(grid), near) and not _shell(grid).flags.writeable
        assert _shell(GridSpec(n, N, 32.0)) is _shell(grid)
        shell = near if n == 1 else near[:, None] | near[None, :]
        spec = _window_spectrum(grid, [0] * n, Q, seed=3)
        assert tuple(q for _, q in spaces_module._window(grid, [((slice(0, N),) * n, spec.coeffs)])) == Q

        kind = spaces_module._Cosets if np.prod(Q) <= spaces_module._CHUNK else spaces_module._Rows

        class Known(kind):
            def moduli(self, lo, hi, buf, tmp):
                return self.at(values, lo, hi)

        monkeypatch.setattr(spaces_module, kind.__name__, Known)
        for axis in range(n):
            for inside in (start, stop - 1):
                values = np.random.default_rng(4).random(grid.shape)
                for i in range(n):
                    np.moveaxis(values, i, 0)[([start - 1, stop],) + (0,) * (n - 1)] += 10.0
                np.moveaxis(values, axis, 0)[(inside,) + (0,) * (n - 1)] += 5.0
                want = np.max(values[shell]) / np.max(values)
                assert 0.3 < want < 0.6
                assert spaces_module._boundary_ratio(spec) == want

    @pytest.mark.parametrize("n, N, spans, cosets", _BOUNDARY_CASES)
    def test_boundary_check_reads_the_cosets_of_a_wide_window(self, monkeypatch, n, N, spans, cosets):
        grid = GridSpec(n, N, 32.0)
        spec = _window_spectrum(grid, [N // 8 - span // 2 for span in spans], spans, seed=2)
        window = spaces_module._window(grid, [((slice(0, N),) * n, spec.coeffs)])
        assert N**n // np.prod([q for _, q in window]) == cosets
        field = inverse_ft(spec)
        want = boundary_decay_ratio(field)
        assert want > BOUNDARY_TOL
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ModelFidelityWarning)
            besov_norm(field, SpaceParams(0.0, 2.0, 2.0, "B"))

        def synthesis(x):
            raise AssertionError("a check on a grid of more than one tile called inverse_ft")

        monkeypatch.setattr(spaces_module, "inverse_ft", synthesis)
        got = {}
        for width in (1, 2, 3):
            _with_cpus(monkeypatch, width)
            got[width] = spaces_module._boundary_ratio(spec)
        assert got[1] == got[2] == got[3] == pytest.approx(want, rel=1e-12, abs=0.0)
        with warnings.catch_warnings(record=True) as checked:
            warnings.simplefilter("always", ModelFidelityWarning)
            besov_norm(spec, SpaceParams(0.0, 2.0, 2.0, "B"))
        assert [str(w.message) for w in checked] == [str(w.message) for w in caught]
        # the check's source is the norms' own: cosets in tiles of 2^16 samples, or one row
        whole = [((slice(0, N),) * n, spec.coeffs)]
        for _, source in spaces_module._synthesized(grid, ["f"], lambda _: whole):
            narrow = np.prod([q for _, q in window]) <= spaces_module._CHUNK
            assert isinstance(source, spaces_module._Cosets if narrow else spaces_module._Rows)
            assert source.tile == spaces_module._CHUNK
            assert spaces_module._lr_norms(source, 1.5, grid.dx**grid.n) == pytest.approx(
                lr_quasinorm(field, 1.5), rel=1e-12
            )


def _even(spec: Spectrum) -> Spectrum:
    """``spec`` plus its mirror, c(k) + c(-k mod N): even bit for bit, the Nyquist bin -N/2 its own mirror."""
    c = spec.coeffs
    axes = tuple(range(c.ndim))
    return Spectrum(spec.grid, c + np.roll(np.flip(c), (1,) * c.ndim, axis=axes))


class _Walked:
    """A tile source that lists the tiles a pass reads, ``mirrored`` as given."""

    def __init__(self, source, mirrored):
        self.source, self.mirrored, self.walked = source, mirrored, []

    def __getattr__(self, name):
        return getattr(self.source, name)

    def moduli(self, lo, hi, buf, tmp):
        self.walked.append(lo)
        return self.source.moduli(lo, hi, buf, tmp)


def _walk_both(source, grid, r):
    """(norm, tiles walked) of a source's pass as it is and of the full pass with its flag off."""
    runs = [_Walked(source, mirrored) for mirrored in (source.mirrored, False)]
    return [(spaces_module._lr_norms(run, r, grid.dx**grid.n), len(run.walked)) for run in runs]


#: (n, N, window starts, spans, kind of source): narrow 1-D cosets on 2^18 points, a long row
#: in coset order on 2^18 (every 4th bin of 2^17), 2-D cosets on 512^2, and narrow windows
#: through the Nyquist bin -N/2, in 1-D and along both axes in 2-D; each made even by its mirror
_MIRRORED_CASES = [
    (1, 2**18, (-60,), (121,), "_Cosets"),
    (1, 2**18, (-(2**16) + 4,), (2**17 - 7,), "_Rows"),
    (2, 512, (-30, -25), (61, 51), "_Cosets"),
    (1, 2**18, (2**17 - 40,), (81,), "_Cosets"),
    (2, 512, (236, 246), (41, 21), "_Cosets"),
]


class TestMirroredPieces:
    # a piece whose coefficients are even sums the tiles of half its cosets along the first axis

    @staticmethod
    def _source(n, N, starts, spans, kind, seed=6, nudge=False):
        """Yields (grid, spectrum, source) once: a row source is valid only until the generator resumes."""
        grid = GridSpec(n, N, 32.0)
        spec = _even(_window_spectrum(grid, starts, spans, seed=seed))
        if nudge:  # one bin one ulp up: its mirror no longer matches it
            k = np.unravel_index(np.flatnonzero(spec.coeffs)[3], grid.shape)
            spec.coeffs[k] = np.nextafter(spec.coeffs[k].real, np.inf) + 1j * spec.coeffs[k].imag
        whole = [((slice(0, N),) * n, spec.coeffs)]
        [kinds] = [type(source).__name__ for _, source in spaces_module._synthesized(grid, ["f"], lambda _: whole)]
        assert kinds == kind
        for _, source in spaces_module._synthesized(grid, ["f"], lambda _: whole):
            yield grid, spec, source

    @pytest.mark.parametrize("n, N, starts, spans, kind", _MIRRORED_CASES)
    @pytest.mark.parametrize("width", [1, 3])
    def test_half_pass_equals_the_full_pass(self, monkeypatch, n, N, starts, spans, kind, width):
        _with_cpus(monkeypatch, width)
        for grid, spec, source in self._source(n, N, starts, spans, kind):
            if starts[0] > 0:  # the windows through Nyquist hold the bin -N/2
                assert spec.coeffs[(0,) * n] != 0
            tiles = int(np.prod(source.blocks))
            assert source.mirrored and tiles == 4 and source.blocks[0] == 4
            for r in (1.0, 1.5, np.inf):
                (half, walked), (full, every) = _walk_both(source, grid, r)
                assert walked <= tiles // 2 + 1 and every == tiles
                assert half == pytest.approx(full, rel=1e-15, abs=0.0)
                assert half == pytest.approx(lr_quasinorm(inverse_ft(spec), r), rel=1e-12)

    @pytest.mark.parametrize("n, N, starts, spans, kind", _MIRRORED_CASES[:3])
    def test_one_ulp_off_the_mirror_walks_every_tile(self, n, N, starts, spans, kind):
        for grid, spec, source in self._source(n, N, starts, spans, kind, nudge=True):
            assert not source.mirrored
            (got, walked), (full, _) = _walk_both(source, grid, 1.5)
            assert walked == np.prod(source.blocks) and got == full

    def test_forward_transform_spectrum_walks_every_tile(self, grid_wide):
        # the transform of an even field is even only to roundoff
        spec = _even(_window_spectrum(grid_wide, [-60], [121], seed=6))
        again = forward_ft(inverse_ft(spec))
        whole = [((slice(0, grid_wide.N),), again.coeffs)]
        for _, source in spaces_module._synthesized(grid_wide, ["f"], lambda _: whole):
            assert not source.mirrored
            (got, walked), _ = _walk_both(source, grid_wide, 1.5)
            assert walked == 4 and got == pytest.approx(lr_quasinorm(inverse_ft(spec), 1.5), rel=1e-12)

    def test_overflowed_half_sum_is_rescaled(self):
        # the tile sums of 1e300-sized samples overflow, S_0's too: inf - inf is an overflow
        grid = GridSpec(1, 2**18, 32.0)
        big = _even(_window_spectrum(grid, [-60], [121], seed=6)).coeffs * 1e300
        whole = [((slice(0, grid.N),), big)]
        for _, source in spaces_module._synthesized(grid, ["f"], lambda _: whole):
            assert source.mirrored
            for r in (1.5, 2.0):
                (half, walked), (full, _) = _walk_both(source, grid, r)
                assert walked == 9 and half == pytest.approx(full, rel=1e-15, abs=0.0) and np.isfinite(half)

    def test_radial_witness_pieces_are_mirrored(self, grid_wide):
        # random_bandlimited and lowfreq_blowup are built from radial profiles, so each level
        # piece and blowup term is even; a modulated witness's moved boxes are not
        hi = GridSpec(1, 2**18, 16.0 * np.pi)
        query = SzaszQuery(SpaceParams(0.0, 2.0, 4.0, "B"), 4.0, 1)
        modulated = witnesses_module._modulated_spectrum(hi, WitnessSpec("modulated", 6, query))
        cases = [
            (grid_wide, _random_spectrum(grid_wide, 5, -6, 2), True),
            (grid_wide, _blowup_spectrum(grid_wide, 3, 2.0, 1.5), True),
            (hi, modulated, False),
        ]
        for grid, spec, even in cases:
            keys = list(feasible_band(grid).levels())
            flags = [source.mirrored for _, source in spaces_module._synthesized(grid, keys, spaces_module._pieces_of(spec))]
            assert flags and flags == [even] * len(flags)

    @pytest.mark.parametrize(
        "piece, even",
        [
            # the bins 1..3 mirror to 13..15 reversed; a mirror split over two blocks is not taken as even
            ([((slice(1, 4),), np.array([1.0, 2.0, 3.0])), ((slice(13, 16),), np.array([3.0, 2.0, 1.0]))], True),
            ([((slice(1, 4),), np.array([1.0, 2.0, 3.0])), ((slice(13, 15),), np.array([3.0, 2.0])),
              ((slice(15, 16),), np.array([1.0]))], False),
            ([((slice(1, 4),), np.array([1.0, 2.0, 3.0])), ((slice(12, 16),), np.array([0.0, 3.0, 2.0, 1.0]))], False),
            # the Nyquist bin alone, its own mirror, and with bins whose mirrors no block holds
            ([((slice(0, 1),), np.array([5.0]))], True),
            ([((slice(0, 3),), np.array([5.0, 0.0, 1.0]))], False),
            # a block whose mirror is off the blocks, and one of zeros whose mirror is
            ([((slice(3, 5),), np.array([1.0, 1.0]))], False),
            ([((slice(3, 5),), np.zeros(2)), ((slice(12, 14),), np.array([0.0, 1.0]))], False),
            ([((slice(8, 9),), np.array([2.0])), ((slice(5, 6),), np.array([1j])), ((slice(11, 12),), np.array([1j]))], True),
            ([((slice(5, 6),), np.array([1j])), ((slice(11, 12),), np.array([-1j]))], False),
        ],
    )
    def test_mirror_check_reads_the_blocks(self, piece, even):
        # N = 16: centered index i holds k = i - 8, whose mirror -k is at 16 - i
        assert spaces_module._mirrored(piece, 16) is even

    def test_two_dimensional_mirror_is_the_point_reflection(self):
        rng = np.random.default_rng(2)
        c = np.zeros((16, 16), dtype=np.complex128)
        c[3:9, 5:14] = rng.standard_normal((6, 9))
        even = _even(Spectrum(GridSpec(2, 16, 8.0), c)).coeffs
        assert spaces_module._mirrored([((slice(0, 16),) * 2, even)], 16)
        # rows split symmetrically about the mirror, the Nyquist row with the first block
        rows = [((slice(a, b), slice(0, 16)), even[a:b]) for a, b in ((0, 5), (5, 12), (12, 16))]
        assert spaces_module._mirrored(rows, 16)
        flipped = even[:, ::-1].copy()  # mirrored along the second axis only: not even
        assert not spaces_module._mirrored([((slice(0, 16),) * 2, flipped)], 16)


class TestChunkedRowPass:
    @pytest.mark.parametrize("shape", [(2**10,), (2**16,), (2**20,), (64, 64), (256, 256), (1024, 512)])
    def test_power_sum_is_fsum_of_the_tile_sums(self, monkeypatch, shape):
        # r = 1, weight 1 and root 1 leave the total itself, whatever the thread count
        a = np.random.default_rng(7).random(shape) ** 7 * 1e3
        flat = a.reshape(-1)
        chunk = spaces_module._CHUNK
        want = math.fsum(float(np.sum(flat[lo : lo + chunk])) for lo in range(0, flat.size, chunk))
        for width in (1, 2, 3):
            _with_cpus(monkeypatch, width)
            assert spaces_module._lr_norms(spaces_module._Rows(a), 1.0, 1.0) == want

    @pytest.mark.parametrize("grid_name", ["grid_mid", "grid_wide", "grid_2d"])
    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-310])
    def test_scale_is_complex_division_and_product(self, request, grid_name, scale):
        # the inverse transform and the rows scale by 1/dx^n, the forward transform by dx^n
        grid = request.getfixturevalue(grid_name)
        rng = np.random.default_rng(3)
        v = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) * scale
        got = v.copy()
        _scale(got, 1.0 / grid.dx**grid.n)
        assert got.tobytes() == (v / grid.dx**grid.n).tobytes()
        got = v.copy()
        _scale(got, grid.dx**grid.n)
        assert got.tobytes() == (v * grid.dx**grid.n).tobytes()


class TestOverflowSafePowerSums:
    @pytest.mark.parametrize("a,want", [([0.5, 3.0, 2.0], 3.0), ([], 0.0)])
    def test_power_sum_at_infinity_is_the_maximum(self, a, want):
        assert spaces_module._lr_norm(np.asarray(a), np.inf, 7.0) == want

    @pytest.mark.parametrize("a", [[], [0.0, 0.0, 0.0]], ids=["empty", "zeros"])
    @pytest.mark.parametrize("p", [0.5, 2.0, 200.0])
    def test_power_sum_of_nothing_is_zero(self, a, p):
        assert spaces_module._lr_norm(np.asarray(a), p, 7.0) == 0.0

    @pytest.mark.parametrize("peak", [1e3, 1e-3])
    def test_lr_at_large_r(self, grid_mid, peak):
        x = grid_mid.x_axis()
        unit = lr_quasinorm(Field(grid_mid, np.exp(-(x**2) / 2)), 200.0)
        got = lr_quasinorm(Field(grid_mid, peak * np.exp(-(x**2) / 2)), 200.0)
        assert got == pytest.approx(peak * unit, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("peak", [1e3, 1e-3])
    @pytest.mark.parametrize("levels", [(-6, 0), (3, 4)], ids=["narrow", "wide"])
    @pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
    def test_besov_at_large_r_on_chunked_rows(self, monkeypatch, grid_wide, peak, levels):
        # four tiles per piece on two threads; |piece|^200 over- or underflows
        _with_cpus(monkeypatch, 2)
        spec = _random_spectrum(grid_wide, 2, *levels)
        params = SpaceParams(0.3, 200.0, 2.0, "B")
        unit = besov_norm(spec, params)
        got = besov_norm(Spectrum(grid_wide, spec.coeffs * peak), params)
        assert got == pytest.approx(peak * unit, rel=1e-12, abs=0.0)

    def test_rows_leaving_range_in_one_batch_keep_their_own_norms(self, monkeypatch, grid_wide):
        # at r = 200 the rows' power sums overflow, stay in range, underflow
        # and vanish: each row of one stack, read as its own source, has bit
        # for bit the norm it has alone
        _with_cpus(monkeypatch, 2)
        base = np.exp(-((grid_wide.x_axis() / 100.0) ** 2)).astype(np.complex128)
        rows = np.stack([1e3 * base, base, 1e-3 * base, 0.0 * base])
        want = [lr_quasinorm(Field(grid_wide, row), 200.0) for row in rows]
        assert want[0] > 0.0 and want[2] > 0.0 and want[3] == 0.0
        before = rows.copy()
        sources = [spaces_module._Rows(row) for row in rows]
        assert [spaces_module._lr_norms(source, 200.0, grid_wide.dx) for source in sources] == want
        # the rescaled re-walk read the same rows: a source is only read
        assert rows.tobytes() == before.tobytes()
        assert [spaces_module._lr_norms(source, 200.0, grid_wide.dx) for source in sources] == want
        scaled = [spaces_module._lr_norms(spaces_module._Rows(row, 0.5), 200.0, grid_wide.dx) for row in rows]
        assert scaled == pytest.approx([0.5 * norm for norm in want], rel=1e-13, abs=0.0)
        assert rows.tobytes() == before.tobytes()

    @pytest.mark.parametrize("width", [1, 2])
    def test_finite_tile_sums_adding_past_the_float_range_are_rescaled(self, monkeypatch, grid_wide, width):
        # each of the four 2^16-sample tiles sums to about 1.05e308, together
        # past the float range; the peak-scaled pass gives the value
        _with_cpus(monkeypatch, width)
        row = np.full(grid_wide.N, 4e151)
        want = 4e151 * np.sqrt(grid_wide.L)
        assert lr_quasinorm(Field(grid_wide, row), 2.0) == pytest.approx(want, rel=1e-15, abs=0.0)
        rows = (row, np.ones(grid_wide.N))
        got = [spaces_module._lr_norms(spaces_module._Rows(a), 2.0, grid_wide.dx) for a in rows]
        assert got == pytest.approx([want, np.sqrt(grid_wide.L)], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    @pytest.mark.parametrize("r", [0.1, 0.5, 1.5, np.inf])
    @pytest.mark.parametrize("name", ["lr_quasinorm", "besov_norm"])
    def test_far_scales_give_a_value_or_the_float_range_message(self, grid_mid, name, r, scale):
        # a norm homogeneous of degree 1 either scales, or its true value leaves the float range
        norm = lr_quasinorm if name == "lr_quasinorm" else lambda f, r: besov_norm(f, SpaceParams(0.3, r, 2.0))
        f = wave_packet(grid_mid, 4.0, 3.0)
        f = Field(grid_mid, np.where(np.abs(f.values) > 1e-6, f.values, 0.0))  # no sample underflows at 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", ModelFidelityWarning)
            unit = norm(f, r)
            beyond = abs(np.log10(unit) + np.log10(scale)) > 307.0
            try:
                got = norm(Field(grid_mid, scale * f.values), r)
            except ArithmeticError as exc:
                assert type(exc) is ArithmeticError and beyond
                assert re.fullmatch(r"quasi-norm (exceeds|falls below) the float range: .*", str(exc))
            else:
                assert not beyond and got / scale == pytest.approx(unit, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "grid, value, r, side",
        [
            (GridSpec(1, 2**14, 16.0 * np.pi), 1e300, 0.1, "exceeds"),
            (GridSpec(1, 16, 1e-3), 1.0, 0.001, "falls below"),
        ],
        ids=["over", "under"],
    )
    def test_root_out_of_float_range_raises(self, grid, value, r, side):
        # the power sums are in range; their roots are about 1e316 and 1e-3000
        message = f"^quasi-norm {side} the float range: a power sum to the power 1/{r}$"
        with pytest.raises(ArithmeticError, match=message):
            lr_quasinorm(Field(grid, np.full(grid.N, value)), r)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mass_beyond_the_float_range_warns_only_when_it_leaks(self, grid_mid):
        # at 1e307 the moduli sum past the float range; the leaked fraction does not depend on scale
        spec = _random_spectrum(grid_mid, 1, 2, 4)
        leaking = spec.coeffs.copy()
        leaking[grid_mid.center + 1] = np.abs(spec.coeffs).max()  # below the lowest annulus
        params = SpaceParams(0.3, 2.0, 2.0)
        for coeffs, leaks in ((spec.coeffs, False), (leaking, True)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ModelFidelityWarning)
                got = besov_norm(Spectrum(grid_mid, coeffs * 1e307), params)
            assert got / 1e307 == pytest.approx(besov_norm(Spectrum(grid_mid, coeffs), params), rel=1e-12, abs=0.0)
            assert any("outside the feasible band" in str(w.message) for w in caught) == leaks

    def test_triebel_takes_its_root_on_the_power_sum(self, grid_mid):
        # one plane wave: the pointwise sum is one level's constant 2^(jsq), and
        # ||F||_r^q = (sum acc^(r/q) dx)^(q/r) far exceeds the float range at q = 400
        f = Field(grid_mid, np.exp(3j * grid_mid.x_axis()))
        params = SpaceParams(0.3, 1.5, 400.0, "F")
        want = triebel_norm(f, SpaceParams(0.3, 1.5, np.inf, "F"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelFidelityWarning)
            assert triebel_norm(f, params) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("setting", ["homogeneous", "inhomogeneous"])
    @pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
    def test_besov_at_r2_far_from_unit_scale(self, grid_mid, scale, setting):
        # the Parseval sums of |c_k|^2 over- or underflow
        spec = _random_spectrum(grid_mid, 1, 2, 8)
        params = SpaceParams(0.3, 2.0, 2.0, "B", setting)
        unit = besov_norm(spec, params)
        got = besov_norm(Spectrum(grid_mid, spec.coeffs * scale), params)
        assert got == pytest.approx(scale * unit, rel=1e-12, abs=0.0)

    def test_besov_at_large_q(self, grid_mid):
        # phi's pieces are roundoff-sized; their 400th powers underflow
        phi = bump_lowpass_phi(grid_mid)
        sup = besov_norm(phi, SpaceParams(0.0, 2.0, np.inf))
        got = besov_norm(phi, SpaceParams(0.0, 2.0, 400.0))
        assert sup > 0.0
        assert sup <= got <= 10.0 ** (1.0 / 400.0) * sup

    @pytest.mark.parametrize("scale", [1e100, 1e-100])
    @pytest.mark.parametrize("q", [4.0, 400.0])
    @pytest.mark.parametrize("grid_name,levels", [("grid_mid", (2, 8)), ("grid_wide", (-6, 3))], ids=["mid", "wide"])
    def test_triebel_is_homogeneous_far_from_unit_scale(self, request, monkeypatch, grid_name, levels, scale, q):
        # grid_wide's four tiles take the multi-tile final reduction and fallback on 1 to 3 threads
        grid = request.getfixturevalue(grid_name)
        spec = _random_spectrum(grid, 1, *levels)
        params = SpaceParams(0.3, 1.5, q, "F")
        got = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelFidelityWarning)
            unit = triebel_norm(spec, params)
            sup = triebel_norm(spec, SpaceParams(0.3, 1.5, np.inf, "F"))
            for width in (1, 2, 3):
                _with_cpus(monkeypatch, width)
                got.append(triebel_norm(Spectrum(grid, spec.coeffs * scale), params))
        # pointwise, l_q of the band's levels lies between l_inf and levels^(1/q) l_inf
        count = len(list(feasible_band(grid).levels()))
        assert sup <= unit * (1 + 1e-12) and unit <= count ** (1.0 / q) * sup
        assert got[0] == pytest.approx(scale * unit, rel=1e-12, abs=0.0)
        assert got[1] == got[0] and got[2] == got[0]


def _borderline(grid, size: int, params: SpaceParams) -> Spectrum:
    """The modulated_borderline witness spectrum of K = size for F params, p = 2."""
    query = SzaszQuery(params, 2.0, grid.n)
    return witnesses_module._modulated_spectrum(grid, WitnessSpec("modulated_borderline", size, query))


def _pointwise(spec, params) -> float:
    """The F-norm by the level-by-level pointwise path alone."""
    return spaces_module._pointwise_triebel(spec, feasible_band(spec.grid), params)


def _route(spec, params):
    """The even-q one-synthesis route's norm, or None when it refuses."""
    band = feasible_band(spec.grid)
    keys = spaces_module._norm_levels(params, band) + ([] if params.homogeneous else [None])
    return spaces_module._even_q_norm(spec, keys, params)


class TestEvenQSpectralSum:
    # the pointwise sum at even q as one spectrum, synthesized once under a roundoff certificate

    @pytest.mark.parametrize("setting", ["homogeneous", "inhomogeneous"])
    @pytest.mark.parametrize("s, r, q", [(0.0, 2.0, 4.0), (0.3, 1.5, 2.0), (0.5, 3.0, 2.0)])
    @pytest.mark.parametrize("size", range(2, 9))
    def test_matches_the_pointwise_path(self, grid_mid, size, s, r, q, setting):
        params = SpaceParams(s, r, q, "F", setting)
        spec = _borderline(grid_mid, size, params)
        got = _route(spec, params)
        assert got is not None and triebel_norm(spec, params) == got
        assert got == pytest.approx(_pointwise(spec, params), rel=1e-12, abs=0.0)

    def test_two_dimensional_grid(self):
        # 512^2 points: the sum's window is read coset by coset along both axes
        grid = GridSpec(2, 512, 16.0 * np.pi)
        params = SpaceParams(0.3, 1.5, 2.0, "F")
        spec = _borderline(grid, 3, params)
        got = _route(spec, params)
        assert got is not None
        assert got == pytest.approx(_pointwise(spec, params), rel=1e-12, abs=0.0)

    def test_one_synthesis_per_accepted_norm(self, monkeypatch):
        # hi-band's two borderline records: one source for the sum, not one per level, after
        # the boundary check's on a bound-free copy of the same coefficients
        keys, synthesized = [], spaces_module._synthesized

        def counted(*args):
            for key, source in synthesized(*args):
                keys.append(key)
                yield key, source

        monkeypatch.setattr(spaces_module, "_synthesized", counted)
        params = SpaceParams(0.0, 2.0, 4.0, "F")
        for size in (4, 16):
            spec = _borderline(GridSpec(1, 2**21, 16.0 * np.pi), size, params)
            for x, want in ((spec, [None]), (bound_free(spec), [None, None])):
                keys.clear()
                triebel_norm(x, params)
                assert keys == want

    @pytest.mark.parametrize(
        "spec, params",
        [
            (lambda g: _borderline(g, 4, SpaceParams(0.0, 1.0, 6.0, "F")), SpaceParams(0.0, 1.0, 6.0, "F")),
            # a decaying field: roundoff in the sum swamps its square roots far from the peak
            (lambda g: _blowup_spectrum(GridSpec(1, 2**14, 2.0**8 * 2.0 * np.pi), 2, 2.0, 2.0), SpaceParams(0.0, 2.0, 4.0, "F")),
        ],
        ids=["borderline-q6", "blowup"],
    )
    def test_refused_input_gives_the_pointwise_value(self, grid_mid, spec, params):
        spec = spec(grid_mid)
        assert _route(spec, params) is None
        assert triebel_norm(spec, params) == _pointwise(spec, params)

    @pytest.mark.parametrize(
        "scale, size, params",
        [(1e100, 2, SpaceParams(0.0, 2.0, 4.0, "F")), (1e-100, 2, SpaceParams(0.0, 2.0, 4.0, "F"))]
        + [(1.0, 4, SpaceParams(s, 3.0, 2.0, "F")) for s in (150.0, 175.0, 200.0)]
        + [(1.0, 2, SpaceParams(0.0, 2.0, 400.0, "F"))],
        ids=str,
    )
    def test_values_off_the_float_range_fall_back(self, grid_mid, scale, size, params):
        # the sum's coefficients over- or underflow a float: level 4's weight (2^(4s))^2 at
        # s >= 150, (1 / L)^400 at q = 400; at unit scale and s = 0 the route takes q = 2 and 4.
        # r = 3 != q keeps the fallback on the pointwise path, which q = r would leave for B's sums
        unit = SpaceParams(0.0, params.r, params.q, "F")
        spec = _borderline(grid_mid, size, unit)
        scaled = Spectrum(grid_mid, spec.coeffs * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _route(scaled, params) is None
            assert triebel_norm(scaled, params) == _pointwise(scaled, params)
        assert (_route(spec, unit) is None) == (params.q == 400.0)

    def test_level_weight_off_the_float_range_raises_as_pointwise(self, grid_mid):
        # size 4 reaches level 5, whose weight 2^(5 * 250) leaves the float range; at q = r
        # the F-norm raises from B's per-level sums, and the pointwise path raises the same
        spec = _borderline(grid_mid, 4, SpaceParams(0.0, 2.0, 2.0, "F"))
        params = SpaceParams(250.0, 2.0, 2.0, "F")
        with pytest.raises(OverflowError, match=re.escape("level weight 2^(5 * 250.0)")):
            triebel_norm(spec, params)
        with pytest.raises(OverflowError, match=re.escape("level weight 2^(5 * 250.0)")):
            _pointwise(spec, params)

    def test_huge_even_q_allocates_nothing(self, grid_mid):
        params = SpaceParams(0.0, 2.0, 1e300, "F")
        spec = _borderline(grid_mid, 4, params)
        tracemalloc.start()
        try:
            assert _route(spec, params) is None
            assert tracemalloc.get_traced_memory()[1] < 2**16
        finally:
            tracemalloc.stop()
        assert triebel_norm(spec, params) == _pointwise(spec, params)

    def test_bitwise_independent_of_cpus(self, monkeypatch):
        # four tiles of cosets on 1 to 3 threads
        grid = GridSpec(1, 2**18, 16.0 * np.pi)
        params = SpaceParams(0.0, 2.0, 4.0, "F")
        spec = _borderline(grid, 8, params)
        got = []
        for width in (1, 2, 3):
            _with_cpus(monkeypatch, width)
            got.append(_route(spec, params))
        assert got[0] is not None and got[1] == got[0] and got[2] == got[0]


def _with_inf(spec: Spectrum) -> Spectrum:
    """``spec`` with one of its nonzero coefficients set to inf."""
    coeffs = spec.coeffs.copy()
    coeffs.flat[np.flatnonzero(coeffs)[5]] = np.inf
    return Spectrum(spec.grid, coeffs)


def _with_nan(f: Field) -> Field:
    """``f`` with one sample set to nan."""
    values = f.values.copy()
    values.flat[7] = np.nan
    return Field(f.grid, values)


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "call",
        [
            lambda spec, f: besov_norm(_with_inf(spec), SpaceParams(0.3, 2.0, 2.0)),
            lambda spec, f: besov_norm(_with_inf(spec), SpaceParams(0.3, 1.5, 2.0)),
            lambda spec, f: triebel_norm(_with_inf(spec), SpaceParams(0.3, 1.5, 2.0, "F")),
            lambda spec, f: space_norm(_with_nan(f), SpaceParams(0.3, 1.5, 2.0)),
            lambda spec, f: lr_quasinorm(_with_nan(f), 1.5),
            lambda spec, f: weighted_lhs(_with_inf(spec), 0.5, 2.0),
            lambda spec, f: szasz_ratio(_with_nan(f), SzaszQuery(SpaceParams(0.5, 1.5, 2.0), 2.0, 1)),
        ],
        ids=["besov_r2", "besov", "triebel", "field_norm", "lr_quasinorm", "weighted_lhs", "szasz_ratio"],
    )
    def test_nan_or_inf_raises_before_any_arithmetic_warning(self, grid_mid, call):
        spec = _random_spectrum(grid_mid, 1, 2, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", ModelFidelityWarning)
            with pytest.raises(ParameterError, match="non-finite input: 1 of 16384"):
                call(spec, inverse_ft(spec))

    @pytest.mark.parametrize("params", [SpaceParams(0.3, 1.5, 2.0), SpaceParams(0.3, 1.5, 2.0, "F")], ids=str)
    def test_finite_coefficients_whose_sum_overflows_keep_their_norm(self, grid_mid, params):
        spec = _random_spectrum(grid_mid, 1, 2, 8)
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("ignore", ModelFidelityWarning)
            got = space_norm(Spectrum(grid_mid, spec.coeffs * 1e306), params)
            assert got == pytest.approx(space_norm(spec, params) * 1e306, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("family", ["B", "F"])
    def test_coset_pieces_whose_transform_would_overflow_keep_their_norm(self, family):
        # a 2^15-bin window on a 2^17-point grid of two tiles, read coset by coset: before its
        # 1/Q the inverse FFT sums 2^15 coefficients times Q / L = 652, past the float range
        # for norms within it
        grid = GridSpec(1, 2**17, 16.0 * np.pi)
        spec = _random_spectrum(grid, 1, 11, 11)
        params = SpaceParams(0.3, 1.5, 2.0, family)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelFidelityWarning)
            want = space_norm(spec, params)
            # subnormal coefficients hold about 30 bits
            for scale, rel in ((1e303, 1e-12), (1e306, 1e-12), (1e-300, 1e-12), (1e-315, 1e-8)):
                scaled = Spectrum(grid, spec.coeffs * scale)
                assert space_norm(scaled, params) == pytest.approx(want * scale, rel=rel, abs=0.0)
                assert np.isfinite(spaces_module._boundary_ratio(scaled))

    @pytest.mark.parametrize(
        "grid, levels, scale",
        [
            (GridSpec(1, 2**18, 2.0**12 * 2.0 * np.pi), (3, 4), 2.0**1017),
            (GridSpec(1, 2**14, 16.0 * np.pi), (8, 9), 2.0**1020),
            (GridSpec(2, 512, 56.0), (3, 4), 2.0**1020),
            (GridSpec(1, 2**20, 2.0**14 * 2.0 * np.pi), (3, 4), 2.0**1017),
        ],
        ids=["grid_wide", "mid-band", "512^2", "lo-band"],
    )
    def test_row_pieces_whose_transform_would_overflow_keep_their_norm(self, grid, levels, scale):
        # the two top levels of each band, wide rows on the full grid: their inverse FFT sums
        # N^n coefficients of about 1e306 past the float range for norms within it; a
        # power-of-two scale leaves every coefficient's bits, so the boundary check gives the
        # unscaled ratio, its roundoff in the shell included, on a grid of one tile too
        spec = _random_spectrum(grid, 1, *levels)
        scaled = Spectrum(grid, spec.coeffs * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelFidelityWarning)
            for params in (SpaceParams(0.0, 1.5, 2.0, "B"), SpaceParams(0.0, 1.5, 3.0, "F")):
                want = space_norm(spec, params) * scale
                assert space_norm(scaled, params) == pytest.approx(want, rel=1e-12, abs=0.0)
        ratio = spaces_module._boundary_ratio(scaled)
        assert np.isfinite(ratio)
        assert ratio == pytest.approx(spaces_module._boundary_ratio(spec), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("shape", [(2**18,), (512, 512)])
    def test_row_scaling_is_exact_across_its_threshold(self, shape):
        # a row of N^n = 2^m points whose largest part is 0.75 2^e is bounded by 2^(e + 1 + m):
        # up to e = 1019 - m it is written as it is, from e = 1020 - m times 2^-1 with its
        # moduli times 2; both give the unit piece's moduli times 2^e bit for bit
        n, m = len(shape), int(np.log2(np.prod(shape)))
        grid = GridSpec(n, shape[0], 32.0)
        rng = np.random.default_rng(3)
        c = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
        c.flat[0] = 0.75
        got = {}
        for e in (0, 1019 - m, 1020 - m):
            for _, source in spaces_module._synthesized(grid, ["f"], lambda _: [((slice(0, grid.N),) * n, c * 2.0**e)]):
                assert source.factor == math.ldexp(1.0 / grid.dx**n, int(e == 1020 - m))
                got[e] = _natural_moduli(source, grid)
        for e in (1019 - m, 1020 - m):
            assert got[e].tobytes() == (got[0] * 2.0**e).tobytes()

    @pytest.mark.parametrize(
        "call",
        [
            lambda f: besov_norm(f, SpaceParams(0.0, 2.0, 2.0)),
            lambda f: triebel_norm(f, SpaceParams(0.0, 2.0, 2.0, "F")),
            lambda f: realization_report(f, SzaszQuery(SpaceParams(0.0, 2.0, 2.0), 2.0, 1), 3).low_mass,
            lambda f: low_frequency_mass(f, 8.0),
            lambda f: szasz_ratio(f, SzaszQuery(SpaceParams(0.0, 2.0, 2.0), 2.0, 1)),
        ],
        ids=["besov", "triebel", "realization_report", "low_frequency_mass", "szasz_ratio"],
    )
    def test_finite_samples_whose_transform_overflows_raise(self, grid_mid, call):
        # the samples are finite, their transform is not: no silent nan or inf
        values = random_bandlimited(grid_mid, 1, 2, 4).values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", ModelFidelityWarning)
            assert 0.0 < call(Field(grid_mid, 1e305 * values)) < np.inf
            for scale in (1e306, 1e307):
                with pytest.raises(ArithmeticError, match="float range: a transform or sum of finite samples"):
                    call(Field(grid_mid, scale * values))

    def test_finite_coefficients_whose_modulus_overflows_raise(self, grid_mid):
        # both coefficients are finite, |1.7e308 (1 + i)| is not
        coeffs = np.zeros(grid_mid.shape, dtype=complex)
        coeffs[9000], coeffs[9100] = 1.0, 1.7e308 * (1 + 1j)
        spec = Spectrum(grid_mid, coeffs)
        for call in (lambda s: besov_norm(s, SpaceParams(0.0, 2.0, 2.0)), lambda s: weighted_lhs(s, 0.5, 2.0)):
            with pytest.raises(ArithmeticError, match="float range") as caught:
                call(spec)
            assert not isinstance(caught.value, ParameterError)
        coeffs[9200] = np.nan
        with pytest.raises(ParameterError, match="non-finite input: 1 of 16384 coefficients"):
            besov_norm(Spectrum(grid_mid, coeffs), SpaceParams(0.0, 2.0, 2.0))


#: dilated_low with K = 1 on a 72-unit box: part of C_-1 lies below the
#: band's lowest annulus, and the field is far from zero at the boundary
_STRAINED_GRID = GridSpec(1, 256, 72.0)
_STRAINED_QUERY = SzaszQuery(SpaceParams(0.5, 1.0, 2.0), 1.0, 1)


class TestExactScaling:
    """A spectrum times an exact 2^e gives every result times 2^(e d), d its degree.

    A power of two changes no bit of a coefficient, so each result is the
    unscaled one times 2^(e d) to roundoff, d = 1 for the transform, the
    norms and the weighted functional and 0 for the boundary ratio, as long
    as it is in the float range: at e = 1016 the syntheses' sums are not.
    """

    PARAMS = (
        SpaceParams(0.0, 1.5, 2.0),
        SpaceParams(0.0, 1.5, 3.0, "F"),
        SpaceParams(0.0, 2.0, 2.0),
        SpaceParams(0.0, 0.8, 1.0),
        SpaceParams(0.0, 2.0, 4.0, "F"),
        SpaceParams(0.3, np.inf, 2.0),
        SpaceParams(0.0, 1.5, 1.5, "F", "inhomogeneous"),
    )

    @pytest.mark.parametrize(
        "turn, grid",
        enumerate([
            GridSpec(1, 2**14, 16.0 * np.pi),
            GridSpec(1, 2**18, 2.0**12 * 2.0 * np.pi),
            GridSpec(2, 256, 32.0),
            GridSpec(2, 512, 56.0),
        ]),
        ids=["mid-band", "grid_wide", "256^2", "512^2"],
    )
    def test_results_scale_with_the_spectrum(self, turn, grid):
        # the band's two top levels: full-grid rows on every grid, long rows and cosets on the
        # grids of 2^18 points.  Every result meets e = -900 and e = 1016, the ends of the
        # range, and one of -500, 500 and 1000 in turn, so that each meets all on some grid
        band = feasible_band(grid)
        spec = _random_spectrum(grid, 1, band.j_max - 1, band.j_max)
        results = [(lambda f: inverse_ft(f).values, 1)]
        results += [(lambda f, params=params: space_norm(f, params), 1) for params in self.PARAMS]
        results += [
            (lambda f: weighted_lhs(f, -0.25, 1.5), 1),
            (lambda f: lr_quasinorm(inverse_ft(f), 1.5), 1),
            (spaces_module._boundary_ratio, 0),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelFidelityWarning)
            for i, (result, degree) in enumerate(results):
                want = result(spec)
                for e in (-900, (-500, 500, 1000)[(i + turn) % 3], 1016):
                    got = result(Spectrum(grid, spec.coeffs * 2.0**e)) * 2.0 ** (-e * degree)
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (i, e)


class TestFidelityWarningAttribution:
    @pytest.mark.parametrize(
        "call",
        [
            lambda f, q: besov_norm(f, q.space),
            lambda f, q: triebel_norm(f, SpaceParams(0.5, 1.0, 2.0, "F")),
            lambda f, q: space_norm(f, q.space),
            lambda f, q: szasz_ratio(f, q),
            lambda f, q: realization_report(f, q, 2),
            lambda f, q: divergence_experiment("dilated_low", q, [1], grid=f.grid),
        ],
        ids=["besov_norm", "triebel_norm", "space_norm", "szasz_ratio", "realization_report",
             "divergence_experiment"],
    )
    def test_both_warnings_name_the_callers_line(self, call):
        f = dilated_witness(_STRAINED_GRID, WitnessSpec("dilated_low", 1, _STRAINED_QUERY))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ModelFidelityWarning)
            call(f, _STRAINED_QUERY)
        fidelity = [w for w in caught if issubclass(w.category, ModelFidelityWarning)]
        kinds = sorted("box boundary" in str(w.message) for w in fidelity)
        assert kinds == [False, True]  # one out-of-band, one boundary warning
        assert [w.filename for w in fidelity] == [__file__, __file__]


class TestStridedInput:
    @pytest.mark.parametrize("layout", ["transposed", "fortran"])
    @pytest.mark.parametrize("family,r", [("B", 1.5), ("B", 2.0), ("F", 1.5)])
    @pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
    def test_norm_of_a_strided_spectrum(self, layout, family, r):
        g = GridSpec(2, 64, 20.0)
        rng = np.random.default_rng(2)
        coeffs = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        strided = coeffs.T if layout == "transposed" else np.asfortranarray(coeffs)
        params = SpaceParams(0.2, r, 2.0, family)
        assert space_norm(Spectrum(g, strided), params) == space_norm(
            Spectrum(g, np.ascontiguousarray(strided)), params
        )


def _out_of_place_transforms(monkeypatch):
    """spaces' in-place transforms replaced by numpy's out-of-place ones, copied back where spaces' callers need it.

    grid's names are replaced by the same functions, so that the four-step
    still tells its inverse transform by identity.
    """

    def out_of_place(transform):
        def replaced(x, axes=None, norm=None):
            x[...] = transform(x, axes=axes, norm=norm)
            return x

        return replaced

    for name, transform in (("_ifftn", np.fft.ifftn), ("_fftn", np.fft.fftn)):
        replaced = out_of_place(transform)
        monkeypatch.setattr(spaces_module, name, replaced)
        monkeypatch.setattr(grid_module, name, replaced)


def _coset_source(n, N, spans):
    grid = GridSpec(n, N, 32.0)
    spec = _window_spectrum(grid, [-(span // 2) for span in spans], spans, seed=7)
    whole = [((slice(0, N),) * n, spec.coeffs)]
    return grid, spaces_module._Cosets(grid, whole, spaces_module._window(grid, whole))


class TestNumpyTransforms:
    # numpy's n-D transforms, in place, against the same transforms out of place: the same bits

    @pytest.mark.parametrize("n, N, spans", [(1, 2**18, (16,)), (2, 512, (32, 64))], ids=["1-D", "2-D"])
    def test_coset_tiles_are_out_of_place_numpys_bit_for_bit(self, monkeypatch, n, N, spans):
        grid, source = _coset_source(n, N, spans)
        assert source.tile == 2**16
        got = _natural_moduli(source, grid)
        _out_of_place_transforms(monkeypatch)
        assert got.tobytes() == _natural_moduli(source, grid).tobytes()

    @pytest.mark.parametrize("shape", [(2**18,), (256, 256)])
    def test_wide_rows_are_numpys_bit_for_bit_at_every_width(self, shape):
        # a 2-D row is numpy's transform, a long 1-D row the four-step kernel's on that row
        # alone, in coset order, whatever the rows beside it
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((3,) + shape) + 1j * rng.standard_normal((3,) + shape)
        axes = tuple(range(-len(shape), 0))
        if len(shape) == 1:
            want = stack.copy()
            for row in want:
                grid_module._four_step(grid_module._ifftn, row.reshape(-1, grid_module._STEP), 0)
        else:
            want = np.fft.ifftn(stack, axes=axes)
        for width in (1, 2, 3):
            rows = stack[:width].copy()
            assert spaces_module._inverse_rows(rows, axes, [False] * width) is rows
            assert rows.tobytes() == want[:width].tobytes()

    def test_even_rows_are_the_kernels_bit_for_bit_at_every_width(self):
        # long rows flagged even take the half-column kernel, the others the four-step, each
        # on its row alone, whatever the rows beside it
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((3, 2**18)) + 1j * rng.standard_normal((3, 2**18))
        stack += np.roll(stack[:, ::-1], 1, axis=1)
        flags, want = [True, False, True], stack.copy()
        for row, even in zip(want, flags):
            view = row.reshape(-1, grid_module._STEP)
            if even:
                grid_module._four_step_even(view)
            else:
                grid_module._four_step(grid_module._ifftn, view, 0)
        four_step = grid_module._four_step(grid_module._ifftn, stack[0].reshape(-1, grid_module._STEP).copy(), 0)
        assert want[0].tobytes() != four_step.tobytes()  # the two kernels differ in the last bits
        for width in (1, 2, 3):
            rows = stack[:width].copy()
            assert spaces_module._inverse_rows(rows, (-1,), flags[:width]) is rows
            assert rows.tobytes() == want[:width].tobytes()

    def test_only_mirrored_long_rows_take_the_even_kernel(self, monkeypatch):
        # an even wide piece on 2^18 points takes the kernel; the same piece one ulp off its
        # mirror, a forward_ft spectrum (even only to roundoff) and hi-band's size-16 modulated
        # boundary check of a bound-free copy, a 2^21-point row, take the four-step
        taken = []
        even, plain = grid_module._four_step_even, grid_module._four_step
        monkeypatch.setattr(spaces_module, "_four_step_even", lambda x: taken.append("even") or even(x))
        monkeypatch.setattr(spaces_module, "_four_step", lambda t, x, axis: taken.append("plain") or plain(t, x, axis))
        grid = GridSpec(1, 2**18, 32.0)
        spec = _even(_window_spectrum(grid, [-(2**16) + 4], [2**17 - 7], seed=6))
        nudged = spec.coeffs.copy()
        k = np.flatnonzero(nudged)[3]
        nudged[k] = np.nextafter(nudged[k].real, np.inf) + 1j * nudged[k].imag
        hi = GridSpec(1, 2**21, 16.0 * np.pi)
        query = SzaszQuery(SpaceParams(0.0, 2.0, 4.0, "B"), 4.0, 1)
        modulated = witnesses_module._modulated_spectrum(hi, WitnessSpec("modulated", 16, query))
        for coeffs, want in ((spec.coeffs, "even"), (nudged, "plain"), (forward_ft(inverse_ft(spec)).coeffs, "plain")):
            taken.clear()
            for _, source in spaces_module._synthesized(grid, ["f"], lambda _: [((slice(0, grid.N),), coeffs)]):
                assert source.cosets and source.mirrored is (want == "even")
            assert taken == [want]
        taken.clear()
        spaces_module._boundary_ratio(bound_free(modulated))
        assert taken == ["plain"]

    @pytest.mark.parametrize("N", [2**17, 2**20])
    def test_long_row_is_read_at_its_natural_positions(self, N):
        # a wide piece on a long 1-D grid is a row in coset order: its moduli, put back at
        # the positions ``at`` gives, are |ifft| / dx within 2.5 times numpy's own error
        grid = GridSpec(1, N, 2.0**12 * 2.0 * np.pi)
        rng = np.random.default_rng(9)
        coeffs = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        whole = [((slice(0, N),), coeffs)]
        for _, source in spaces_module._synthesized(grid, [0], lambda _: whole):  # valid until the next
            assert isinstance(source, spaces_module._Rows) and source.cosets
            got = _natural_moduli(source, grid)
        natural = np.fft.ifftshift(coeffs)
        exact = np.abs(np.fft.ifft(natural.astype(np.clongdouble))) / grid.dx
        numpys = np.abs(np.fft.ifft(natural)) / grid.dx
        assert np.abs(got - exact).max() <= 2.5 * np.abs(numpys - exact).max()

    @pytest.mark.parametrize(
        "n, N, params",
        [(1, 2**14, SpaceParams(0.0, 2.0, 4.0, "F")), (1, 2**14, SpaceParams(0.3, 1.5, 2.0, "F", "inhomogeneous")),
         (2, 512, SpaceParams(0.3, 1.5, 2.0, "F"))],
        ids=str,
    )
    def test_even_q_route_is_out_of_place_numpys_bit_for_bit(self, monkeypatch, n, N, params):
        spec = _borderline(GridSpec(n, N, 16.0 * np.pi), 3, params)
        got = _route(spec, params)
        _out_of_place_transforms(monkeypatch)
        assert got is not None and got == _route(spec, params)

    def test_tile_passes_on_threads_at_once(self, monkeypatch):
        # passes of three window lengths, each on W = 3 threads, three passes at a time:
        # numpy's plan cache is shared by every thread, and no tile's bits move
        sources = [_coset_source(1, 2**18, (span,))[1] for span in (16, 256, 4096)]

        def work(a, lo, hi, tmp):
            return hashlib.sha256(a.tobytes()).digest()

        _with_cpus(monkeypatch, 1)
        want = [spaces_module._chunk_pass(source, work) for source in sources]
        _with_cpus(monkeypatch, 3)

        def run(k):  # every source twice, starting at the k-th
            order = [(i + k) % len(sources) for i in range(2 * len(sources))]
            return [(j, spaces_module._chunk_pass(sources[j], work)) for j in order]

        with ThreadPoolExecutor(3) as pool:
            runs = list(pool.map(run, range(3)))
        assert all(result == want[j] for passes in runs for j, result in passes)
