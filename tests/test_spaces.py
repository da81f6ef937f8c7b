"""Quasi-norm values, invariances and the dyadic scaling law."""

import threading
import warnings
from functools import partial

import numpy as np
import pytest

import szaszlab.spaces as spaces_module
import szaszlab.witnesses as witnesses_module
from szaszlab import (
    Field,
    ModelFidelityWarning,
    ParameterError,
    SpaceParams,
    Spectrum,
    besov_norm,
    bump_lowpass_phi,
    dyadic_dilate,
    feasible_band,
    forward_ft,
    grid_translate,
    inverse_ft,
    lowpass_profile,
    lp_project,
    lr_quasinorm,
    radial_xi,
    space_norm,
    triebel_norm,
)

from szaszlab.grid import _unscale
from szaszlab.littlewood_paley import apply_level_mask
from szaszlab.witnesses import _blowup_spectrum, _random_spectrum

from conftest import plateau_field, wave_packet


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
        coeffs = np.zeros(grid_mid.shape, dtype=complex)
        coeffs[grid_mid.center + 1] = 1.0
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


class TestTriebelNorm:
    def test_zero_field(self, grid_mid):
        assert triebel_norm(Field(grid_mid, np.zeros(grid_mid.shape)), SpaceParams(0.3, 2, 2, "F")) == 0.0

    def test_equals_besov_when_q_is_r(self, grid_mid):
        f = Field(grid_mid, plateau_field(grid_mid, 3).values + 0.6 * plateau_field(grid_mid, 6).values)
        for s, r in [(0.0, 2.0), (0.8, 1.5), (-0.5, 3.0)]:
            b = besov_norm(f, SpaceParams(s, r, r, "B"))
            t = triebel_norm(f, SpaceParams(s, r, r, "F"))
            assert abs(t - b) < 1e-12 * b

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
    for q in (1.5, np.inf)
    for setting in ("homogeneous", "inhomogeneous")
]


def _with_cpus(monkeypatch, width):
    monkeypatch.setattr(spaces_module, "_usable_cpus", lambda: width)


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
        # width below leaves a partial last batch for one of the inputs;
        # a grid_wide row is four chunks, split unevenly over three threads
        spec = _random_spectrum(grid_mid, 5, 2, 8)
        wide = inverse_ft(_random_spectrum(grid_wide, 5, -6, 2))
        inputs = (spec, inverse_ft(spec), wide)
        got = {}
        for width in (1, 2, 3):
            _with_cpus(monkeypatch, width)
            monkeypatch.setattr(witnesses_module, "_TERM_NORMS", {})
            got[width] = [space_norm(x, params) for x in inputs] + [
                lr_quasinorm(wide, params.r),
                _blowup_spectrum(grid_wide, 3, 2.0, params.r).coeffs.tobytes(),
            ]
        assert got[1] == got[2] == got[3]

    @pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
    def test_no_thread_outlives_a_norm_call(self, monkeypatch, grid_wide):
        _with_cpus(monkeypatch, 3)
        spec = _random_spectrum(grid_wide, 5, -6, 2)
        before = threading.active_count()
        besov_norm(spec, SpaceParams(0.2, 1.5, 2.0, "B"))
        assert threading.active_count() == before
        triebel_norm(spec, SpaceParams(0.2, 1.5, 2.0, "F"))
        assert threading.active_count() == before

    def test_chunk_pass_raises_a_worker_error(self, monkeypatch):
        _with_cpus(monkeypatch, 2)

        def work(lo, hi, buf):
            if lo > 0:
                raise ValueError(f"chunk at {lo}")

        with pytest.raises(ValueError, match="chunk at"):
            spaces_module._chunk_pass(2 * spaces_module._CHUNK, work)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_one_nonempty_level_fills_one_row(self, monkeypatch, grid_mid, cpus):
        _with_cpus(monkeypatch, cpus)
        widths = []
        real = spaces_module.inverse_ft_rows

        def counting(grid, rows):
            widths.append(rows.shape[0])
            return real(grid, rows)

        monkeypatch.setattr(spaces_module, "inverse_ft_rows", counting)
        spec = _random_spectrum(grid_mid, 3, 5, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelFidelityWarning)
            besov_norm(spec, SpaceParams(0.0, 1.5, 2.0, "B"))
            triebel_norm(spec, SpaceParams(0.0, 1.5, 2.0, "F"))
        assert widths == [1, 1]

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

    @pytest.mark.parametrize("grid_name", ["grid_mid", "grid_2d"])
    def test_level_window_is_natural_order_of_centered_mask(self, monkeypatch, request, grid_name):
        # one row a batch: keep the row each piece hands to the inverse FFT
        _with_cpus(monkeypatch, 1)
        filled = []

        def keep(grid, rows):
            filled.append(rows[0].copy())
            return rows

        monkeypatch.setattr(spaces_module, "inverse_ft_rows", keep)
        grid = request.getfixturevalue(grid_name)
        spec = forward_ft(_broadband_field(grid))
        keys = list(feasible_band(grid).levels()) + [None]
        batches = spaces_module._synthesized(grid, keys, partial(spaces_module._piece, spec))
        assert [batch for batch, _ in batches] == [[j] for j in keys]
        for j, row in zip(keys, filled, strict=True):
            if j is None:
                centered = spec.coeffs * lowpass_profile(radial_xi(grid))
            else:
                centered = apply_level_mask(spec.coeffs, grid, j)
            assert np.array_equal(row, np.fft.ifftshift(centered))


class TestChunkedRowPass:
    # the numpy behaviour that keeps the chunked pass bit for bit the
    # whole-row formulas
    @pytest.mark.parametrize("shape", [(2**10,), (2**16,), (2**20,), (64, 64), (256, 256), (1024, 512)])
    def test_tree_of_chunk_sums_is_numpy_sum(self, shape):
        a = np.random.default_rng(7).random(shape) ** 7 * 1e3
        flat = a.reshape(-1)
        chunk = spaces_module._CHUNK
        parts = [float(np.sum(flat[lo : lo + chunk])) for lo in range(0, flat.size, chunk)]
        assert spaces_module._tree_sum(parts) == float(np.sum(a))

    @pytest.mark.parametrize("grid_name", ["grid_mid", "grid_wide", "grid_2d"])
    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-310])
    def test_unscale_is_complex_division(self, request, grid_name, scale):
        grid = request.getfixturevalue(grid_name)
        rng = np.random.default_rng(3)
        v = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) * scale
        got = v.copy()
        _unscale(got, grid)
        assert got.tobytes() == (v / grid.dx**grid.n).tobytes()


class TestOverflowSafePowerSums:
    @pytest.mark.parametrize("a,want", [([0.5, 3.0, 2.0], 3.0), ([], 0.0)])
    def test_power_sum_at_infinity_is_the_maximum(self, a, want):
        assert spaces_module._power_sum(np.asarray(a), np.inf, 7.0) == want

    @pytest.mark.parametrize("peak", [1e3, 1e-3])
    def test_lr_at_large_r(self, grid_mid, peak):
        x = grid_mid.x_axis()
        unit = lr_quasinorm(Field(grid_mid, np.exp(-(x**2) / 2)), 200.0)
        got = lr_quasinorm(Field(grid_mid, peak * np.exp(-(x**2) / 2)), 200.0)
        assert got == pytest.approx(peak * unit, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("peak", [1e3, 1e-3])
    @pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
    def test_besov_at_large_r_on_chunked_rows(self, monkeypatch, grid_wide, peak):
        # four chunks per row on two threads; |piece|^200 over- or underflows
        _with_cpus(monkeypatch, 2)
        spec = _random_spectrum(grid_wide, 2, -6, 2)
        params = SpaceParams(0.3, 200.0, 2.0, "B")
        unit = besov_norm(spec, params)
        got = besov_norm(Spectrum(grid_wide, spec.coeffs * peak), params)
        assert got == pytest.approx(peak * unit, rel=1e-12, abs=0.0)

    def test_besov_at_large_q(self, grid_mid):
        # phi's pieces are roundoff-sized; their 400th powers underflow
        phi = bump_lowpass_phi(grid_mid)
        sup = besov_norm(phi, SpaceParams(0.0, 2.0, np.inf))
        got = besov_norm(phi, SpaceParams(0.0, 2.0, 400.0))
        assert sup > 0.0
        assert sup <= got <= 10.0 ** (1.0 / 400.0) * sup

    @pytest.mark.parametrize("scale", [1e100, 1e-100])
    @pytest.mark.parametrize("q", [4.0, 400.0])
    def test_triebel_is_homogeneous_far_from_unit_scale(self, grid_mid, scale, q):
        spec = _random_spectrum(grid_mid, 1, 2, 8)
        params = SpaceParams(0.3, 1.5, q, "F")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelFidelityWarning)
            unit = triebel_norm(spec, params)
            sup = triebel_norm(spec, SpaceParams(0.3, 1.5, np.inf, "F"))
            got = triebel_norm(Spectrum(grid_mid, spec.coeffs * scale), params)
        # pointwise, l_q of 10 levels lies between l_inf and 10^(1/q) l_inf
        assert sup <= unit * (1 + 1e-12) and unit <= 10.0 ** (1.0 / q) * sup
        assert got == pytest.approx(scale * unit, rel=1e-12, abs=0.0)
