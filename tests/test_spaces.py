"""Quasi-norm values, invariances and the dyadic scaling law."""

import numpy as np
import pytest

from szaszlab import (
    Field,
    ModelFidelityWarning,
    ParameterError,
    SpaceParams,
    Spectrum,
    besov_norm,
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
