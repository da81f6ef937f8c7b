"""Transform fidelity, dilations and translations against closed-form oracles."""

import tracemalloc

import numpy as np
import pytest

from szaszlab import (
    BandError,
    Field,
    GridSpec,
    ParameterError,
    SpaceParams,
    Spectrum,
    besov_norm,
    boundary_decay_ratio,
    dyadic_dilate,
    forward_ft,
    grid_translate,
    inverse_ft,
    lp_project,
    radial_xi,
    random_bandlimited,
    triebel_norm,
)
import szaszlab.grid as grid_module
from szaszlab.realization import sigma0_partial
from szaszlab.grid import BOUNDARY_MARGIN
from szaszlab.witnesses import GRID_PRESETS, _random_spectrum

from conftest import wave_packet


class TestGridSpec:
    def test_derived_quantities(self, grid_1d):
        assert grid_1d.dx == pytest.approx(64.0 / 4096)
        assert grid_1d.dxi == pytest.approx(2 * np.pi / 64.0)
        assert grid_1d.xi_max == pytest.approx(np.pi * 4096 / 64.0)
        assert grid_1d.dx > 0 and grid_1d.dxi > 0 and grid_1d.xi_max > 0

    @pytest.mark.parametrize(
        "n,N,L", [(3, 64, 1.0), (1, 100, 1.0), (1, 8, 1.0), (1, 64, -2.0), (1, 64, 0.0)]
    )
    def test_rejects_bad_specs(self, n, N, L):
        with pytest.raises(ParameterError):
            GridSpec(n, N, L)

    @pytest.mark.parametrize(
        "n,N",
        [(1, 16.5), (1.5, 16), (1, "16"), ("1", 16), (1, None)],
        ids=["N=16.5", "n=1.5", "N='16'", "n='1'", "N=None"],
    )
    def test_dimension_and_size_must_be_integers(self, n, N):
        with pytest.raises(ParameterError, match="must be an integer"):
            GridSpec(n, N, 1.0)

    @pytest.mark.parametrize(
        "N, match",
        [(-(10**5000), "N must be an integer >= 0"), (10**5000, "power of two")],
        ids=["-10^5000", "10^5000"],
    )
    def test_huge_size_gets_its_digit_count(self, N, match):
        # an integer of more than 4300 digits cannot be converted to a string
        with pytest.raises(ParameterError, match=f"{match}.*, got an integer of 5001 digits$"):
            GridSpec(1, N, 1.0)

    def test_integral_floats_give_the_integer_grid(self):
        assert GridSpec(1.0, 16.0, 1.0) == GridSpec(1, 16, 1.0)
        assert GridSpec(2.0, 16.0, 1.0).shape == (16, 16)

    def test_field_shape_checked(self, grid_1d):
        with pytest.raises(ParameterError):
            Field(grid_1d, np.zeros(7))
        with pytest.raises(ParameterError):
            Spectrum(grid_1d, np.zeros((4096, 2)))


class TestForwardFT:
    def test_zero_field(self, grid_1d):
        s = forward_ft(Field(grid_1d, np.zeros(4096)))
        assert np.all(s.coeffs == 0)

    def test_gaussian_closed_form(self, grid_1d):
        x = grid_1d.x_axis()
        s = forward_ft(Field(grid_1d, np.exp(-(x**2) / 2)))
        xi = grid_1d.xi_axis()
        exact = np.sqrt(2 * np.pi) * np.exp(-(xi**2) / 2)
        assert np.max(np.abs(s.coeffs - exact)) < 1e-8

    def test_round_trip(self, grid_1d):
        rng = np.random.default_rng(0)
        f = Field(grid_1d, rng.standard_normal(4096) + 1j * rng.standard_normal(4096))
        back = inverse_ft(forward_ft(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-10 * np.max(np.abs(f.values))

    def test_linearity(self, grid_1d):
        rng = np.random.default_rng(1)
        f = Field(grid_1d, rng.standard_normal(4096))
        g = Field(grid_1d, rng.standard_normal(4096))
        lhs = forward_ft(Field(grid_1d, 2.5 * f.values - 1j * g.values)).coeffs
        rhs = 2.5 * forward_ft(f).coeffs - 1j * forward_ft(g).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_round_trip_2d(self, grid_2d):
        rng = np.random.default_rng(2)
        f = Field(grid_2d, rng.standard_normal(grid_2d.shape))
        back = inverse_ft(forward_ft(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    @pytest.mark.parametrize(
        "profile, call",
        [
            ("random", lambda f: forward_ft(f).coeffs),
            ("random", lambda f: lp_project(f, 3).values),
            ("random", lambda f: sigma0_partial(f, 3).values),
            ("gaussian", lambda f: forward_ft(f).coeffs),
            ("gaussian", lambda f: dyadic_dilate(f, 1).values),
        ],
        ids=["forward_ft", "lp_project", "sigma0_partial", "forward_ft_gaussian", "dyadic_dilate"],
    )
    def test_finite_samples_whose_transform_overflows_raise(self, grid_mid, profile, call):
        # the unscaled DFT of samples near 1e306 leaves the float range
        if profile == "random":
            values = random_bandlimited(grid_mid, 1, 2, 4).values
        else:
            values = np.exp(-((grid_mid.x_axis() / 2) ** 2)).astype(complex)
        assert np.isfinite(call(Field(grid_mid, 1e305 * values))).all()
        for scale in (1e306, 1e307):
            with pytest.raises(ArithmeticError, match="float range: a transform or sum of finite samples"):
                call(Field(grid_mid, scale * values))

    def test_non_finite_samples_transform_as_they_are(self, grid_mid):
        values = np.zeros(grid_mid.shape, dtype=complex)
        values[5] = np.nan
        assert np.isnan(forward_ft(Field(grid_mid, values)).coeffs).all()


class TestInverseFT:
    def test_zero_spectrum(self, grid_1d):
        f = inverse_ft(Spectrum(grid_1d, np.zeros(4096)))
        assert np.all(f.values == 0)

    def test_single_bin_matches_direct_sum(self):
        # oracle: evaluate the inverse transform by explicit summation
        g = GridSpec(1, 16, 4.0)
        k = 3  # center-relative bin
        coeffs = np.zeros(16, dtype=complex)
        coeffs[g.center + k] = 1.0
        f = inverse_ft(Spectrum(g, coeffs))
        x = g.x_axis()
        xi = g.xi_axis()
        direct = np.zeros(16, dtype=complex)
        for i in range(16):
            direct[i] = np.sum(coeffs * np.exp(1j * x[i] * xi)) * g.dxi / (2 * np.pi)
        assert np.max(np.abs(f.values - direct)) < 1e-14
        assert np.max(np.abs(np.abs(f.values) - np.abs(f.values[0]))) < 1e-14

    def test_plane_wave_constant_modulus(self, grid_1d):
        coeffs = np.zeros(4096, dtype=complex)
        coeffs[grid_1d.center + 100] = 2.0
        f = inverse_ft(Spectrum(grid_1d, coeffs))
        mods = np.abs(f.values)
        assert np.max(mods) - np.min(mods) < 1e-12 * np.max(mods)

    @pytest.mark.parametrize("shape", [(16,), (2**18,), (2**20,), (2**21,), (16, 16), (512, 512), (1024, 1024)])
    def test_is_the_shifted_transform_bit_for_bit(self, shape):
        # both directions: the copy, the two checkerboard sign flips, the transform and the
        # scaling, against the shifts of the definition; the transform is numpy's n-D one,
        # or the four-step kernel on a 1-D grid of more than one tile
        grid = GridSpec(len(shape), shape[0], 10.0)
        rng = np.random.default_rng(0)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kept = a.copy()
        want = np.fft.fftshift(_plain(grid_module._ifftn, np.fft.ifftshift(a))) / grid.dx**grid.n
        assert inverse_ft(Spectrum(grid, a)).values.tobytes() == want.tobytes()
        want = np.fft.fftshift(_plain(grid_module._fftn, np.fft.ifftshift(a))) * grid.dx**grid.n
        assert forward_ft(Field(grid, a)).coeffs.tobytes() == want.tobytes()
        assert a.tobytes() == kept.tobytes()  # neither transform writes its input

    @pytest.mark.parametrize("shape", [(16,), (2**18,), (16, 16), (512, 512)])
    @pytest.mark.parametrize("kind", ["zero", "sparse", "subnormal", "real"])
    def test_is_the_shifted_transform_value_for_value(self, shape, kind):
        # exact zeros and subnormals: a sign flip may change the sign of a zero,
        # so the values are equal, not the bytes
        grid = GridSpec(len(shape), shape[0], 10.0)
        rng = np.random.default_rng(1)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a = {
            "zero": np.zeros(shape, dtype=complex),
            "sparse": a * (rng.random(shape) < 0.01),
            "subnormal": a * 1e-310,
            "real": a.real + 0j,
        }[kind]
        want = np.fft.fftshift(_plain(grid_module._ifftn, np.fft.ifftshift(a))) / grid.dx**grid.n
        assert np.array_equal(inverse_ft(Spectrum(grid, a)).values, want)
        want = np.fft.fftshift(_plain(grid_module._fftn, np.fft.ifftshift(a))) * grid.dx**grid.n
        assert np.array_equal(forward_ft(Field(grid, a)).coeffs, want)

    @pytest.mark.parametrize("grid_name, levels", [("grid_mid", (8, 9)), ("grid_wide", (3, 4))])
    @pytest.mark.parametrize("e", [1017, 1020])
    def test_samples_whose_transform_sums_would_overflow_stay_finite(self, request, grid_name, levels, e):
        # a band's two top levels times 2^e: samples up to about 5e307 are in range, while the
        # unnormalized sums of N coefficients are not; the copy is transformed scaled by a power
        # of two, on one tile and through the four-step
        grid = request.getfixturevalue(grid_name)
        spec = _random_spectrum(grid, 1, *levels)
        want = inverse_ft(spec).values * 2.0**e
        got = inverse_ft(Spectrum(grid, spec.coeffs * 2.0**e)).values
        assert np.isfinite(want).all() and np.isfinite(got).all()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_finite_spectrum_whose_samples_leave_the_range_raises(self, grid_mid):
        spec = _random_spectrum(grid_mid, 1, 8, 9)
        big = Spectrum(grid_mid, spec.coeffs * 2.0**1023)
        assert np.isfinite(big.coeffs).all()
        with pytest.raises(ArithmeticError, match="float range: a transform or sum of finite coefficients"):
            inverse_ft(big)


def _plain(transform, a):
    """The unshifted transform ``grid._centered`` runs on ``a``, out of place, in natural order.

    numpy's n-D one, or on a long 1-D ``a`` the four-step kernel run on a
    (P, S) view of a plain copy, as on a wide row, whose coset order
    (sample P a + b at index b S + a) is then read back in natural order.
    """
    if not grid_module._is_long(a):
        return {grid_module._ifftn: np.fft.ifftn, grid_module._fftn: np.fft.fftn}[transform](a)
    v = a.reshape(-1, grid_module._STEP).copy()
    grid_module._four_step(transform, v, 0)
    return v.T.reshape(-1)


class TestFourStep:
    # the long 1-D transform against numpy's on the long-double copy of its input

    @pytest.mark.parametrize("N", [2**17, 2**20, 2**21])
    @pytest.mark.parametrize("kind", ["random", "sparse", "real", "subnormal"])
    def test_error_is_within_numpys(self, N, kind):
        # the largest error is at most 2.5 times numpy's own double-precision transform's
        rng = np.random.default_rng(2)
        a = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        a = {"random": a, "sparse": a * (rng.random(N) < 0.01), "real": a.real + 0j, "subnormal": a * 1e-310}[kind]
        for mine, numpys in ((grid_module._ifftn, np.fft.ifft), (grid_module._fftn, np.fft.fft)):
            exact = numpys(a.astype(np.clongdouble))
            assert np.abs(_plain(mine, a) - exact).max() <= 2.5 * np.abs(numpys(a) - exact).max()

    @pytest.mark.parametrize("N", [2**17, 2**20, 2**21])
    @pytest.mark.parametrize("kind", ["random", "sparse", "real"])
    def test_even_kernel_is_the_four_step_on_even_rows(self, N, kind):
        # a row even in natural order, c(-k mod N) = c(k): the kernel that transforms half the
        # columns gives the four-step's coset-order row within 1e-15 of its peak, and the
        # coset rows b and P - b (b != 0, P/2) the same moduli bit for bit, reversed
        rng = np.random.default_rng(3)
        a = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        a = {"random": a, "sparse": a * (rng.random(N) < 0.01), "real": a.real + 0j}[kind]
        a += np.roll(a[::-1], 1)
        assert np.array_equal(a[1:], a[:0:-1])
        want = grid_module._four_step(grid_module._ifftn, a.reshape(-1, grid_module._STEP).copy(), 0)
        got = grid_module._four_step_even(a.reshape(-1, grid_module._STEP).copy())
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        P, moduli = N // grid_module._STEP, np.abs(got)
        assert moduli[1 : P // 2].tobytes() == moduli[P - 1 : P // 2 : -1, ::-1].tobytes()

    def test_negative_exponents_give_the_conjugate_roots(self):
        # the forward kernel's twiddles are the inverse's conjugates, not roots of angles near 2 pi
        x = np.ones((2**14, grid_module._STEP), dtype=np.complex128)
        y = x.copy()
        grid_module._rotate(x, 0, 2**20, np.arange(grid_module._STEP))
        grid_module._rotate(y, 0, 2**20, -np.arange(grid_module._STEP))
        assert np.array_equal(y, np.conj(x))  # by value: conj(1 + 0j) is 1 - 0j

    @pytest.mark.parametrize("transform", ["_ifftn", "_fftn"])
    def test_zero_gives_exact_zeros(self, transform):
        a = np.zeros(2**17, dtype=np.complex128)
        assert not _plain(getattr(grid_module, transform), a).any()

    def test_transforms_the_copy_transposed_in_one_array(self):
        # inverse_ft of a 2^20-point spectrum holds one new array of 16 MB at its peak
        grid = GridSpec(1, 2**20, 10.0)
        spec = Spectrum(grid, np.random.default_rng(4).standard_normal(grid.N) + 0j)
        tracemalloc.start()
        try:
            f = inverse_ft(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.values.flags.c_contiguous and 16 * grid.N <= peak < 17 * grid.N


class TestOneCodePathPerDimension:
    @pytest.mark.parametrize("preset", sorted(GRID_PRESETS))
    def test_radial_xi_is_the_modulus_in_1d(self, preset):
        # the root of a rounded square is exact
        grid = GRID_PRESETS[preset]
        assert radial_xi(grid).tobytes() == np.abs(grid.xi_axis()).tobytes()

    @pytest.mark.parametrize("N, L", [(256, 32.0), (512, 56.0), (512, 64.0 * np.pi)])
    def test_radial_xi_is_the_root_of_the_summed_squares_in_2d(self, N, L):
        grid = GridSpec(2, N, L)
        x = grid.xi_axis()
        assert radial_xi(grid).tobytes() == np.sqrt(x[:, None] ** 2 + x[None, :] ** 2).tobytes()

    def test_union_is_the_mask_itself_in_1d(self):
        mask = np.arange(16) % 3 == 0
        assert grid_module._union(mask, 1) is mask
        assert np.array_equal(grid_module._union(mask, 2), mask[:, None] | mask[None, :])

    def test_stride_read_off_the_grid_is_exactly_zero_in_2d(self):
        # a point whose source leaves the grid along some axis reads the Nyquist row or
        # column and is then set to 0, not multiplied by it: an inf there gives 0, not nan
        g = GridSpec(2, 16, 8.0)
        rng = np.random.default_rng(3)
        a = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        a[0, :] = a[:, 0] = np.inf
        k = 2 * (np.arange(g.N) - g.center)
        inside = np.abs(k) < g.N // 2
        want = np.zeros(g.shape, dtype=complex)
        want[np.ix_(inside, inside)] = a[np.ix_(k[inside] + g.center, k[inside] + g.center)]
        _assert_same_bits(grid_module._stride_read(a, g, 2), want)


class TestMemoryLayout:
    @pytest.mark.parametrize("layout", ["transposed", "fortran"])
    def test_fields_and_spectra_are_c_contiguous(self, layout):
        # the in-place scaling views the samples as float pairs, which needs C order
        g = GridSpec(2, 64, 20.0)
        rng = np.random.default_rng(1)
        a = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        strided = a.T if layout == "transposed" else np.asfortranarray(a)
        c = np.ascontiguousarray(strided)
        assert Field(g, strided).values.flags.c_contiguous
        assert Spectrum(g, strided).coeffs.flags.c_contiguous
        assert inverse_ft(Spectrum(g, strided)).values.tobytes() == inverse_ft(Spectrum(g, c)).values.tobytes()
        assert forward_ft(Field(g, strided)).coeffs.tobytes() == forward_ft(Field(g, c)).coeffs.tobytes()

    def test_c_ordered_complex_input_is_not_copied(self, grid_2d):
        a = np.zeros(grid_2d.shape, dtype=np.complex128)
        assert Field(grid_2d, a).values is a and Spectrum(grid_2d, a).coeffs is a


@pytest.fixture
def transforms(monkeypatch):
    """The names of the ``numpy.fft`` n-D transforms called, in order."""
    calls = []
    for name in ("fftn", "ifftn"):
        def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


class TestDyadicDilate:
    def test_identity(self, grid_1d):
        x = grid_1d.x_axis()
        f = Field(grid_1d, np.exp(-(x**2) / 2))
        d = dyadic_dilate(f, 0)
        assert np.array_equal(d.values, f.values)
        assert d.values is not f.values

    def test_gaussian_stretch(self, grid_1d):
        x = grid_1d.x_axis()
        f = Field(grid_1d, np.exp(-(x**2) / 2))
        d = dyadic_dilate(f, 1)
        assert np.max(np.abs(d.values - np.exp(-(x**2) / 8))) < 1e-8

    def test_gaussian_shrink(self, grid_1d):
        x = grid_1d.x_axis()
        f = Field(grid_1d, np.exp(-(x**2) / 2))
        d = dyadic_dilate(f, -1)
        assert np.max(np.abs(d.values - np.exp(-2 * x**2))) < 1e-8

    def test_spectrum_scaling_relation(self, grid_1d):
        x = grid_1d.x_axis()
        xi = grid_1d.xi_axis()
        f = Field(grid_1d, np.exp(-(x**2) / 2))
        s = forward_ft(dyadic_dilate(f, 1))
        expected = 2.0 * np.sqrt(2 * np.pi) * np.exp(-((2 * xi) ** 2) / 2)
        assert np.max(np.abs(s.coeffs - expected)) < 1e-8

    def test_two_dimensional(self, grid_2d):
        X, Y = np.meshgrid(grid_2d.x_axis(), grid_2d.x_axis(), indexing="ij")
        f = Field(grid_2d, np.exp(-(X**2 + Y**2) / 2))
        d = dyadic_dilate(f, 1)
        assert np.max(np.abs(d.values - np.exp(-(X**2 + Y**2) / 8))) < 1e-8

    @pytest.mark.parametrize("m", [1, 2])
    def test_two_dimensional_anisotropic(self, m):
        # the axes stretch to different widths, so a swapped axis shows
        g = GridSpec(2, 512, 128.0)
        X, Y = np.meshgrid(g.x_axis(), g.x_axis(), indexing="ij")
        f = Field(g, np.exp(-(X**2 / 2 + Y**2 / 8)))
        d = dyadic_dilate(f, m)
        want = np.exp(-((X / 2**m) ** 2 / 2 + (Y / 2**m) ** 2 / 8))
        assert np.max(np.abs(d.values - want)) < 1e-8

    def test_support_escape_raises(self, grid_1d):
        x = grid_1d.x_axis()
        f = Field(grid_1d, np.exp(-(x**2) / 50.0))  # wide: fills a quarter box
        with pytest.raises(BandError, match="dilation escapes grid"):
            dyadic_dilate(f, 3)

    def test_band_escape_raises(self, grid_1d):
        f = wave_packet(grid_1d, 40.0, 4.0)  # spectrum near xi = 40
        with pytest.raises(BandError, match="dilation escapes grid"):
            dyadic_dilate(f, -3)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_band_escape_raises_2d(self, grid_2d, axis):
        # spectrum near xi = 10 along one axis; m = -2 keeps |xi| < xi_max / 4
        f = wave_packet(grid_2d, 10.0, 2.0)
        f = Field(grid_2d, f.values if axis == 0 else f.values.T)
        msg = r"dilation escapes grid: spectrum at \S+ of peak beyond \|xi\| = xi_max / 2\^2$"
        with pytest.raises(BandError, match=msg):
            dyadic_dilate(f, -2)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_support_escape_raises_2d(self, grid_2d, axis):
        # a bump at x = 8 along one axis; m = 2 keeps |x| < 0.95 L / 8 = 3.8
        x = grid_2d.x_axis()
        bump = np.exp(-((x[:, None] - 8.0) ** 2) - x[None, :] ** 2)
        f = Field(grid_2d, bump if axis == 0 else bump.T)
        msg = r"dilation escapes grid: field at \S+ of peak outside \|x\| = 0\.95 L / 2\^3$"
        with pytest.raises(BandError, match=msg):
            dyadic_dilate(f, 2)

    @pytest.mark.parametrize(
        "m,msg", [(m, "holds no sample but x = 0") for m in (3, 12, 30, 63)] + [(10**20, "escapes grid: field at")]
    )
    def test_box_holding_only_the_origin_raises_before_any_transform(self, transforms, m, msg):
        # on 16 points 0.95 L / 2^(m+1) <= dx from m = 3 on: a spike at x = 0
        # passes the headroom check, but a box holding x = 0 alone cannot
        # represent the field; at m = 10^20 the box holds no sample at all
        g = GridSpec(1, 16, 1.0)
        f = Field(g, np.eye(16)[g.center])
        with pytest.raises(BandError, match=msg):
            dyadic_dilate(f, m)
        assert transforms == []

    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_field_dilates_to_zero_with_no_transform(self, transforms, n):
        g = GridSpec(n, 16, 1.0)
        d = dyadic_dilate(Field(g, np.zeros(g.shape)), 12)
        assert not d.values.any() and d.values.shape == g.shape
        assert transforms == []

    @pytest.mark.parametrize("m", [-4, -63, -64, -100, -(10**20)])
    def test_zoom_past_the_grid_decided_without_the_power(self, transforms, m):
        # on 16 points 2^-m >= N from m = -4 on: only the zero field stays on the grid
        g = GridSpec(1, 16, 1.0)
        d = dyadic_dilate(Field(g, np.zeros(16)), m)
        assert not d.values.any() and d.values.shape == g.shape
        with pytest.raises(BandError, match="dilation escapes grid: 2\\^-m >= N"):
            dyadic_dilate(Field(g, np.eye(16)[g.center]), m)
        assert transforms == []

    @pytest.mark.parametrize("n", [1, 2])
    def test_largest_zoom_on_the_grid_is_unchanged(self, n):
        # 2^-m = N / 2: only the k = 0 bin stays below Nyquist, and x = 0 alone is read
        g = GridSpec(n, 16, 1.0)
        d = dyadic_dilate(Field(g, np.full(g.shape, 2.0)), -3)
        want = np.zeros(g.shape)
        want[(g.center,) * n] = 2.0
        assert np.array_equal(d.values, want)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_resolvable_m_costs_one_forward_and_one_inverse_transform(self, transforms, m):
        # on 256 points the box |x| < 0.95 L / 2^6 still holds x = 0, +-dx, ...
        g = GridSpec(1, 256, 1.0)
        d = dyadic_dilate(Field(g, np.eye(256)[g.center]), m)
        assert transforms == ["fftn", "ifftn"]
        assert np.abs(d.values).max() > 0

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_spectrum_is_the_stride_read_on_the_grid(self, n, m):
        # a generic compact field: random samples on a few points around x = 0
        g = GridSpec(n, 64, 8.0)
        rng = np.random.default_rng(17 + 3 * n + m)
        values = np.zeros(g.shape, dtype=complex)
        near = (slice(g.center - 3, g.center + 4),) * n
        values[near] = rng.standard_normal(values[near].shape) + 1j * rng.standard_normal(values[near].shape)
        f = Field(g, values)
        got = forward_ft(dyadic_dilate(f, m)).coeffs
        # bin k reads f's bin 2^m k, 0 where that leaves the grid or is the Nyquist bin -N/2
        k = 2**m * (np.arange(g.N) - g.center)
        inside = np.abs(k) < g.N // 2
        src = np.where(inside, k + g.center, 0)
        keep = inside if n == 1 else inside[:, None] & inside[None, :]
        want = np.where(keep, forward_ft(f).coeffs[np.ix_(*[src] * n)], 0.0) * 2.0 ** (m * n)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_real_field_dilates_to_a_real_field(self, n, m):
        # a spike's spectrum fills every bin, the Nyquist bin -N/2 too; it is
        # dropped, so the bins +-N/2^(m+1) of the dilation both read 0
        g = GridSpec(n, 64, 8.0)
        spike = np.zeros(g.shape)
        spike[(g.center,) * n] = 1.0
        d = dyadic_dilate(Field(g, spike), m)
        assert np.max(np.abs(d.values.imag)) <= 1e-15 * np.max(np.abs(d.values.real))
        edge = g.N // 2 ** (m + 1)
        coeffs = forward_ft(d).coeffs
        row = coeffs if n == 1 else coeffs[g.center]
        peak = np.max(np.abs(row))
        assert abs(row[g.center - edge]) <= 1e-15 * peak and abs(row[g.center + edge]) <= 1e-15 * peak
        assert abs(row[g.center + edge - 1]) == pytest.approx(peak, rel=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("m", [-1, 0, 1])
    @pytest.mark.parametrize("n", [1, 2])
    def test_non_finite_samples_raise_before_any_transform(self, transforms, n, m, bad):
        # the headroom check's comparisons with a nan are false, so a nan outside
        # the shrunk box would pass it, and an inf at the corner is read by the
        # m = -1 stride: the samples are checked first
        g = GridSpec(n, 64, 20.0)
        values = wave_packet(g, 0.0, 1.0).values.copy()
        values[(0,) * n] = bad
        with pytest.raises(ParameterError, match=f"non-finite input: 1 of {g.N**n} samples are nan or inf"):
            dyadic_dilate(Field(g, values), m)
        assert transforms == []

    @pytest.mark.parametrize("m", [1.5, -0.5, "1", None])
    def test_m_must_be_an_integer(self, grid_1d, m):
        x = grid_1d.x_axis()
        f = Field(grid_1d, np.exp(-(x**2) / 2))
        with pytest.raises(ParameterError, match="m must be an integer"):
            dyadic_dilate(f, m)


class TestOneFFTBinding:
    def test_space_norms_transform_through_the_grid_binding(self, transforms, grid_wide):
        # levels -9..3 of grid_wide are narrow, read coset by coset over several tiles, and
        # level 4 is wide, one row of the stack of wide rows; the F-norm at q = 2 adds the
        # even-q route's small-grid ifftn/fftn pairs: no transform bypasses numpy's n-D ones
        spec = _random_spectrum(grid_wide, 4, -9, 4)
        besov_norm(spec, SpaceParams(0.2, 1.5, 2.0, "B"))
        assert set(transforms) == {"ifftn"}
        transforms.clear()
        triebel_norm(spec, SpaceParams(0.2, 1.5, 2.0, "F"))
        assert set(transforms) == {"ifftn", "fftn"}

    @pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
    @pytest.mark.parametrize(
        "shape, axes",
        [((16,), None), ((2**18,), None), ((16, 16), None), ((64, 32), None), ((512, 512), None),
         ((3, 256), (1,)), ((3, 64, 32), (1, 2)), ((2, 64, 64), (-2, -1)), ((4, 8, 16, 16), (2, 3))],
    )
    @pytest.mark.parametrize("norm", [None, "forward"])
    @pytest.mark.parametrize("magnitude", [1.0, 1e-310])
    def test_n_dimensional_transforms_are_numpys_in_place(self, dtype, shape, axes, norm, magnitude):
        # the values and the signs of zeros, subnormal ones included, with no floating-point
        # warning; complex values are compared by value, since a long double's padding
        # bytes are undefined
        rng = np.random.default_rng(3)
        a = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * magnitude).astype(dtype)
        for mine, reference in ((grid_module._ifftn, np.fft.ifftn), (grid_module._fftn, np.fft.fftn)):
            x = a.copy()
            with np.errstate(all="raise"):  # a floating-point warning would raise
                got = mine(x, axes, norm)
            assert got is x  # in place
            with np.errstate(all="ignore"):
                want = reference(a, axes=axes, norm=norm)
            _assert_same_bits(got, want)

    @pytest.mark.parametrize(
        "shape", [(1,), (2,), (16,), (1024,), (1, 1), (2, 1), (16, 1), (1, 16), (2, 2), (4, 2), (16, 32), (256, 256)]
    )
    def test_real_input_transform_keeps_long_double_precision(self, shape):
        # the even-q route's |.|^q, transformed as a complex long double, against the DFT by
        # matrices in long double, inside the Higham-type bound its certificate charges;
        # a transform in double would miss the bound by about eps(double) / eps(long double)
        rng = np.random.default_rng(4)
        eps = np.finfo(np.longdouble).eps
        for _ in range(3):
            a = np.abs(rng.standard_normal(shape)).astype(np.longdouble) ** 4
            got = grid_module._fftn(a.astype(np.clongdouble), norm="forward")
            want = a.astype(np.clongdouble)
            for axis, m in enumerate(shape):
                want = np.moveaxis(np.moveaxis(want, axis, -1) @ _dft_matrix(m), -1, axis)
            want /= a.size
            bound = (7 * np.log2(a.size) + 20) * eps * np.sum(a) / a.size
            assert got.dtype == np.clongdouble and np.max(np.abs(got - want)) <= bound


def _dft_matrix(m):
    """The m x m forward DFT matrix in long double, exp(-2 pi i j k / m), its angles reduced mod m."""
    jk = np.outer(np.arange(m), np.arange(m)) % m
    angle = -8 * np.arctan(np.longdouble(1)) * jk.astype(np.longdouble) / m
    return np.cos(angle) + 1j * np.sin(angle)


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    for part in ("real", "imag"):
        g, w = getattr(got, part), getattr(want, part)
        assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))


class TestGridTranslate:
    def test_identity_and_full_period(self, grid_1d):
        rng = np.random.default_rng(3)
        f = Field(grid_1d, rng.standard_normal(4096))
        assert np.array_equal(grid_translate(f, 0.0).values, f.values)
        assert np.array_equal(grid_translate(f, grid_1d.L).values, f.values)

    def test_shift_moves_samples(self, grid_1d):
        rng = np.random.default_rng(4)
        f = Field(grid_1d, rng.standard_normal(4096))
        t = grid_translate(f, 5 * grid_1d.dx)
        assert np.array_equal(t.values, np.roll(f.values, 5))

    def test_modulus_of_spectrum_preserved(self, grid_1d):
        rng = np.random.default_rng(5)
        f = Field(grid_1d, rng.standard_normal(4096) + 1j * rng.standard_normal(4096))
        t = grid_translate(f, 17 * grid_1d.dx)
        a = np.abs(forward_ft(t).coeffs)
        b = np.abs(forward_ft(f).coeffs)
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(b)

    def test_non_grid_shift_raises(self, grid_1d):
        f = Field(grid_1d, np.zeros(4096))
        with pytest.raises(BandError, match="non-grid shift"):
            grid_translate(f, 0.3 * grid_1d.dx)

    @pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf, 1e308, (0.0, np.nan), "abc", [1j]])
    def test_non_finite_offset_raises(self, grid_1d, grid_2d, offset):
        g = grid_1d if np.ndim(offset) == 0 else grid_2d
        f = Field(g, np.zeros(g.shape))
        with pytest.raises(ParameterError, match="offset must be a finite number of grid steps"):
            grid_translate(f, offset)

    def test_two_dimensional_shift(self, grid_2d):
        rng = np.random.default_rng(6)
        f = Field(grid_2d, rng.standard_normal(grid_2d.shape))
        t = grid_translate(f, (3 * grid_2d.dx, -2 * grid_2d.dx))
        assert np.array_equal(t.values, np.roll(f.values, (3, -2), axis=(0, 1)))


class TestBoundaryDecay:
    def test_gaussian_is_negligible_at_boundary(self, grid_1d):
        x = grid_1d.x_axis()
        f = Field(grid_1d, np.exp(-(x**2) / 2))
        assert boundary_decay_ratio(f) < 1e-12

    def test_constant_field_is_not(self, grid_1d):
        f = Field(grid_1d, np.ones(4096))
        assert boundary_decay_ratio(f) == pytest.approx(1.0)

    @pytest.mark.parametrize("grid_name,axis", [("grid_1d", 0), ("grid_2d", 0), ("grid_2d", 1)])
    def test_shell_edges_are_exact(self, request, grid_name, axis):
        # the shell is the first and last `margin` indices along each axis
        grid = request.getfixturevalue(grid_name)
        margin = max(1, int(round(BOUNDARY_MARGIN * grid.N)))
        cases = {margin - 1: 0.5, margin: 0.0, grid.N - margin: 0.5, grid.N - margin - 1: 0.0}
        for index, ratio in cases.items():
            values = np.zeros(grid.shape)
            values[(grid.center,) * grid.n] = 1.0
            point = [grid.center] * grid.n
            point[axis] = index
            values[tuple(point)] = 0.5
            assert boundary_decay_ratio(Field(grid, values)) == ratio, index

    @pytest.mark.parametrize("bad, where", [(np.nan, "center"), (np.inf, "inside"), (np.nan, "shell")])
    @pytest.mark.parametrize("n, N, L", [(1, 2**18, 100.0), (2, 256, 32.0)])
    def test_non_finite_samples_raise(self, n, N, L, bad, where):
        # Python's max over the per-block peaks drops a nan past the first block,
        # so a Gaussian holding one would read as a perfect decay, 0.0
        grid = GridSpec(n, N, L)
        values = wave_packet(grid, 0.0, 1.0).values.copy()
        values[{"center": (grid.center,) * n, "inside": (grid.center + 5,) * n, "shell": (0,) * n}[where]] = bad
        with pytest.raises(ParameterError, match=f"non-finite input: 1 of {N**n} samples are nan or inf"):
            boundary_decay_ratio(Field(grid, values))

    @pytest.mark.parametrize("shape, peak", [((2**18,), (3 * 2**16 + 5,)), ((512, 512), (400, 256))])
    def test_peak_in_the_last_block(self, shape, peak):
        # the peak is read a block of rows at a time; here it is in the last block
        grid = GridSpec(len(shape), shape[0], 10.0)
        values = np.zeros(shape)
        values[peak] = 2.0
        values[(0,) * grid.n] = 0.5
        assert boundary_decay_ratio(Field(grid, values)) == 0.25

    @pytest.mark.parametrize(
        "n, N, edge, want",
        [(1, 64, 1e300, 0.5e300 / abs(0.85e308 * (1 + 1j))), (1, 64, 1.7e308 * (1 + 1j), 1.0),
         (2, 16, 1e300, 0.5e300 / abs(0.85e308 * (1 + 1j)))],
        ids=["1d-lesser-edge", "1d-equal-edge", "2d-lesser-edge"],
    )
    def test_peak_modulus_past_the_float_range(self, n, N, edge, want):
        # |1.7e308 (1 + i)| is inf: a shell sample of 1e300 read 0.0 against it, one of the
        # same modulus nan; both maxima of the halved samples give the ratio, about 4e-9 and 1
        grid = GridSpec(n, N, 20.0)
        values = np.zeros(grid.shape, dtype=np.complex128)
        values[(grid.center,) * n] = 1.7e308 * (1 + 1j)
        values[(0,) * n] = edge
        assert boundary_decay_ratio(Field(grid, values)) == pytest.approx(want, rel=1e-15)
