"""Profiles, feasible bands and dyadic projections."""

import numpy as np
import pytest

from szaszlab import (
    BandError,
    Field,
    GridSpec,
    ParameterError,
    dyadic_dilate,
    feasible_band,
    forward_ft,
    gamma_profile,
    lowpass_profile,
    lp_mask,
    lp_project,
    radial_xi,
)
from szaszlab.littlewood_paley import _box, _partial_sum, _piece_blocks, _put_window, apply_level_mask

from conftest import plateau_field, wave_packet


class TestProfiles:
    def test_gamma_vanishes_below_half(self):
        assert gamma_profile(0.4) == 0.0
        assert gamma_profile(-0.4) == 0.0
        assert gamma_profile(0.5) == 0.0

    def test_gamma_is_one_on_plateau(self):
        assert gamma_profile(1.0) == 1.0
        assert gamma_profile(0.75) == 1.0
        assert gamma_profile(-0.9) == 1.0

    def test_gamma_vanishes_above_threehalves(self):
        assert gamma_profile(1.5) == 0.0
        assert gamma_profile(2.7) == 0.0

    def test_telescoping_partition_at_a_point(self):
        total = sum(gamma_profile(2.0**j * 0.9) for j in range(-20, 21))
        assert abs(total - 1.0) < 1e-12

    def test_lowpass_plateau_and_support(self):
        assert lowpass_profile(0.5) == 1.0
        assert lowpass_profile(1.0) == 1.0
        assert lowpass_profile(2.0) == 0.0
        assert lowpass_profile(-1.5) == 0.0

    def test_lowpass_transition_interior(self):
        v = lowpass_profile(1.25)
        assert 0.0 < v < 1.0
        assert v + (1.0 - v) == 1.0

    def test_profiles_vectorize(self):
        t = np.linspace(-3, 3, 101)
        g = gamma_profile(t)
        assert g.shape == t.shape
        assert np.all((g >= 0) & (g <= 1))
        assert np.all((lowpass_profile(t) >= 0) & (lowpass_profile(t) <= 1))


class TestFeasibleBand:
    def test_reference_grid(self, grid_1d):
        band = feasible_band(grid_1d)
        assert (band.j_min, band.j_max) == (0, 6)

    def test_doubling_samples_extends_top(self, grid_1d):
        band = feasible_band(grid_1d)
        doubled = feasible_band(GridSpec(1, 2 * grid_1d.N, grid_1d.L))
        assert doubled.j_max == band.j_max + 1
        assert doubled.j_min == band.j_min

    def test_too_coarse(self):
        with pytest.raises(BandError, match="grid too coarse"):
            feasible_band(GridSpec(1, 16, 1.0))

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_a_scan_of_its_predicates(self, n):
        from szaszlab import KAPPA, SAFETY

        coarse = 0
        for N in (2**e for e in range(4, 23)):
            for L in (1e-9, 1e-6, 1e-3, 0.37, 1.0, 3.7, 2 * np.pi, 16 * np.pi, 100.0,
                      2.0**14 * 2 * np.pi, 1e6, 1e9, 1e12):
                g = GridSpec(n, N, L)
                fits = [j for j in range(-80, 80)
                        if 3.0 * 2.0 ** (j - 1) <= SAFETY * g.xi_max and 2.0 ** (j - 1) >= KAPPA * g.dxi]
                if fits:
                    band = feasible_band(g)
                    assert (band.j_min, band.j_max) == (min(fits), max(fits)), (N, L)
                else:
                    coarse += 1
                    with pytest.raises(BandError, match="grid too coarse"):
                        feasible_band(g)
        assert 0 < coarse < 19 * 13

    def test_annuli_inside_limits(self, grid_mid):
        from szaszlab import KAPPA, SAFETY

        band = feasible_band(grid_mid)
        assert 2.0 ** (band.j_min - 1) >= KAPPA * grid_mid.dxi
        assert 3.0 * 2.0 ** (band.j_max - 1) <= SAFETY * grid_mid.xi_max


class TestPartitionOfUnity:
    @pytest.mark.parametrize("fixture", ["grid_1d", "grid_mid", "grid_wide"])
    def test_unity_on_covered_frequencies(self, fixture, request):
        grid = request.getfixturevalue(fixture)
        band = feasible_band(grid)
        r = radial_xi(grid)
        total = np.zeros_like(r)
        for j in band.levels():
            total += gamma_profile(r / 2.0**j)
        region = (r >= band.unity_lo) & (r <= band.unity_hi)
        assert region.any()
        assert np.max(np.abs(total[region] - 1.0)) < 1e-12


class TestLpProject:
    def test_zero_field(self, grid_1d):
        z = Field(grid_1d, np.zeros(4096))
        for j in feasible_band(grid_1d).levels():
            assert np.all(lp_project(z, j).values == 0)

    def test_single_band_purity(self, grid_mid):
        f = plateau_field(grid_mid, 4)
        kept = lp_project(f, 4)
        assert np.max(np.abs(kept.values - f.values)) < 1e-10 * np.max(np.abs(f.values))
        for j in feasible_band(grid_mid).levels():
            if j != 4:
                assert np.max(np.abs(lp_project(f, j).values)) < 1e-10 * np.max(np.abs(f.values))

    def test_reconstruction_of_banded_field(self, grid_mid):
        f = plateau_field(grid_mid, 3)
        g = plateau_field(grid_mid, 6)
        mix = Field(grid_mid, f.values + 0.37 * g.values)
        total = np.zeros(grid_mid.shape, dtype=complex)
        for j in feasible_band(grid_mid).levels():
            total += lp_project(mix, j).values
        assert np.max(np.abs(total - mix.values)) < 1e-10 * np.max(np.abs(mix.values))

    def test_spectrum_support_exact(self, grid_mid):
        # the mask construction zeroes the annulus complement exactly
        rng = np.random.default_rng(9)
        coeffs = rng.standard_normal(grid_mid.shape) + 1j * rng.standard_normal(grid_mid.shape)
        j = 5
        masked = apply_level_mask(coeffs, grid_mid, j)
        r = radial_xi(grid_mid)
        outside = (r < 2.0 ** (j - 1)) | (r > 3.0 * 2.0 ** (j - 1))
        assert np.all(masked[outside] == 0)
        # and a transform round trip only adds roundoff-level noise there
        f = Field(grid_mid, rng.standard_normal(grid_mid.shape))
        s = forward_ft(lp_project(f, j))
        assert np.max(np.abs(s.coeffs[outside])) < 1e-13 * np.max(np.abs(s.coeffs))

    def test_adjacent_only_overlap(self, grid_mid):
        # mask level: the composition vanishes identically for |j - j'| >= 2
        rng = np.random.default_rng(10)
        coeffs = rng.standard_normal(grid_mid.shape) + 1j * rng.standard_normal(grid_mid.shape)
        twice = apply_level_mask(apply_level_mask(coeffs, grid_mid, 4), grid_mid, 6)
        assert np.all(twice == 0)
        twice = apply_level_mask(apply_level_mask(coeffs, grid_mid, 4), grid_mid, 2)
        assert np.all(twice == 0)
        # field level: only roundoff survives, while adjacent levels overlap
        f = Field(grid_mid, rng.standard_normal(grid_mid.shape))
        p4 = lp_project(f, 4)
        scale = np.max(np.abs(p4.values))
        assert np.max(np.abs(lp_project(p4, 6).values)) < 1e-13 * scale
        assert np.max(np.abs(lp_project(p4, 2).values)) < 1e-13 * scale
        assert np.max(np.abs(lp_project(p4, 5).values)) > 1e-6 * scale

    def test_out_of_band_level_raises(self, grid_1d):
        f = Field(grid_1d, np.zeros(4096))
        band = feasible_band(grid_1d)
        with pytest.raises(BandError, match="level out of band"):
            lp_project(f, band.j_max + 1)

    @pytest.mark.parametrize("j", [2.5, "3", None])
    def test_level_must_be_an_integer(self, grid_1d, j):
        f = Field(grid_1d, np.zeros(4096))
        with pytest.raises(ParameterError, match="j must be an integer"):
            lp_project(f, j)

    def test_mask_matches_windowed_application(self, grid_mid):
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal(grid_mid.shape) + 1j * rng.standard_normal(grid_mid.shape)
        for j in (2, 5, 9):
            full = coeffs * lp_mask(grid_mid, j)
            assert np.max(np.abs(full - apply_level_mask(coeffs, grid_mid, j))) < 1e-15

    def test_float_input_keeps_its_dtype(self, grid_mid):
        coeffs = np.random.default_rng(12).standard_normal(grid_mid.shape)
        masked = apply_level_mask(coeffs, grid_mid, 5)
        assert masked.dtype == np.float64
        assert np.array_equal(masked, apply_level_mask(coeffs.astype(complex), grid_mid, 5).real)

    def test_dilation_commutation(self, grid_wide):
        # content of f sits at level -3, so the dilated field lives at -3 - m
        f = wave_packet(grid_wide, 0.109, 900.0)
        for m in (-1, 1):
            j = -3 - m
            lhs = lp_project(dyadic_dilate(f, m), j)
            rhs = dyadic_dilate(lp_project(f, j + m), m)
            scale = np.max(np.abs(rhs.values))
            assert scale > 0
            assert np.max(np.abs(lhs.values - rhs.values)) < 1e-8 * scale


#: N = 32 grids whose top level window ends at k = N/2 - 1 and whose S_0
#: ball covers every bin, -N/2 included
_EDGE_GRIDS = [GridSpec(1, 32, 304.0 * np.pi), GridSpec(2, 32, 304.0 * np.pi)]


@pytest.fixture(params=["grid_mid", "grid_2d", "edge_1d", "edge_2d"])
def block_grid(request):
    if request.param.startswith("edge"):
        return _EDGE_GRIDS[request.param == "edge_2d"]
    return request.getfixturevalue(request.param)


def _pieces(grid):
    return list(feasible_band(grid).levels()) + [None]


def _embedded(grid, j, values=None):
    """The piece's multipliers (or ``values`` on its blocks) on the full grid, centered."""
    out = np.zeros(grid.shape, dtype=np.complex128 if values is not None else float)
    for box, mult in _piece_blocks(grid, j):
        out[box] = mult if values is None else values[box]
    return out


class TestPieceBlocks:
    def test_edge_grids_reach_the_edges(self):
        g = _EDGE_GRIDS[0]
        (pos, _), _ = _piece_blocks(g, feasible_band(g).j_max)
        assert pos[0].stop == g.N
        assert all(s == slice(0, g.N) for s in _piece_blocks(g, None)[0][0])

    def test_level_blocks_rebuild_lp_mask(self, block_grid):
        for j in feasible_band(block_grid).levels():
            assert np.array_equal(_embedded(block_grid, j), lp_mask(block_grid, j))
            for _, mult in _piece_blocks(block_grid, j):
                assert not mult.flags.writeable

    def test_lowpass_blocks_rebuild_the_profile(self, block_grid):
        want = lowpass_profile(radial_xi(block_grid))
        assert np.array_equal(_embedded(block_grid, None), want)

    @pytest.mark.parametrize("k", [1, 11, 15, 22, 30, 44, 60, 88])
    @pytest.mark.parametrize("grid_name", ["grid_1d", "grid_2d"])
    def test_box_holds_every_bin_within_the_radius(self, request, grid_name, k):
        # on these grids (k dxi) / dxi rounds below k for k = 11, 15, 22, ...
        grid = request.getfixturevalue(grid_name)
        radius = k * grid.dxi
        box = _box(grid, radius)
        assert box == (slice(grid.center - k, grid.center + k + 1),) * grid.n
        off = np.ones(grid.shape, dtype=bool)
        off[box] = False
        assert not (off & (radial_xi(grid) <= radius)).any()

    def test_partial_sum_is_the_sum_of_its_levels(self, block_grid):
        band = feasible_band(block_grid)
        rng = np.random.default_rng(6)
        coeffs = rng.standard_normal(block_grid.shape) + 1j * rng.standard_normal(block_grid.shape)
        lo, hi = band.j_min, band.j_max
        for j_lo, j_hi in {(lo, hi), (lo, lo), (hi, hi), ((lo + hi) // 2, hi)}:
            want = sum(apply_level_mask(coeffs, block_grid, j) for j in range(j_lo, j_hi + 1))
            box = _box(block_grid, 1.5 * 2.0**j_hi)
            got = np.zeros(block_grid.shape, dtype=np.complex128)
            got[box] = _partial_sum(coeffs, block_grid, j_lo, j_hi, box)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(coeffs))

    def test_natural_writer_is_ifftshift_of_centered_embedding(self, block_grid):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(block_grid.shape) + 1j * rng.standard_normal(block_grid.shape)
        for j in _pieces(block_grid):
            row = np.zeros(block_grid.shape, dtype=np.complex128)
            for box, _ in _piece_blocks(block_grid, j):
                _put_window(row, box, values[box], block_grid.N, (0,) * block_grid.n)
            assert np.array_equal(row, np.fft.ifftshift(_embedded(block_grid, j, values)))
