"""Spectrum supports: the builders' supports, and every support path against the dense one."""

import tracemalloc
import warnings

import numpy as np
import pytest

import szaszlab.spaces as spaces_module
from szaszlab import (
    GridSpec,
    ModelFidelityWarning,
    SpaceParams,
    Spectrum,
    SzaszQuery,
    WitnessSpec,
    besov_norm,
    divergence_experiment,
    feasible_band,
    radial_xi,
    triebel_norm,
    weighted_lhs,
)
from szaszlab.grid import _supported
from szaszlab.littlewood_paley import _piece_blocks
from szaszlab.witnesses import _WITNESSES

class TestSupportedSpectrum:
    def test_default_support_is_the_grid(self, grid_2d):
        spec = Spectrum(grid_2d, np.ones(grid_2d.shape))
        assert spec._support == ((slice(0, 256), slice(0, 256)),)

    def test_boxes_widen_to_rows_and_overlapping_rows_merge(self, grid_2d):
        boxes = [
            (slice(50, 60), slice(50, 60)),
            (slice(10, 20), slice(10, 20)),
            (slice(55, 70), slice(200, 210)),  # shares rows, not columns, with the first
            (slice(30, 30), slice(0, 256)),  # empty
            (slice(40, 45), slice(7, 7)),  # empty
            (slice(65, 80), slice(40, 52)),  # overlaps only the merged rows
            (slice(20, 25), slice(0, 3)),  # touches the second, is not merged
        ]
        spec = _supported(Spectrum(grid_2d, np.zeros(grid_2d.shape)), boxes)
        full = slice(0, 256)
        assert spec._support == ((slice(10, 20), full), (slice(20, 25), full), (slice(50, 80), full))

    def test_1d_boxes_are_kept(self, grid_mid):
        boxes = [(slice(90, 100),), (slice(10, 20),), (slice(15, 30),)]
        spec = _supported(Spectrum(grid_mid, np.zeros(grid_mid.shape)), boxes)
        assert spec._support == ((slice(10, 30),), (slice(90, 100),))


def _witness_grid(request, name):
    return GridSpec(2, 512, 64.0 * np.pi) if name == "grid_2d_512" else request.getfixturevalue(name)


#: (grid, size) per witness kind: a multi-tile 1-D grid and a multi-tile 2-D grid (dxi = 1/32, band [-2, 2])
_CASES = [(grid, kind) for grid in ("grid_wide", "grid_2d_512") for kind in _WITNESSES]


def _built(grid, kind):
    query = SzaszQuery(SpaceParams(2.0, 1.5, 2.0), 3.0, grid.n)
    size = 3 if grid.n == 1 else 2
    return _WITNESSES[kind][1](grid, WitnessSpec(kind, size, query, seed=5)), query


class TestBuilderSupports:
    @pytest.mark.parametrize("grid_name, kind", _CASES + [("grid_mid", "random_bandlimited")])
    def test_spectrum_is_zero_off_its_support(self, request, grid_name, kind):
        grid = _witness_grid(request, grid_name)
        spec, _ = _built(grid, kind)
        on = np.zeros(grid.shape, dtype=bool)
        for box in spec._support:
            assert not on[box].any()  # disjoint
            assert box[1:] == (slice(0, grid.N),) * (grid.n - 1)  # whole rows
            on[box] = True
        assert not spec.coeffs[~on].any()
        assert on.sum() < grid.N**grid.n  # the support is not the grid

    @pytest.mark.parametrize("grid_name", ["grid_mid", "grid_wide"])
    def test_random_support_is_its_plateau_bins(self, request, grid_name):
        # in 1-D each level's plateau 3/4 < |xi| / 2^j < 1 is two one-sided runs, not its ball
        grid = request.getfixturevalue(grid_name)
        band = feasible_band(grid)
        spec, _ = _built(grid, "random_bandlimited")
        on = np.zeros(grid.shape, dtype=bool)
        for box in spec._support:
            on[box] = True
        plateau = np.zeros(grid.shape, dtype=bool)
        for j in range(band.j_max - 2, band.j_max + 1):
            t = radial_xi(grid) / 2.0**j
            plateau |= (t > 0.75) & (t < 1.0)
        assert np.array_equal(on, plateau)
        assert len(spec._support) == 6


#: a sum over a support's packed values groups its terms unlike the sum over
#: the whole grid, which moves at most its last bits
_REL = 4 * np.finfo(float).eps


def _close(got: float, want: float) -> bool:
    """Whether two sums of the same terms agree to _REL, relative."""
    return abs(got - want) <= _REL * abs(want)


def _measured(call):
    """call()'s value and its ModelFidelityWarning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ModelFidelityWarning)
        value = call()
    return value, [str(w.message) for w in caught if issubclass(w.category, ModelFidelityWarning)]


def _matches(call, spec, dense) -> bool:
    """Whether call() on the support path and on the dense one agree to _REL, with the same warnings."""
    (got, got_caught), (want, want_caught) = _measured(lambda: call(spec)), _measured(lambda: call(dense))
    return got_caught == want_caught and _close(got, want)


def _dense_lhs(spec, theta, p, mode):
    """weighted_lhs as a sum over the whole grid: its nonzero bins in a zero array, k = 0 left out in homogeneous mode."""
    grid = spec.grid
    bins = np.flatnonzero(spec.coeffs)
    base = radial_xi(grid).ravel()[bins]
    at, size = bins, grid.N**grid.n
    if mode == "homogeneous":
        zero = grid.N**grid.n // 2 + (grid.center if grid.n == 2 else 0)
        keep = bins != zero
        bins, base, at, size = bins[keep], base[keep], bins[keep] - (bins[keep] > zero), size - 1
    else:
        base = 1.0 + base
    padded = np.zeros(size)
    padded[at] = (base**theta * np.abs(spec.coeffs.ravel()[bins])) ** p
    return (float(np.sum(padded)) * grid.dxi**grid.n) ** (1.0 / p)


def _zero_bin_spectrum(grid):
    """Random coefficients of magnitudes 1e-6 to 1e6 on two boxes, the first holding k = 0.

    The magnitudes make a sum's bits depend on how its terms are grouped.
    """
    c, rng = grid.center, np.random.default_rng(4)
    boxes = [(slice(c - 100, c + 40),) * grid.n, (slice(c + 60, c + 90),) + (slice(c - 5, c + 5),) * (grid.n - 1)]
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for box in boxes:
        shape = coeffs[box].shape
        coeffs[box] = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.uniform(-6, 6, shape)
    return _supported(Spectrum(grid, coeffs), boxes)


class TestSumsMatchTheDenseSums:
    # the sums over a support against the dense formulas they replace

    @pytest.mark.parametrize("grid_name, kind", _CASES)
    def test_parseval_energy_is_numpy_sum_over_each_block(self, request, grid_name, kind):
        grid = _witness_grid(request, grid_name)
        spec, _ = _built(grid, kind)
        for j in [None] + list(feasible_band(grid).levels()):
            blocks = _piece_blocks(grid, j)
            energy = sum(float(np.sum(np.abs(spec.coeffs[box] * mult) ** 2)) for box, mult in blocks)
            assert _close(spaces_module._piece_l2(spec, j), spaces_module._parseval_l2(grid, energy))

    @pytest.mark.parametrize("grid_name, kind", _CASES)
    @pytest.mark.parametrize("mode", ["homogeneous", "inhomogeneous"])
    def test_weighted_lhs_is_the_sum_over_the_grid(self, request, grid_name, kind, mode):
        grid = _witness_grid(request, grid_name)
        spec, query = _built(grid, kind)
        assert _close(weighted_lhs(spec, query.theta, query.p, mode), _dense_lhs(spec, query.theta, query.p, mode))

    @pytest.mark.parametrize("grid_name", ["grid_wide", "grid_2d"])
    @pytest.mark.parametrize("mode", ["homogeneous", "inhomogeneous"])
    def test_weighted_lhs_of_a_support_holding_the_zero_bin(self, request, grid_name, mode):
        spec = _zero_bin_spectrum(request.getfixturevalue(grid_name))
        assert _close(weighted_lhs(spec, -0.5, 1.5, mode), _dense_lhs(spec, -0.5, 1.5, mode))

    @pytest.mark.parametrize("setting", ["homogeneous", "inhomogeneous"])
    def test_zero_bin_is_not_out_of_band_for_homogeneous_norms(self, grid_mid, setting):
        # a constant field's mass sits at k = 0 alone, which the homogeneous
        # norms discard and the inhomogeneous S_0 piece covers
        coeffs = np.zeros(grid_mid.shape, dtype=np.complex128)
        coeffs[grid_mid.center] = 1.0
        spec = _supported(Spectrum(grid_mid, coeffs), [(slice(grid_mid.center - 3, grid_mid.center + 4),)])
        _, caught = _measured(lambda: spaces_module._prepared_spectrum(spec, SpaceParams(0.0, 2.0, 2.0, "B", setting)))
        assert not [m for m in caught if "outside the feasible band" in m]


class TestSupportPathsMatchTheDenseOnes:
    # each consumer of a witness spectrum's support, against the same
    # coefficients given as a dense spectrum, whose support is the whole grid

    @pytest.mark.parametrize("grid_name, kind", _CASES)
    def test_within_roundoff(self, request, grid_name, kind):
        grid = _witness_grid(request, grid_name)
        spec, query = _built(grid, kind)
        dense = Spectrum(grid, spec.coeffs.copy())
        assert spec._support != dense._support
        calls = [
            lambda x: besov_norm(x, SpaceParams(0.3, 2.0, 2.0, "B")),
            lambda x: besov_norm(x, SpaceParams(0.3, 2.0, 1.5, "B", "inhomogeneous")),
            lambda x: besov_norm(x, SpaceParams(0.3, 1.5, 2.0, "B")),
            lambda x: triebel_norm(x, SpaceParams(0.2, 1.5, 2.0, "F", "inhomogeneous")),
            lambda x: weighted_lhs(x, query.theta, query.p, "homogeneous"),
            lambda x: weighted_lhs(x, -0.7, 1.5, "inhomogeneous"),
            lambda x: weighted_lhs(x, query.theta, np.inf),
            spaces_module._boundary_ratio,
        ]
        for call in calls:
            assert _matches(call, spec, dense)

    @pytest.mark.parametrize("grid_name", ["grid_wide", "grid_2d"])
    def test_support_holding_the_zero_bin(self, request, grid_name):
        # random coefficients on two boxes, one holding k = 0, which the
        # homogeneous functional leaves out and the S_0 piece reads
        spec = _zero_bin_spectrum(request.getfixturevalue(grid_name))
        dense = Spectrum(spec.grid, spec.coeffs.copy())
        calls = [
            lambda x: weighted_lhs(x, -0.5, 2.0, "homogeneous"),
            lambda x: weighted_lhs(x, 0.5, 3.0, "inhomogeneous"),
            lambda x: besov_norm(x, SpaceParams(0.3, 2.0, 2.0, "B", "inhomogeneous")),
            lambda x: triebel_norm(x, SpaceParams(0.3, 1.5, 2.0, "F", "inhomogeneous")),
            spaces_module._boundary_ratio,
        ]
        for call in calls:
            assert _matches(call, spec, dense)

    def test_window_counts_each_frequency_once(self, monkeypatch):
        # three boxes sharing their columns: with a tile of 40 bins, counted
        # once per box the columns would wrongly fill a whole axis
        grid = GridSpec(2, 256, 32.0)
        coeffs = np.zeros(grid.shape, dtype=np.complex128)
        boxes = [(slice(40 * i + 10, 40 * i + 14), slice(100, 133)) for i in range(3)]
        for box in boxes:
            coeffs[box] = 1.0
        monkeypatch.setattr(spaces_module, "_CHUNK", 40)
        blocks = [(box, coeffs[box]) for box in boxes]
        whole = [((slice(0, 256),) * 2, coeffs)]
        assert spaces_module._window(grid, blocks) == spaces_module._window(grid, whole) == ((-118, 128), (-28, 64))


def test_narrow_r2_record_makes_no_full_grid_array(monkeypatch):
    """A B r = 2 modulated record on 2^18 points allocates nothing of N/4 bytes or more but its spectrum.

    The tracemalloc peak is taken stretch by stretch, from the memory held at
    each stretch's start; the boundary check's coset synthesis
    (``_Cosets`` and ``_chunk_pass``) works in tiles of _CHUNK samples
    whatever the grid, and is left out, as are the power sums' tile passes
    over arrays of at most a level's bins.
    """
    grid = GridSpec(1, 2**18, 16.0 * np.pi)
    query = SzaszQuery(SpaceParams(0.0, 2.0, 4.0), 4.0, 1)
    record = lambda: divergence_experiment("modulated", query, [4], grid=grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelFidelityWarning)
        record()  # caches: the level blocks
        growth, start, builds = [], [0], []

        def close():
            growth.append(tracemalloc.get_traced_memory()[1] - start[0])

        def left_out(fn):
            def wrapped(*args, **kwargs):
                close()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracemalloc.reset_peak()
                    start[0] = tracemalloc.get_traced_memory()[0]

            return wrapped

        def counted(*args):
            builds.append(args)
            return cosets(*args)

        cosets = spaces_module._Cosets
        monkeypatch.setattr(spaces_module, "_chunk_pass", left_out(spaces_module._chunk_pass))
        monkeypatch.setattr(spaces_module, "_Cosets", left_out(counted))
        tracemalloc.start()
        try:
            record()
            close()
        finally:
            tracemalloc.stop()
    assert len(builds) == 1  # the boundary check was narrow
    spectrum = 16 * grid.N
    assert growth[0] >= spectrum
    assert max(growth[0] - spectrum, *growth[1:]) < grid.N // 4
