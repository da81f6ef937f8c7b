"""Spectrum supports: the padded pairwise sum, the builders' supports, and every support path against the dense one."""

import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from szaszlab.spaces import _LEAF, _layout, _padded_sum
from szaszlab.witnesses import _WITNESSES

#: lengths numpy's pairwise tree splits differently: powers of two, one less, and odd ones
_LENGTHS = st.one_of(
    st.integers(1, 14).map(lambda k: 2**k),
    st.integers(1, 14).map(lambda k: 2**k - 1),
    st.integers(1, 5000),
)


@st.composite
def _padded(draw):
    """(array, runs): a zero array with random values on disjoint runs, some crossing a leaf's edge."""
    n = draw(_LENGTHS)
    near_leaf_edge = st.builds(lambda m, d: m * _LEAF + d, st.integers(0, n // _LEAF), st.integers(-3, 3))
    cuts = draw(st.lists(st.one_of(st.integers(0, n), near_leaf_edge), max_size=12))
    cuts = sorted({min(max(c, 0), n) for c in cuts})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, runs = np.zeros(n), []
    for start, stop in zip(cuts[::2], cuts[1::2]):
        a[start:stop] = rng.random(stop - start) ** 7 * 10.0 ** rng.integers(-8, 8, stop - start)
        runs.append((start, stop - start))
    return a, runs


class TestPaddedSum:
    @settings(max_examples=300, deadline=None)
    @given(_padded())
    def test_is_numpy_sum_of_the_padded_array(self, case):
        a, runs = case
        values = np.concatenate([a[s : s + n] for s, n in runs] or [np.zeros(0)])
        assert _padded_sum(values, runs, a.size) == float(np.sum(a))

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([(2**a - e, 2**b) for a in range(1, 9) for b in range(1, 9) for e in (0, 1)]),
        st.data(),
    )
    def test_boxes_of_a_2d_array(self, shape, data):
        # a box narrower than the array is one run per row in C order; its
        # rows across the full width are one run, as _layout lays them out
        rows, cols = shape
        r0, c0 = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
        h, w = data.draw(st.integers(1, rows - r0)), data.draw(st.integers(1, cols - c0))
        block = np.random.default_rng(rows * cols + h).random((h, w))
        a = np.zeros(shape)
        a[r0 : r0 + h, c0 : c0 + w] = block
        runs = [((r0 + i) * cols + c0, w) for i in range(h)]
        assert _padded_sum(block.ravel(), runs, a.size) == float(np.sum(a))
        container = (slice(5, 5 + rows), slice(-2 + cols, -2 + 2 * cols))
        band = (slice(5 + r0, 5 + r0 + h), container[1])
        values, runs, size = _layout([(band, a[r0 : r0 + h])], container)
        assert runs == [(r0 * cols, h * cols)] and size == a.size
        assert _padded_sum(values, runs, size) == float(np.sum(a))

    def test_keeps_no_reference_to_its_values(self):
        # a recursive closure would hold the values in a reference cycle
        # until the cyclic collector runs: 8 MB for a lo-band modulus
        values = np.ones(300)
        ref = weakref.ref(values)
        gc.disable()
        try:
            assert _padded_sum(values, [(10, 300)], 1024) == 300.0
            del values
            assert ref() is None
        finally:
            gc.enable()

    def test_full_width_box_is_one_run(self):
        block = np.arange(1.0, 25.0).reshape(3, 8)
        values, runs, size = _layout([((slice(2, 5), slice(0, 8)), block)], (slice(0, 8), slice(0, 8)))
        assert runs == [(16, 24)] and size == 64 and np.array_equal(values, block.ravel())

    def test_row_bands_are_laid_out_in_order(self):
        a = np.zeros((300, 200))
        bands = [(slice(180, 250), slice(0, 200)), (slice(20, 160), slice(0, 200))]
        for i, band in enumerate(bands):
            a[band] = np.random.default_rng(i).random(a[band].shape) * 10.0 ** (6 * i)
        values, runs, size = _layout([(band, a[band]) for band in bands], (slice(0, 300), slice(0, 200)))
        assert runs == [(4000, 28000), (36000, 14000)] and size == a.size
        assert _padded_sum(values, runs, size) == float(np.sum(a))

    def test_hole_leaves_one_entry_out(self):
        a = np.arange(1.0, 301.0)
        values, runs, size = _layout([((slice(10, 110),), a[:100]), ((slice(200, 300),), a[100:200])], (slice(0, 512),), 150)
        assert runs == [(10, 100), (199, 100)] and size == 511
        values, runs, size = _layout([((slice(10, 110),), a[:100])], (slice(0, 512),), 60)
        assert runs == [(10, 99)] and np.array_equal(values, np.delete(a[:100], 50))


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


def _measured(call):
    """call()'s value and its ModelFidelityWarning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ModelFidelityWarning)
        value = call()
    return value, [str(w.message) for w in caught if issubclass(w.category, ModelFidelityWarning)]


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


class TestSumsKeepTheDenseBits:
    # the sums over a support against the dense formulas they replace

    @pytest.mark.parametrize("grid_name, kind", _CASES)
    def test_parseval_energy_is_numpy_sum_over_each_block(self, request, grid_name, kind):
        grid = _witness_grid(request, grid_name)
        spec, _ = _built(grid, kind)
        for j in [None] + list(feasible_band(grid).levels()):
            blocks = _piece_blocks(grid, j)
            energy = sum(float(np.sum(np.abs(spec.coeffs[box] * mult) ** 2)) for box, mult in blocks)
            assert spaces_module._piece_l2(spec, j) == spaces_module._parseval_l2(grid, energy)

    @pytest.mark.parametrize("grid_name, kind", _CASES)
    @pytest.mark.parametrize("mode", ["homogeneous", "inhomogeneous"])
    def test_weighted_lhs_is_the_sum_over_the_grid(self, request, grid_name, kind, mode):
        grid = _witness_grid(request, grid_name)
        spec, query = _built(grid, kind)
        assert weighted_lhs(spec, query.theta, query.p, mode) == _dense_lhs(spec, query.theta, query.p, mode)

    @pytest.mark.parametrize("grid_name", ["grid_wide", "grid_2d"])
    @pytest.mark.parametrize("mode", ["homogeneous", "inhomogeneous"])
    def test_weighted_lhs_of_a_support_holding_the_zero_bin(self, request, grid_name, mode):
        spec = _zero_bin_spectrum(request.getfixturevalue(grid_name))
        assert weighted_lhs(spec, -0.5, 1.5, mode) == _dense_lhs(spec, -0.5, 1.5, mode)

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
    def test_bitwise(self, request, grid_name, kind):
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
            assert _measured(lambda: call(spec)) == _measured(lambda: call(dense))

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
            assert _measured(lambda: call(spec)) == _measured(lambda: call(dense))

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
    whatever the grid, and is left out.
    """
    grid = GridSpec(1, 2**18, 16.0 * np.pi)
    query = SzaszQuery(SpaceParams(0.0, 2.0, 4.0), 4.0, 1)
    record = lambda: divergence_experiment("modulated", query, [4], grid=grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelFidelityWarning)
        record()  # caches: the level blocks, the boundary shell
        growth, start = [], [0]

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

        monkeypatch.setattr(spaces_module, "_chunk_pass", left_out(spaces_module._chunk_pass))
        monkeypatch.setattr(spaces_module, "_Cosets", left_out(spaces_module._Cosets))
        tracemalloc.start()
        try:
            record()
            close()
        finally:
            tracemalloc.stop()
    assert len(growth) == 3  # the boundary check was narrow
    spectrum = 16 * grid.N
    assert growth[0] >= spectrum
    assert max(growth[0] - spectrum, *growth[1:]) < grid.N // 4
