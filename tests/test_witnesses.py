"""Witness constructions against their series/annulus oracles."""

import warnings

import numpy as np
import pytest

from szaszlab import (
    BandError,
    ExperimentAbort,
    Field,
    GridSpec,
    ModelFidelityWarning,
    ParameterError,
    SpaceParams,
    Spectrum,
    SzaszQuery,
    WitnessSpec,
    annulus_psi,
    besov_norm,
    bump_lowpass_phi,
    boundary_decay_ratio,
    dilated_witness,
    divergence_experiment,
    feasible_band,
    forward_ft,
    inverse_ft,
    lowfreq_blowup_witness,
    lowpass_profile,
    lr_quasinorm,
    modulated_witness,
    radial_xi,
    random_bandlimited,
    space_norm,
    weighted_lhs,
)
import szaszlab.spaces as spaces_module
import szaszlab.witnesses as witnesses_module
from szaszlab.realization import low_frequency_mass, realization_report
from szaszlab.littlewood_paley import _mollifier_step
from szaszlab.witnesses import (
    _blowup_spectrum,
    _dilated_spectrum,
    _modulated_spectrum,
    _psi_hat_profile,
    _random_spectrum,
    _term_norm_table,
)


@pytest.fixture(scope="module")
def grid_hi_small() -> GridSpec:
    """Scaled-down hi-band: dxi = 1/8, band [0, 11]."""
    return GridSpec(1, 2**16, 16.0 * np.pi)


def make_query(family, s, r, p, q, n=1):
    return SzaszQuery(SpaceParams(s, r, q, family), p, n)


class TestBumpLowpassPhi:
    def test_spectrum_support_exact(self, grid_hi_small):
        f = bump_lowpass_phi(grid_hi_small)
        s = forward_ft(f)
        outside = radial_xi(grid_hi_small) > 0.5
        assert np.max(np.abs(s.coeffs[outside])) < 1e-13 * np.max(np.abs(s.coeffs))

    def test_unit_l2(self, grid_hi_small):
        f = bump_lowpass_phi(grid_hi_small)
        assert abs(lr_quasinorm(f, 2.0) - 1.0) < 1e-10

    def test_real_valued(self, grid_hi_small):
        f = bump_lowpass_phi(grid_hi_small)
        assert np.max(np.abs(f.values.imag)) == 0.0

    def test_boundary_ratio_on_16pi_box(self, grid_mid):
        # the 16 pi box of hi-band and mid-band is short against phi's slow
        # decay, so the boundary check rightly flags the modulated witness
        assert boundary_decay_ratio(bump_lowpass_phi(grid_mid)) == pytest.approx(0.1266, abs=1e-3)

    def test_boundary_decay_on_large_box(self, grid_wide):
        # bandwidth-1/2 bumps decay slowly; a box of ~2.6e4 is what it takes
        # to push the tails below 1e-12 of the peak
        f = bump_lowpass_phi(grid_wide)
        assert boundary_decay_ratio(f) < 1e-12

    def test_too_coarse(self):
        with pytest.raises(BandError, match="grid too coarse"):
            bump_lowpass_phi(GridSpec(1, 64, 4.0))  # dxi ~ 1.57, 1 bin in ball


class TestAnnulusPsi:
    def test_spectrum_support_exact(self, grid_hi_small):
        f = annulus_psi(grid_hi_small)
        s = forward_ft(f)
        r = radial_xi(grid_hi_small)
        outside = (r < 0.75) | (r > 1.25)
        assert np.max(np.abs(s.coeffs[outside])) < 1e-13 * np.max(np.abs(s.coeffs))

    def test_unit_l2_and_zero_mean(self, grid_hi_small):
        f = annulus_psi(grid_hi_small)
        assert abs(lr_quasinorm(f, 2.0) - 1.0) < 1e-10
        assert abs(np.sum(f.values)) * grid_hi_small.dx < 1e-12

    def test_besov_close_to_l2(self, grid_hi_small):
        # the annulus straddles two dyadic levels, so the (0, 2, 2) Besov
        # norm agrees with the L2 norm only up to the mask overlap
        f = annulus_psi(grid_hi_small)
        b = besov_norm(f, SpaceParams(0.0, 2.0, 2.0, "B"))
        assert abs(b - lr_quasinorm(f, 2.0)) < 5e-2 * lr_quasinorm(f, 2.0)


class TestModulatedWitness:
    @pytest.mark.parametrize("K", [-1, 2.5])
    def test_size_must_be_a_count(self, grid_hi_small, K):
        q = make_query("B", 0.0, 2.0, 4.0, 4.0)
        with pytest.raises(ParameterError, match="K must be an integer >= 0"):
            modulated_witness(grid_hi_small, WitnessSpec("modulated", K, q))

    def test_zero_terms(self, grid_hi_small):
        q = make_query("B", 0.0, 2.0, 4.0, 4.0)
        f = modulated_witness(grid_hi_small, WitnessSpec("modulated", 0, q))
        assert np.all(f.values == 0)

    def test_single_term_is_modulated_bump(self, grid_hi_small):
        q = make_query("B", 0.0, 2.0, 2.0, 2.0)  # theta = 0
        f = modulated_witness(grid_hi_small, WitnessSpec("modulated", 1, q))
        phi = bump_lowpass_phi(grid_hi_small)
        x = grid_hi_small.x_axis()
        expected = np.exp(2j * x) * phi.values
        assert np.max(np.abs(f.values - expected)) < 1e-10 * np.max(np.abs(expected))

    def test_terms_inside_annuli(self, grid_hi_small):
        q = make_query("B", 0.0, 2.0, 4.0, 4.0)
        f = modulated_witness(grid_hi_small, WitnessSpec("modulated", 3, q))
        s = forward_ft(f)
        r = radial_xi(grid_hi_small)
        inside = np.zeros(grid_hi_small.shape, dtype=bool)
        for k in (1, 2, 3):
            inside |= (r >= 0.75 * 2.0**k) & (r <= 1.25 * 2.0**k)
        assert np.max(np.abs(s.coeffs[~inside])) < 1e-13 * np.max(np.abs(s.coeffs))

    def test_norm_matches_series_oracle(self, grid_hi_small):
        # oracle: the space norm of the partial sum is the l_q sum of the
        # designed per-term summands k 2^(k(s - theta))
        q = make_query("B", 0.0, 2.0, 4.0, 4.0)
        K = 8
        f = modulated_witness(grid_hi_small, WitnessSpec("modulated", K, q))
        k = np.arange(1, K + 1)
        oracle = np.sum((k * 2.0 ** (-k / 4.0)) ** 4) ** 0.25
        assert besov_norm(f, q.space) == pytest.approx(oracle, rel=1e-3)

    def test_super_nyquist_raises(self, grid_hi_small):
        q = make_query("B", 0.0, 2.0, 4.0, 4.0)
        with pytest.raises(BandError, match="K exceeds band"):
            modulated_witness(grid_hi_small, WitnessSpec("modulated", 12, q))


class TestDilatedWitness:
    def test_zero_terms(self, grid_wide):
        q = make_query("B", 0.0, 2.0, 1.0, 2.0)
        f = dilated_witness(grid_wide, WitnessSpec("dilated_low", 0, q))
        assert np.all(f.values == 0)

    def test_single_term_annulus(self, grid_wide):
        q = make_query("B", 0.0, 2.0, 1.0, 2.0)
        f = dilated_witness(grid_wide, WitnessSpec("dilated_low", 1, q))
        s = forward_ft(f)
        r = radial_xi(grid_wide)
        outside = (r < 0.75 / 2.0) | (r > 1.25 / 2.0)
        assert np.max(np.abs(s.coeffs[outside])) < 1e-13 * np.max(np.abs(s.coeffs))

    def test_per_annulus_lhs_matches_harmonic(self, grid_wide):
        q = make_query("B", 0.0, 2.0, 1.0, 2.0)
        K = 6
        f = dilated_witness(grid_wide, WitnessSpec("dilated_low", K, q))
        s = forward_ft(f)
        r = radial_xi(grid_wide)
        theta = q.theta
        contribs = []
        for k in range(1, K + 1):
            sel = (r >= 0.75 * 2.0**-k) & (r <= 1.25 * 2.0**-k)
            contribs.append(float(np.sum(r[sel] ** theta * np.abs(s.coeffs[sel])) * grid_wide.dxi))
        for k, c in enumerate(contribs, start=1):
            assert c * k == pytest.approx(contribs[0], rel=5e-2)

    def test_too_deep_raises(self, grid_wide):
        q = make_query("B", 0.0, 2.0, 1.0, 2.0)
        with pytest.raises(BandError, match="K exceeds low band"):
            dilated_witness(grid_wide, WitnessSpec("dilated_low", 10, q))


class TestLowfreqBlowup:
    def test_zero_terms(self, grid_wide):
        f = lowfreq_blowup_witness(grid_wide, 0, 2.0, 2.0)
        assert np.all(f.values == 0)

    def test_requires_supercritical_smoothness(self, grid_wide):
        with pytest.raises(ParameterError, match="s > n/r"):
            lowfreq_blowup_witness(grid_wide, 3, 0.0, 2.0)

    @pytest.mark.parametrize(
        "s, r, match",
        [(2.0, 0, "r must be > 0, got 0"), (2.0, -1, "r must be > 0, got -1"), (np.inf, 1.5, "s must be finite, got inf")],
    )
    def test_bad_exponents_raise_before_any_build(self, monkeypatch, grid_wide, s, r, match):
        def no_build(*args):
            raise AssertionError("a term was built")

        monkeypatch.setattr(witnesses_module, "_psi_term", no_build)
        with pytest.raises(ParameterError, match=f"invalid params: {match}"):
            lowfreq_blowup_witness(grid_wide, 3, s, r)

    def test_mass_grows_geometrically(self, grid_wide):
        masses = [
            low_frequency_mass(lowfreq_blowup_witness(grid_wide, M, 2.0, 2.0), 1.0)
            for M in range(2, 7)
        ]
        steps = [b / a for a, b in zip(masses, masses[1:])]
        assert all(s > 1.6 for s in steps)

    def test_norm_increments_below_designed_rate(self, grid_wide):
        norms = [
            besov_norm(lowfreq_blowup_witness(grid_wide, M, 2.0, 2.0), SpaceParams(2.0, 2.0, 2.0))
            for M in range(2, 7)
        ]
        increments = [b - a for a, b in zip(norms, norms[1:])]
        for M, inc in zip(range(2, 6), increments):
            assert 0 <= inc < 2.0 ** (-M * 0.75)

    def test_too_deep_raises(self, grid_wide):
        with pytest.raises(BandError, match="M exceeds low band"):
            lowfreq_blowup_witness(grid_wide, 10, 2.0, 2.0)

    @pytest.mark.parametrize("M", [-1, 2.5])
    def test_size_must_be_a_count(self, grid_wide, M):
        with pytest.raises(ParameterError, match="M must be an integer >= 0"):
            lowfreq_blowup_witness(grid_wide, M, 2.0, 1.5)

    def test_second_build_synthesizes_only_new_terms(self, monkeypatch, grid_wide):
        _term_norm_table.cache_clear()
        widths = []
        real = spaces_module._synthesized

        def counting(grid, keys, blocks):
            for batch, source in real(grid, keys, blocks):
                widths.append(len(batch))
                yield batch, source

        monkeypatch.setattr(spaces_module, "_synthesized", counting)
        counts = []
        for M, r in [(3, 1.5), (5, 1.5), (5, 1.5), (2, np.inf)]:
            before = sum(widths)
            warm = _blowup_spectrum(grid_wide, M, 2.0, r).coeffs
            counts.append(sum(widths) - before)
        assert counts == [3, 2, 0, 2]
        _term_norm_table.cache_clear()
        assert _blowup_spectrum(grid_wide, 2, 2.0, np.inf).coeffs.tobytes() == warm.tobytes()

    def test_term_norm_cache_is_bounded(self, grid_wide):
        _term_norm_table.cache_clear()
        cold = _blowup_spectrum(grid_wide, 5, 2.0, 1.5).coeffs
        assert list(_term_norm_table(grid_wide, 1.5)) == [1, 2, 3, 4, 5]
        # builds at as many other r as the cache holds tables evict (grid_wide, 1.5)
        tables = _term_norm_table.cache_info().maxsize
        for i in range(tables):
            _blowup_spectrum(grid_wide, 1, 2.0, 1.0 + i / 64)
        assert _term_norm_table.cache_info().currsize == tables
        assert _term_norm_table(grid_wide, 1.5) == {}
        got = _blowup_spectrum(grid_wide, 5, 2.0, 1.5).coeffs
        assert got.tobytes() == cold.tobytes()

    @pytest.mark.parametrize("r", [1.5, np.inf])
    def test_batched_spectrum_matches_per_piece_construction(self, grid_wide, r):
        rad = radial_xi(grid_wide)
        want = np.zeros(grid_wide.shape, dtype=np.complex128)
        for k in range(1, 6):
            raw = _psi_hat_profile(2.0**k * rad).astype(np.complex128)
            norm_r = lr_quasinorm(inverse_ft(Spectrum(grid_wide, raw)), r)
            n_over_r = 0.0 if np.isinf(r) else 1.0 / r
            want += 2.0 ** (-k * (2.0 - n_over_r) / 2.0) * 2.0 ** (2.0 * k) / norm_r * raw
        got = _blowup_spectrum(grid_wide, 5, 2.0, r).coeffs
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


class TestRandomBandlimited:
    def test_deterministic(self, grid_mid):
        a = random_bandlimited(grid_mid, 123, 2, 6)
        b = random_bandlimited(grid_mid, 123, 2, 6)
        assert np.array_equal(a.values, b.values)
        c = random_bandlimited(grid_mid, 124, 2, 6)
        assert not np.array_equal(a.values, c.values)

    def test_spectrum_support(self, grid_mid):
        f = random_bandlimited(grid_mid, 5, 3, 5)
        s = forward_ft(f)
        r = radial_xi(grid_mid)
        outside = (r < 2.0**2) | (r > 3.0 * 2.0**4)
        assert np.max(np.abs(s.coeffs[outside])) < 1e-13 * np.max(np.abs(s.coeffs))

    def test_unit_l2(self, grid_mid):
        f = random_bandlimited(grid_mid, 5, 2, 6)
        assert abs(lr_quasinorm(f, 2.0) - 1.0) < 1e-10

    def test_plancherel_ratio_window(self, grid_mid):
        from szaszlab import szasz_ratio

        q = make_query("B", 0.0, 2.0, 2.0, 2.0)
        target = np.sqrt(2 * np.pi)
        for seed in range(10):
            ratio = szasz_ratio(random_bandlimited(grid_mid, seed, 2, 6), q)
            assert 0.9 * target < ratio < 1.1 * target

    def test_bad_levels_raise(self, grid_mid):
        with pytest.raises(BandError):
            random_bandlimited(grid_mid, 0, -2, 3)

    @pytest.mark.parametrize(
        "j_lo, j_hi, match",
        [(2.5, 4, "j_lo must be an integer, got 2.5"), ("2", 4, "j_lo must be an integer, got '2'"),
         (2, 4.5, "j_hi must be an integer, got 4.5"), (2, None, "j_hi must be an integer, got None")],
    )
    def test_levels_must_be_integers(self, j_lo, j_hi, match):
        with pytest.raises(ParameterError, match=match):
            random_bandlimited("mid-band", 1, j_lo, j_hi)

    def test_integral_float_levels_are_the_integer_levels(self):
        got = random_bandlimited("mid-band", 1, 2.0, 4.0).values
        assert got.tobytes() == random_bandlimited("mid-band", 1, 2, 4).values.tobytes()

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_is_a_parameter_error(self, grid_mid, seed):
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            random_bandlimited(grid_mid, seed, 2, 6)


#: the reason's lead for a power 2.0 ** x beyond the float range
_OVERFLOW = "a level weight or witness coefficient overflows a float: "


class TestDivergenceExperiment:
    def test_empty_sizes(self):
        q = make_query("B", 0.0, 2.0, 4.0, 4.0)
        assert divergence_experiment("modulated", q, []) == []

    @pytest.mark.parametrize("kind", ["modulated", "modulated_borderline", "dilated_low", "lowfreq_blowup"])
    @pytest.mark.parametrize("family, r", [("B", 2.0), ("B", 1.5), ("F", 1.5)])
    def test_size_zero_record_is_empty(self, kind, family, r):
        # no terms: an empty support, read by the norms' Parseval and
        # synthesis paths and by the weighted functional
        q = make_query(family, 2.0, r, 3.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelFidelityWarning)
            empty, full = divergence_experiment(kind, q, [0, 2], grid=GridSpec(1, 2**12, 2.0**7 * np.pi))
        assert empty.to_row()[:3] == (0, 0.0, 0.0) and np.isnan(empty.ratio)
        assert full.size == 2 and full.space_norm > 0.0 and full.lhs > 0.0

    def test_random_size_zero_record_is_empty(self):
        # no levels; the record of size 2 keeps the draws and bits it has alone
        q = make_query("B", 0.0, 2.0, 2.0, 2.0)
        empty, full = divergence_experiment("random_bandlimited", q, [0, 2], grid="mid-band", seed=5)
        assert empty.to_row()[:3] == (0, 0.0, 0.0) and np.isnan(empty.ratio)
        assert full == divergence_experiment("random_bandlimited", q, [2], grid="mid-band", seed=5)[0]

    def test_records_in_input_order(self, grid_hi_small):
        q = make_query("B", 0.0, 2.0, 4.0, 4.0)
        recs = divergence_experiment("modulated", q, [4, 2, 8], grid=grid_hi_small)
        assert [r.size for r in recs] == [4, 2, 8]
        assert all(r.ratio == pytest.approx(r.lhs / r.space_norm) for r in recs)

    def test_failing_query_ratios_increase(self, grid_hi_small):
        q = make_query("B", 0.0, 2.0, 4.0, 4.0)
        recs = divergence_experiment("modulated", q, [2, 4, 8], grid=grid_hi_small)
        ratios = [r.ratio for r in recs]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_positive_query_ratios_flat(self, grid_mid):
        q = make_query("B", 0.0, 2.0, 2.0, 2.0)
        recs = divergence_experiment("random_bandlimited", q, [2, 4, 8], grid=grid_mid, seed=3)
        assert recs[-1].ratio / recs[0].ratio < 1.2

    def test_abort_keeps_partial_records(self, grid_hi_small):
        q = make_query("B", 0.0, 2.0, 4.0, 4.0)
        with pytest.raises(ExperimentAbort) as err:
            divergence_experiment("modulated", q, [2, 99], grid=grid_hi_small)
        assert len(err.value.records) == 1
        assert err.value.records[0].size == 2
        assert "99" in err.value.reason

    @pytest.mark.parametrize(
        "kind, family, grid, reason",
        [("modulated", "B", "mid-band", "modulation weight a_1 ~ 2^(-1 * 2000.25) underflows to 0"),
         ("random_bandlimited", "F", "mid-band", _OVERFLOW + "level weight 2^(9 * 2000.0)"),
         ("dilated_low", "B", "grid_wide", _OVERFLOW + "witness coefficient 2^(1 * 1999.5)"),
         ("lowfreq_blowup", "B", "grid_wide", _OVERFLOW + "witness coefficient 2^(1 * 2000.0)")],
        ids=["besov-weight", "triebel-gain", "dilated-c_k", "blowup-b_k"],
    )
    def test_overflowing_weight_aborts(self, request, kind, family, grid, reason):
        # s = 2000 puts 2^(js) or 2^(ks) far beyond the float range for j, k >= 1, and 2^(-k theta) far below it
        grid = request.getfixturevalue(grid) if grid == "grid_wide" else grid
        q = make_query(family, 2000.0, 1.5 if kind == "lowfreq_blowup" else 2.0, 4.0, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelFidelityWarning)
            with pytest.raises(ExperimentAbort) as err:
                divergence_experiment(kind, q, [1, 2], grid=grid)
        assert err.value.records == []
        assert err.value.reason == f"size 1: {reason}"
        assert isinstance(err.value.__cause__, OverflowError if reason.startswith(_OVERFLOW) else ArithmeticError)

    @pytest.mark.parametrize("kind", ["modulated", "modulated_borderline"])
    def test_overflowing_modulation_weight_aborts(self, kind):
        # p = 1e-300 gives theta = -1e300, so numpy's 2^(-k theta) overflows
        q = make_query("B", 0.0, 2.0, 1e-300, 4.0)
        with pytest.raises(ExperimentAbort) as err:
            divergence_experiment(kind, q, [2, 3], grid="mid-band")
        assert err.value.records == []
        assert err.value.reason == (
            "size 2: a level weight or witness coefficient overflows a float: "
            "modulation weight 2^(-k theta) at theta = -9.999999999999999e+299"
        )
        assert isinstance(err.value.__cause__, OverflowError)

    @pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
    def test_huge_modulation_weights_keep_a_finite_norm(self):
        # s = -300, p = 400: weights k 2^(299.5 k) against level weights 2^(-300 j)
        q = make_query("B", -300.0, 2.0, 400.0, 4.0)
        (rec,) = divergence_experiment("modulated", q, [2], grid="mid-band")
        assert 0.0 < rec.space_norm < np.inf and 0.0 < rec.ratio < np.inf

    def test_unknown_kind(self):
        q = make_query("B", 0.0, 2.0, 2.0, 2.0)
        with pytest.raises(ParameterError, match="witness kind 'mystery'; known: .*'lowfreq_blowup'"):
            divergence_experiment("mystery", q, [2])

    @pytest.mark.parametrize("kind", ["modulated", "random_bandlimited"])
    @pytest.mark.parametrize(
        "sizes, seed, match",
        [([2], -1, "seed must be"), ([2], 0.5, "seed must be"), ([2, 2.7], 0, "size must be"), ([-1], 0, "size must be")],
    )
    def test_bad_size_or_seed_raises_before_any_record(self, monkeypatch, grid_mid, kind, sizes, seed, match):
        import szaszlab.witnesses as witnesses_module

        monkeypatch.setattr(witnesses_module, "_record", None)  # any record would fail loudly
        q = make_query("B", 0.0, 2.0, 2.0, 2.0)
        with pytest.raises(ParameterError, match=match):
            divergence_experiment(kind, q, sizes, grid=grid_mid, seed=seed)

    @pytest.mark.parametrize("sizes", [[2], []])
    def test_blowup_below_its_regime_raises_before_any_record(self, monkeypatch, sizes):
        # s <= n/r does not depend on the size: a bad input, not an abort
        import szaszlab.witnesses as witnesses_module

        monkeypatch.setattr(witnesses_module, "_record", None)  # any record would fail loudly
        q = make_query("B", 0.1, 1.5, 2.0, 2.0)
        with pytest.raises(ParameterError, match=r"needs s > n/r, got s=0.1, n/r=0.666"):
            divergence_experiment("lowfreq_blowup", q, sizes, grid="mid-band")

    def test_dimension_mismatch(self, grid_hi_small):
        q = make_query("B", 0.0, 2.0, 4.0, 4.0, n=3)
        with pytest.raises(ParameterError, match="n=3"):
            divergence_experiment("modulated", q, [2], grid=grid_hi_small)
        with pytest.raises(ParameterError, match="n=3"):
            divergence_experiment("modulated", q, [])

    def test_one_boundary_warning_per_record(self):
        # phi is 0.127 of its peak at the box boundary of mid-band, so the
        # check must fire on every record even though no field is synthesized
        # by the builder
        q = make_query("B", 0.0, 2.0, 4.0, 4.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ModelFidelityWarning)
            recs = divergence_experiment("modulated", q, [2, 4, 8], grid="mid-band")
        fidelity = [w for w in caught if issubclass(w.category, ModelFidelityWarning)]
        assert len(fidelity) == len(recs)
        assert all("box boundary" in str(w.message) for w in fidelity)


def _public_witness(kind, query, size, grid, seed):
    """The Field a public builder returns for one experiment size."""
    if kind == "random_bandlimited":
        j_hi = feasible_band(grid).j_max
        return random_bandlimited(grid, seed, j_hi - size + 1, j_hi)
    if kind == "lowfreq_blowup":
        return lowfreq_blowup_witness(grid, size, query.space.s, query.space.r)
    if kind == "dilated_low":
        return dilated_witness(grid, WitnessSpec(kind, size, query))
    weights = "linear" if kind == "modulated" else "inverse_root"
    return modulated_witness(grid, WitnessSpec(kind, size, query), weights)


class TestSpectrumNativeRecords:
    @pytest.mark.parametrize(
        "kind, query, sizes, grid_name",
        [
            ("modulated", make_query("B", 0.0, 2.0, 4.0, 4.0), [2, 5], "grid_hi_small"),
            ("modulated_borderline", make_query("F", 0.0, 2.0, 2.0, 4.0), [3, 6], "grid_hi_small"),
            ("dilated_low", make_query("B", 0.0, 2.0, 1.0, 2.0), [2, 4], "grid_wide"),
            ("random_bandlimited", make_query("B", 2.0 / 3.0, 1.5, 1.0, 1.0), [2, 4], "grid_mid"),
            ("random_bandlimited", make_query("F", 0.0, 1.5, 2.0, 1.5), [3], "grid_mid"),
            ("lowfreq_blowup", make_query("B", 2.0, 1.5, 3.0, 1.0), [2, 3], "grid_wide"),
        ],
    )
    def test_records_match_the_field_path(self, request, kind, query, sizes, grid_name):
        grid = request.getfixturevalue(grid_name)
        recs = divergence_experiment(kind, query, sizes, grid=grid, seed=7)
        for rec, size in zip(recs, sizes):
            w = _public_witness(kind, query, size, grid, 7)
            f = Field(w.grid, w.values)  # a plain field: the field path transforms it
            norm = space_norm(f, query.space)
            lhs = weighted_lhs(forward_ft(f), query.theta, query.p, query.space.setting)
            assert rec.space_norm == pytest.approx(norm, rel=1e-10)
            assert rec.lhs == pytest.approx(lhs, rel=1e-10)
            assert rec.ratio == pytest.approx(lhs / norm, rel=1e-10)

    @pytest.mark.parametrize("grid, K", [(GridSpec(1, 2**16, 16.0 * np.pi), 11), (GridSpec(2, 256, 16.0 * np.pi), 3)])
    def test_windowed_modulated_spectrum_matches_roll(self, grid, K):
        q = make_query("B", 0.0, 2.0, 4.0, 4.0, n=grid.n)
        prof = lowpass_profile(3.0 * radial_xi(grid)).astype(np.complex128)
        phi = prof / np.sqrt(np.sum(np.abs(prof) ** 2) * grid.dxi**grid.n / (2.0 * np.pi) ** grid.n)
        want = np.zeros(grid.shape, dtype=np.complex128)
        for k in range(1, K + 1):
            a_k = k * 2.0 ** (-k * q.theta)
            want += a_k * np.roll(phi, int(round(2.0**k / grid.dxi)), axis=0)
        got = _modulated_spectrum(grid, WitnessSpec("modulated", K, q), "linear").coeffs
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


#: kind -> (grid fixture, query, size, radius R of the low-frequency mass)
_CARRIERS = {
    "modulated": ("grid_hi_small", make_query("B", 0.0, 2.0, 4.0, 4.0), 6, 5.0),
    "dilated_low": ("grid_wide", make_query("B", 0.0, 2.0, 1.0, 2.0), 5, 1.0),
    "lowfreq_blowup": ("grid_wide", make_query("B", 2.0, 1.5, 3.0, 1.0), 6, 1.0),
    "random_bandlimited": ("grid_wide", make_query("B", 0.0, 2.0, 1.0, 2.0), 6, 1.0),
}


def _carrier(request, kind):
    """(the Field a public builder returns, the registry's exact spectrum of the same witness, R)."""
    grid_name, query, size, R = _CARRIERS[kind]
    grid = request.getfixturevalue(grid_name)
    _, build = witnesses_module._witness(kind)
    return _public_witness(kind, query, size, grid, 3), build(grid, WitnessSpec(kind, size, query, 3)), R


class TestWitnessFieldSpectrum:
    """A public builder's Field carries its exact spectrum, and every consumer agrees with the plain field.

    The plain ``Field(w.grid, w.values)`` is transformed, so FFT roundoff
    fills the levels the witness does not reach; at s = 2 their weights
    2^(2j) lift that to 1.5e-11 relative in the blowup report's norm here
    (9.75e-11 at M = 8 on lo-band), so the comparisons hold to rtol 1e-10,
    golden.json's tolerance.
    """

    RTOL = 1e-10

    @pytest.mark.parametrize("kind", list(_CARRIERS))
    def test_forward_ft_returns_the_builders_spectrum(self, request, kind):
        w, spec, _ = _carrier(request, kind)
        got = forward_ft(w)
        assert got is forward_ft(w)
        assert got.coeffs.tobytes() == spec.coeffs.tobytes()
        assert got._support == spec._support != Spectrum(spec.grid, spec.coeffs)._support  # not the whole grid
        assert w.values.tobytes() == inverse_ft(spec).values.tobytes()

    @pytest.mark.parametrize("kind", list(_CARRIERS))
    def test_both_arrays_are_read_only(self, request, kind):
        w, _, _ = _carrier(request, kind)
        with pytest.raises(ValueError, match="read-only"):
            w.values[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            forward_ft(w).coeffs[0] = 1.0

    def test_a_plain_field_carries_no_spectrum(self, grid_wide):
        w = lowfreq_blowup_witness(grid_wide, 3, 2.0, 1.5)
        plain = Field(w.grid, w.values)
        assert plain._spectrum is None
        got = forward_ft(plain)
        assert got is not forward_ft(plain) and got._support == ((slice(0, grid_wide.N),),)
        assert got.coeffs.flags.writeable

    @pytest.mark.parametrize("kind", list(_CARRIERS))
    def test_consumers_match_the_plain_field(self, request, kind):
        w, _, R = _carrier(request, kind)
        plain = Field(w.grid, w.values)
        for family in "BF":
            for r in (1.5, 2.0):
                params = SpaceParams(0.5, r, 2.0, family)
                assert space_norm(w, params) == pytest.approx(space_norm(plain, params), rel=self.RTOL)
        assert low_frequency_mass(w, R) == pytest.approx(low_frequency_mass(plain, R), rel=self.RTOL)
        q = make_query("B", 2.0, 1.5, 3.0, 1.0)
        got, want = realization_report(w, q, 6, R), realization_report(plain, q, 6, R)
        assert got.low_mass == pytest.approx(want.low_mass, rel=self.RTOL)
        assert got.besov == pytest.approx(want.besov, rel=self.RTOL)

    def test_blowup_report_synthesizes_only_the_levels_the_witness_reaches(self, monkeypatch, grid_wide):
        M, q = 4, make_query("B", 2.0, 1.5, 3.0, 1.0)
        w = lowfreq_blowup_witness(grid_wide, M, 2.0, 1.5)
        keys = []
        real = spaces_module._synthesized

        def spy(grid, wanted, blocks):
            for batch, source in real(grid, wanted, blocks):
                keys.extend(batch)
                yield batch, source

        monkeypatch.setattr(spaces_module, "_synthesized", spy)
        realization_report(w, q, M)
        # term k fills C_(-k), which meets the pieces of levels -k and 1 - k
        assert keys == list(range(-M, 1))
        keys.clear()
        realization_report(Field(w.grid, w.values), q, M)
        assert keys == list(feasible_band(grid_wide).levels())


def _unit(grid, prof):
    """prof scaled to unit L2 norm, its Parseval sum taken over the full grid."""
    return prof / np.sqrt(np.sum(np.abs(prof) ** 2) * grid.dxi**grid.n / (2.0 * np.pi) ** grid.n)


def _full_phi(grid):
    phi = _unit(grid, lowpass_profile(3.0 * radial_xi(grid)).astype(np.complex128))
    return Field(grid, inverse_ft(Spectrum(grid, phi)).values.real.astype(np.complex128))


def _psi_unit(grid):
    """psi's normalization, its Parseval sum taken over the full grid."""
    mass = np.sum(_psi_hat_profile(radial_xi(grid)) ** 2) * grid.dxi**grid.n / (2.0 * np.pi) ** grid.n
    return 1.0 / np.sqrt(mass)


def _full_psi(grid):
    psi = (_psi_unit(grid) * _psi_hat_profile(radial_xi(grid))).astype(np.complex128)
    return Field(grid, inverse_ft(Spectrum(grid, psi)).values.real.astype(np.complex128))


def _full_dilated(grid, query, K):
    unit = _psi_unit(grid)
    n, r, p = grid.n, query.space.r, query.p
    out = np.zeros(grid.shape, dtype=np.complex128)
    for k in range(1, K + 1):
        c_k = k ** (-1.0 / p) * 2.0 ** (k * (query.space.s - n / r))
        out += (c_k * 2.0 ** (k * n) * unit) * _psi_hat_profile(2.0**k * radial_xi(grid))
    return out


def _full_blowup(grid, M, s, r):
    n_over_r = 0.0 if np.isinf(r) else grid.n / r
    out = np.zeros(grid.shape, dtype=np.complex128)
    for k in range(1, M + 1):
        raw = _psi_hat_profile(2.0**k * radial_xi(grid))
        # the term's norm from the builder's own path, so only the spectrum writer is compared
        whole = [((slice(0, grid.N),) * grid.n, raw.astype(np.complex128))]
        norm_r = spaces_module._pieces_lr(grid, [k], lambda _: whole, r)[k]
        out += 2.0 ** (-k * (s - n_over_r) / 2.0) * 2.0 ** (k * s) / norm_r * raw
    return out


def _full_random(grid, seed, j_lo, j_hi):
    rng = np.random.default_rng(seed)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for j in range(j_lo, j_hi + 1):
        t = radial_xi(grid) / 2.0**j
        idx = np.nonzero((t > 0.75) & (t < 1.0))
        window = _mollifier_step(16.0 * (t[idx] - 0.75)) * _mollifier_step(16.0 * (1.0 - t[idx]))
        coeff = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        modulation = sum(coeff[d] / (1.0 + d) * np.exp(2j * np.pi * d * (t[idx] - 0.75) * 4.0) for d in range(4))
        level = window * modulation
        out[idx] += level / np.sqrt(np.sum(np.abs(level) ** 2) * grid.dxi**grid.n)
    return _unit(grid, out)


def _grid(request, name):
    if name == "grid_2d_512":
        return GridSpec(2, 512, 64.0 * np.pi)  # dxi = 1/32, band [-2, 2]
    return request.getfixturevalue(name)


class TestWindowedBuildersMatchFullGrid:
    """Builders that evaluate each term on its box against full-grid constructions.

    Bitwise in 1-D; the psi-scaled builders, whose normalization sum runs
    over the box instead of the grid, and every 2-D builder to 1e-15.
    """

    @staticmethod
    def _check(got, want, bitwise):
        if bitwise:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("grid_name", ["grid_mid", "grid_2d_512"])
    def test_bump_lowpass_phi(self, request, grid_name):
        grid = _grid(request, grid_name)
        self._check(bump_lowpass_phi(grid).values, _full_phi(grid).values, grid.n == 1)

    @pytest.mark.parametrize("grid_name", ["grid_wide", "grid_2d_512"])
    def test_annulus_psi(self, request, grid_name):
        grid = _grid(request, grid_name)
        self._check(annulus_psi(grid).values, _full_psi(grid).values, False)

    @pytest.mark.parametrize("grid_name, K", [("grid_wide", 6), ("grid_2d_512", 2)])
    def test_dilated_spectrum(self, request, grid_name, K):
        grid = _grid(request, grid_name)
        q = make_query("B", 0.5, 1.5, 1.5, 2.0, n=grid.n)
        got = _dilated_spectrum(grid, WitnessSpec("dilated_low", K, q)).coeffs
        self._check(got, _full_dilated(grid, q, K), False)

    @pytest.mark.parametrize("grid_name, M", [("grid_wide", 6), ("grid_2d_512", 2)])
    @pytest.mark.parametrize("r", [1.5, np.inf])
    def test_blowup_spectrum(self, request, grid_name, M, r):
        grid = _grid(request, grid_name)
        got = _blowup_spectrum(grid, M, 2.5, r).coeffs
        self._check(got, _full_blowup(grid, M, 2.5, r), grid.n == 1)

    @pytest.mark.parametrize("grid_name, levels", [("grid_mid", (0, 9)), ("grid_wide", (-9, 4)), ("grid_2d_512", (-2, 2))])
    def test_random_spectrum(self, request, grid_name, levels):
        grid = _grid(request, grid_name)
        got = _random_spectrum(grid, 9, *levels).coeffs
        self._check(got, _full_random(grid, 9, *levels), grid.n == 1)
