"""Witness constructions against their series/annulus oracles."""

import warnings

import numpy as np
import pytest

from szaszlab import (
    BandError,
    ExperimentAbort,
    GridSpec,
    ModelFidelityWarning,
    ParameterError,
    SpaceParams,
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
    lowfreq_blowup_witness,
    lowpass_profile,
    lr_quasinorm,
    modulated_witness,
    radial_xi,
    random_bandlimited,
    space_norm,
    weighted_lhs,
)
from szaszlab.realization import low_frequency_mass
from szaszlab.witnesses import _modulated_spectrum


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


class TestDivergenceExperiment:
    def test_empty_sizes(self):
        q = make_query("B", 0.0, 2.0, 4.0, 4.0)
        assert divergence_experiment("modulated", q, []) == []

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

    def test_unknown_kind(self):
        q = make_query("B", 0.0, 2.0, 2.0, 2.0)
        with pytest.raises(ParameterError, match="witness kind"):
            divergence_experiment("mystery", q, [2])

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
            f = _public_witness(kind, query, size, grid, 7)
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
