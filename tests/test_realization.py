"""Partial-sum realizations and low-frequency mass diagnostics."""

import numpy as np
import pytest

from szaszlab import (
    BandError,
    Field,
    ParameterError,
    SpaceParams,
    SzaszQuery,
    WitnessSpec,
    classify,
    dilated_witness,
    grid_translate,
    low_frequency_mass,
    lowfreq_blowup_witness,
    lp_project,
    random_bandlimited,
    realization_feasible,
    realization_report,
    sigma0_partial,
    space_norm,
)

from conftest import plateau_field


def make_query(family, s, r, p, q, n=1):
    return SzaszQuery(SpaceParams(s, r, q, family), p, n)


class TestSigma0Partial:
    def test_zero_field(self, grid_mid):
        z = Field(grid_mid, np.zeros(grid_mid.shape))
        assert np.all(sigma0_partial(z, 4).values == 0)

    def test_reconstructs_banded_field(self, grid_mid):
        f = Field(grid_mid, plateau_field(grid_mid, 3).values + plateau_field(grid_mid, 5).values)
        rec = sigma0_partial(f, 9)
        assert np.max(np.abs(rec.values - f.values)) < 1e-10 * np.max(np.abs(f.values))

    def test_telescoping(self, grid_wide):
        rng = np.random.default_rng(12)
        f = Field(grid_wide, rng.standard_normal(grid_wide.shape))
        inc = sigma0_partial(f, 4).values - sigma0_partial(f, 3).values
        expected = lp_project(f, -4).values + lp_project(f, 4).values
        assert np.max(np.abs(inc - expected)) < 1e-12 * max(1.0, np.max(np.abs(expected)))

    def test_band_miss_raises(self, grid_mid):
        # feasible band of grid_mid starts at 0, so [-M, M] always meets it;
        # construct a high-only request via a fresh spec on the wide grid
        f = Field(grid_mid, np.zeros(grid_mid.shape))
        assert sigma0_partial(f, 0) is not None
        from szaszlab import GridSpec

        g = GridSpec(1, 16384, 1.0)  # band well above 0
        z = Field(g, np.zeros(g.shape))
        with pytest.raises(BandError):
            sigma0_partial(z, 1)

    def test_commutes_with_translation(self, grid_mid):
        f = plateau_field(grid_mid, 4)
        a = 23 * grid_mid.dx
        lhs = sigma0_partial(grid_translate(f, a), 6)
        rhs = grid_translate(sigma0_partial(f, 6), a)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12 * np.max(np.abs(rhs.values))


class TestLowFrequencyMass:
    def test_zero_field(self, grid_mid):
        z = Field(grid_mid, np.zeros(grid_mid.shape))
        assert low_frequency_mass(z, 1.0) == 0.0

    def test_high_band_field_has_none(self, grid_mid):
        # selection mask excludes every populated bin; only transform
        # roundoff (~1e-16 per bin) survives
        f = plateau_field(grid_mid, 4)  # spectrum above xi = 12
        assert low_frequency_mass(f, 1.0) < 1e-13 * low_frequency_mass(f, 20.0)

    def test_radius_below_resolution(self, grid_mid):
        f = plateau_field(grid_mid, 4)
        with pytest.raises(BandError, match="radius below resolution"):
            low_frequency_mass(f, 0.05)

    def test_blowup_grows_while_norm_stalls(self, grid_wide):
        from szaszlab import besov_norm

        masses, norms = [], []
        for M in (2, 4, 6):
            w = lowfreq_blowup_witness(grid_wide, M, 2.0, 2.0)
            masses.append(low_frequency_mass(w, 1.0))
            norms.append(besov_norm(w, SpaceParams(2.0, 2.0, 2.0)))
        assert masses[1] > 2.5 * masses[0] and masses[2] > 2.5 * masses[1]
        assert max(norms) / min(norms) < 1.1


class TestRealizationFeasible:
    def test_subcritical(self):
        assert realization_feasible(make_query("B", 0.0, 2.0, 2.0, 2.0))

    def test_critical_besov_needs_small_q(self):
        assert realization_feasible(make_query("B", 0.5, 2.0, 2.0, 1.0))
        assert not realization_feasible(make_query("B", 0.5, 2.0, 2.0, 2.0))

    def test_critical_triebel_needs_small_r(self):
        assert not realization_feasible(make_query("F", 0.5, 2.0, 2.0, 0.5))
        assert realization_feasible(make_query("F", 1.0, 1.0, 2.0, 0.5))

    def test_supercritical_fails(self):
        assert not realization_feasible(make_query("B", 2.0, 2.0, 2.0, 2.0))

    def test_strong_is_weak_and_feasible(self):
        rng = np.random.default_rng(21)
        choices = [0.5, 1.0, 1.5, 2.0, 3.0, np.inf]
        for _ in range(10_000):
            family = "B" if rng.random() < 0.5 else "F"
            r = float(rng.choice(choices))
            if family == "F" and np.isinf(r):
                r = 2.0
            n = int(rng.integers(1, 4))
            s = float(rng.choice([rng.uniform(-2, 2), n / r if r else 0.0]))
            q = make_query(family, s, r, float(rng.choice(choices)), float(rng.choice(choices)), n)
            res = classify(q)
            assert res.strong == (res.weak and realization_feasible(q))


class TestRealizationReport:
    def test_negative_M_is_a_parameter_error(self, grid_mid):
        f = plateau_field(grid_mid, 3)
        with pytest.raises(ParameterError, match="M must be an integer >= 0"):
            sigma0_partial(f, -1)
        with pytest.raises(ParameterError, match="M must be an integer >= 0"):
            realization_report(f, make_query("B", 0.0, 2.0, 1.0, 2.0), M=-1)

    @pytest.mark.parametrize("M", [2.5, 1.5, "3"])
    def test_non_integer_M_is_a_parameter_error(self, M):
        f = random_bandlimited("mid-band", 1, 2, 4)
        with pytest.raises(ParameterError, match="M must be an integer >= 0"):
            sigma0_partial(f, M)
        with pytest.raises(ParameterError, match="M must be an integer >= 0"):
            realization_report(f, make_query("B", 0.0, 2.0, 1.0, 2.0), M)

    @pytest.mark.parametrize("M", [3, 3.0])
    def test_record_holds_the_validated_M(self, M):
        f = random_bandlimited("mid-band", 1, 2, 4)
        rec = realization_report(f, make_query("B", 0.0, 2.0, 1.0, 2.0), M).to_record()
        assert type(rec["M"]) is int and rec["M"] == 3

    @pytest.mark.parametrize("n", [2, 3])
    def test_query_dimension_must_match_the_field(self, n):
        f = random_bandlimited("mid-band", 1, 2, 4)
        with pytest.raises(ParameterError, match=f"query has n={n} but the grid is 1-dimensional"):
            realization_report(f, make_query("B", 0.0, 2.0, 1.0, 2.0, n=n), 3)

    def test_report_fields(self, grid_wide):
        q = make_query("B", 0.0, 2.0, 1.0, 2.0)
        f = dilated_witness(grid_wide, WitnessSpec("dilated_low", 4, q))
        rep = realization_report(f, q, M=6)
        assert rep.M == 6
        assert rep.low_mass > 0
        assert rep.besov > 0
        assert rep.feasible is True
        rec = rep.to_record()
        assert set(rec) == {"M", "low_mass", "space_norm", "feasible"}

    @pytest.mark.parametrize("family", ["B", "F"])
    def test_equals_the_composition_of_public_parts(self, grid_wide, family):
        q = make_query(family, 2.0, 1.5, 3.0, 1.0)
        f = lowfreq_blowup_witness(grid_wide, 4, 2.0, 1.5)
        rep = realization_report(f, q, M=4)
        assert rep.low_mass == pytest.approx(
            low_frequency_mass(sigma0_partial(f, 4), 1.0), rel=1e-12
        )
        assert rep.besov == space_norm(f, q.space)
        assert rep.feasible == realization_feasible(q)

    def test_mass_sequence_cauchy_for_admissible_field(self, grid_wide):
        # a fixed band-limited field: sigma0 partial sums exhaust its band,
        # after which the low-frequency mass increments vanish identically
        q = make_query("B", 0.0, 2.0, 1.0, 2.0)
        f = dilated_witness(grid_wide, WitnessSpec("dilated_low", 5, q))
        masses = [low_frequency_mass(sigma0_partial(f, M), 1.0) for M in range(2, 9)]
        increments = [abs(b - a) for a, b in zip(masses, masses[1:])]
        assert increments[-1] < 1e-6
        assert increments[-2] < 1e-6
