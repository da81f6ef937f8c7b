"""Exponent arithmetic, the weighted functional, and the exact classifier."""

import numpy as np
import pytest

from szaszlab import (
    Field,
    ParameterError,
    SpaceParams,
    Spectrum,
    SzaszQuery,
    bump_lowpass_phi,
    classify,
    conjugate_exponent,
    dyadic_dilate,
    forward_ft,
    lr_quasinorm,
    radial_xi,
    szasz_exponent,
    szasz_ratio,
    weighted_lhs,
)

from szaszlab.witnesses import _random_spectrum

from conftest import plateau_field, wave_packet

INF = np.inf


def make_query(family, s, r, p, q, n=1, setting="homogeneous"):
    return SzaszQuery(SpaceParams(s, r, q, family, setting), p, n)


class TestConjugateExponent:
    def test_values(self):
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(1.0) == INF
        assert conjugate_exponent(0.5) == INF
        assert conjugate_exponent(INF) == 1.0
        assert conjugate_exponent(4.0 / 3.0) == pytest.approx(4.0, rel=1e-14)

    def test_invalid(self):
        with pytest.raises(ParameterError, match="invalid exponent"):
            conjugate_exponent(0.0)

    def test_involution_above_one(self):
        for r in (1.5, 2.0, 3.0, 7.0):
            assert conjugate_exponent(conjugate_exponent(r)) == pytest.approx(r, rel=1e-12)


class TestSzaszExponent:
    def test_plancherel_case(self):
        assert szasz_exponent(0.0, 2.0, 2.0, 1) == 0.0

    def test_signed_case(self):
        assert szasz_exponent(0.0, 1.5, 1.5, 1) == pytest.approx(-1.0 / 3.0)

    def test_inversion(self):
        for p, r, n in [(2.0, 3.0, 1), (1.5, 0.5, 2), (INF, 2.0, 1)]:
            s = (0.0 if np.isinf(p) else n / p) + n / r - n
            assert szasz_exponent(s, p, r, n) == pytest.approx(0.0, abs=1e-14)

    def test_infinite_exponents(self):
        assert szasz_exponent(1.0, INF, INF, 2) == 3.0


class TestSzaszQuery:
    def test_integral_float_dimension_is_the_integer(self):
        q = SzaszQuery(SpaceParams(1.0, 2.0, 2.0), 2.0, 2.0)
        assert type(q.n) is int and q.n == 2
        assert q.theta == szasz_exponent(1.0, 2.0, 2.0, 2)

    @pytest.mark.parametrize("n", [0, -1, 1.5, "2", None])
    def test_dimension_must_be_a_positive_integer(self, n):
        with pytest.raises(ParameterError, match="n must be an integer >= 1"):
            SzaszQuery(SpaceParams(1.0, 2.0, 2.0), 2.0, n)


class TestWeightedLhs:
    def test_zero(self, grid_mid):
        s = Spectrum(grid_mid, np.zeros(grid_mid.shape))
        assert weighted_lhs(s, 0.3, 2.0) == 0.0

    def test_plancherel_identity(self, grid_mid):
        f = plateau_field(grid_mid, 4)
        lhs = weighted_lhs(forward_ft(f), 0.0, 2.0, "homogeneous")
        assert lhs == pytest.approx(np.sqrt(2 * np.pi) * lr_quasinorm(f, 2.0), rel=1e-8)

    def test_dilation_scaling(self, grid_wide):
        f = wave_packet(grid_wide, 0.109, 400.0)
        theta, p = 0.4, 1.3
        base = weighted_lhs(forward_ft(f), theta, p)
        for m in (-2, 2):
            got = weighted_lhs(forward_ft(dyadic_dilate(f, m)), theta, p)
            pred = 2.0 ** (m * (1 - theta - 1 / p)) * base
            assert got == pytest.approx(pred, rel=1e-3)

    def test_sup_mode(self, grid_mid):
        coeffs = np.zeros(grid_mid.shape, dtype=complex)
        coeffs[grid_mid.center + 16] = 3.0  # xi = 2.0
        s = Spectrum(grid_mid, coeffs)
        assert weighted_lhs(s, 2.0, INF) == pytest.approx(3.0 * 2.0**2)

    def test_inhomogeneous_includes_origin(self, grid_mid):
        coeffs = np.zeros(grid_mid.shape, dtype=complex)
        coeffs[grid_mid.center] = 5.0
        s = Spectrum(grid_mid, coeffs)
        assert weighted_lhs(s, -1.0, 2.0, "homogeneous") == 0.0
        expected = (5.0**2 * grid_mid.dxi) ** 0.5  # weight (1+0)^(theta p) = 1
        assert weighted_lhs(s, -1.0, 2.0, "inhomogeneous") == pytest.approx(expected)

    def test_positivity(self, grid_mid):
        rng = np.random.default_rng(0)
        s = Spectrum(grid_mid, rng.standard_normal(grid_mid.shape) * 1j)
        assert weighted_lhs(s, 0.1, 1.5) > 0

    def test_invalid_exponent(self, grid_mid):
        s = Spectrum(grid_mid, np.zeros(grid_mid.shape))
        with pytest.raises(ParameterError, match="invalid exponent"):
            weighted_lhs(s, 0.0, -2.0)

    @pytest.mark.parametrize("p, mode", [(2.0, "homogeneous"), (2.0, "inhomogeneous"), (INF, "homogeneous")])
    def test_weight_overflowing_on_empty_bins(self, grid_mid, p, mode):
        # |xi|^120 overflows for |xi| > 2^8.5, where this spectrum is exactly zero
        s = _random_spectrum(grid_mid, 1, 2, 4)
        nonzero = s.coeffs != 0.0
        rad = radial_xi(grid_mid)[nonzero]
        weighted = (rad if mode == "homogeneous" else 1.0 + rad) ** 120.0 * np.abs(s.coeffs[nonzero])
        want = weighted.max() if p == INF else np.sum(weighted**p * grid_mid.dxi) ** (1.0 / p)
        assert np.isfinite(want) and want > 1e100
        assert weighted_lhs(s, 120.0, p, mode) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_large_weight_power_does_not_overflow(self, grid_mid):
        # |xi|^60 reaches 1e180 on mid-band, and its 8th power overflows
        s = forward_ft(bump_lowpass_phi(grid_mid))
        got = weighted_lhs(s, 60.0, 8.0)
        small = weighted_lhs(Spectrum(grid_mid, s.coeffs * 1e-200), 60.0, 8.0)
        assert np.isfinite(got)
        assert got == pytest.approx(1e200 * small, rel=1e-12, abs=0.0)


class TestClassify:
    def test_peetre_case(self):
        res = classify(make_query("B", 0.0, 2.0, 1.5, 1.5))
        assert res.weak and res.strong

    def test_large_r_fails(self):
        res = classify(make_query("B", 0.7, 3.0, 2.0, 2.0))
        assert not res.weak and not res.strong
        assert ("r<=2", False) in res.verdict_trace

    def test_f_interior_branch(self):
        res = classify(make_query("F", 0.0, 1.5, 1.5, 17.0))
        assert res.weak

    def test_f_boundary_needs_small_q(self):
        res = classify(make_query("F", 0.0, 2.0, 2.0, 4.0))
        assert not res.weak

    def test_weak_not_strong(self):
        res = classify(make_query("B", 2.0, 2.0, 2.0, 2.0))
        assert res.weak and not res.strong

    def test_critical_smoothness_small_q(self):
        for p in (1.0, 1.5, 2.0):
            res = classify(make_query("B", 0.5, 2.0, p, 1.0))
            assert res.strong

    def test_infinite_exponent_semantics(self):
        # p <= r' = inf for every p; q = inf forces p = inf
        assert classify(make_query("B", 0.0, 1.0, 7.0, 2.0)).weak
        assert not classify(make_query("B", 0.0, 1.0, 7.0, INF)).weak
        assert classify(make_query("B", 0.0, 1.0, INF, INF)).weak

    def test_inhomogeneous_same_conditions(self):
        hom = classify(make_query("F", 0.3, 1.5, 2.0, 1.5))
        inhom = classify(make_query("F", 0.3, 1.5, 2.0, 1.5, setting="inhomogeneous"))
        assert (hom.weak, hom.strong) == (inhom.weak, inhom.strong)

    def test_trace_is_flat_record(self):
        rec = classify(make_query("B", 0.0, 2.0, 2.0, 2.0)).to_record()
        assert set(rec) == {"theta", "weak", "strong", "verdict_trace"}
        assert "r<=2=pass" in rec["verdict_trace"]


def _random_exponent(rng):
    v = rng.choice([rng.uniform(0.1, 4.0), 1.0, 2.0, INF])
    return float(v)


class TestClassifierSweeps:
    def test_strong_implies_weak_10k(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            family = "B" if rng.random() < 0.5 else "F"
            r = _random_exponent(rng)
            if family == "F" and np.isinf(r):
                r = 2.0
            res = classify(
                make_query(
                    family,
                    float(rng.uniform(-2, 2)) if rng.random() < 0.9 else 1.0 / max(r, 1e-9),
                    r,
                    _random_exponent(rng),
                    _random_exponent(rng),
                    n=int(rng.integers(1, 4)),
                )
            )
            assert res.strong <= res.weak

    def test_b_and_f_agree_when_q_equals_r(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            r = float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0]))
            p = _random_exponent(rng)
            s = float(rng.uniform(-1, 1))
            b = classify(make_query("B", s, r, p, r))
            f = classify(make_query("F", s, r, p, r))
            assert b.weak == f.weak


class TestSzaszRatio:
    def test_single_band_plancherel(self, grid_mid):
        f = plateau_field(grid_mid, 4)
        ratio = szasz_ratio(f, make_query("B", 0.0, 2.0, 2.0, 2.0))
        assert ratio == pytest.approx(np.sqrt(2 * np.pi), abs=1e-6)

    def test_scalar_invariance(self, grid_mid):
        f = plateau_field(grid_mid, 4)
        q = make_query("B", 0.3, 2.0, 1.5, 2.0)
        base = szasz_ratio(f, q)
        scaled = szasz_ratio(Field(grid_mid, (0.031 - 7.7j) * f.values), q)
        assert scaled == pytest.approx(base, rel=1e-13)

    def test_dilation_invariance(self, grid_wide):
        f = wave_packet(grid_wide, 0.109, 400.0)
        q = make_query("B", 0.25, 2.0, 1.5, 2.0)
        base = szasz_ratio(f, q)
        for m in (-2, -1, 1, 2):
            assert szasz_ratio(dyadic_dilate(f, m), q) == pytest.approx(base, rel=2e-3)

    def test_modulation_invariance(self, grid_mid):
        # shift the spectrum by a few bins inside the same plateau window
        f = plateau_field(grid_mid, 5)
        s = forward_ft(f)
        modulated = Spectrum(grid_mid, np.roll(s.coeffs, 2))
        from szaszlab import inverse_ft

        g = inverse_ft(modulated)
        q = make_query("B", 0.3, 2.0, 1.5, 2.0)
        assert szasz_ratio(g, q) == pytest.approx(szasz_ratio(f, q), rel=1e-2)

    def test_zero_denominator(self, grid_mid):
        z = Field(grid_mid, np.zeros(grid_mid.shape))
        with pytest.raises(ZeroDivisionError, match="zero denominator"):
            szasz_ratio(z, make_query("B", 0.0, 2.0, 2.0, 2.0))

    def test_dimension_mismatch(self, grid_mid):
        f = plateau_field(grid_mid, 4)
        with pytest.raises(ParameterError, match="n=2"):
            szasz_ratio(f, make_query("B", 0.0, 2.0, 2.0, 2.0, n=2))

    def test_triebel_route(self, grid_mid):
        f = plateau_field(grid_mid, 4)
        q = make_query("F", 0.0, 2.0, 2.0, 2.0)
        assert szasz_ratio(f, q) == pytest.approx(np.sqrt(2 * np.pi), abs=1e-6)
