"""Tests of the benchmark itself: oracle, tracer, and each workload's op path.

    python3 -m pytest -q bench/tests      # from the repository root
"""

import itertools
import sys
import warnings

import pytest

import probe
import szaszlab
from golden import generate
from measure import run_section, weighted_quantile
from oracle import SweepOracle, verdict
from tracer import Tracer, layer_metrics
from workloads import FAMILIES, KNOWN_WRONG, N_VALUES, POOL, WORKLOADS, _sweep


@pytest.mark.parametrize(
    "family, s, p, q, r, weak, strong",
    [
        ("B", "0", "11", "2", "1.1", True, True),  # p = r' = 11 exactly
        ("F", "0", "6", "7", "1.2", False, False),  # p = r' = 6 < q
        ("F", "0", "6", "6", "1.2", True, True),  # q <= p = r'
        ("B", "0.5", "2", "1", "2", True, True),  # s = n/r, q <= 1
        ("B", "0.5", "2", "2", "2", True, False),  # s = n/r, q > 1
        ("B", "0", "inf", "inf", "1", True, True),  # r' = inf
        ("F", "0", "inf", "2", "1", True, True),  # q <= p = r' = inf
    ],
)
def test_oracle_boundary_verdicts(family, s, p, q, r, weak, strong):
    _, got_weak, got_strong = verdict(s, p, q, r, 1, family)
    assert (got_weak, got_strong) == (weak, strong)


def test_oracle_flags_the_float_classifier_on_boundaries():
    oracle = SweepOracle()
    ok = []
    for family, p, q, r in (("B", "11", "2", "1.1"), ("F", "6", "7", "1.2")):
        res = szaszlab.classify(
            szaszlab.SzaszQuery(szaszlab.SpaceParams(0.0, float(r), float(q), family), float(p), 1)
        )
        row = ["0", p, q, r, "1", family, repr(res.theta),
               "true" if res.weak else "false", "true" if res.strong else "false"]
        ok.append(oracle.row_ok(("0", p, q, r, 1, family), row))
    assert ok == [False, False]


def test_oracle_theta_is_exact():
    theta, _, _ = verdict("0.5", "3", "1", "1.5", 2, "B")
    assert theta == pytest.approx(0.5 + 2 - 2 / 3 - 4 / 3, abs=1e-15)
    assert str(theta) == "1/2"


def test_tracer_self_time_on_nested_calls():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return None

    def mid():
        leaf()
        leaf()

    def top():
        mid()
        leaf()

    leaf = tracer.wrap("grid.leaf", leaf)
    mid = tracer.wrap("spaces.mid", mid)
    top = tracer.wrap("cli.top", top)
    top()
    # clock reads: top 0..9, mid 1..6, leaves 2..3, 4..5 and 7..8
    assert list(tracer.parent) == [-1, 0, 1, 1, 0]
    nid, dur, own = tracer.self_times()
    assert list(dur) == [9.0, 5.0, 1.0, 1.0, 1.0]
    assert list(own) == [3.0, 3.0, 1.0, 1.0, 1.0]
    m = layer_metrics(tracer, 10.0)
    assert (m["cli.self_s"], m["spaces.self_s"], m["grid.self_s"]) == (3.0, 3.0, 3.0)
    assert m["trace.residual_s"] == 1.0


def test_weighted_quantile_repeats_each_value_by_its_weight():
    pairs = [(3.0, 1), (1.0, 4), (2.0, 5)]  # 1,1,1,1,2,2,2,2,2,3
    assert weighted_quantile(pairs, 0.1) == 1.0
    assert weighted_quantile(pairs, 0.5) == 2.0
    assert weighted_quantile(pairs, 1.0) == 3.0


@pytest.fixture(scope="module")
def smoke_golden():
    return generate(szaszlab, "smoke")


def _bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "szaszlab" or name.startswith("szaszlab.")
        for attr, value in vars(mod).items()
    }


def _same(before, after):
    # the warnings machinery may add a module's __warningregistry__
    added = {attr for _, attr in after.keys() - before.keys()}
    return added <= {"__warningregistry__"} and all(after.get(k) is v for k, v in before.items())


def test_untraced_run_patches_nothing(smoke_golden):
    wl = WORKLOADS["classify-sweep"](szaszlab, 3, "smoke")
    before = _bindings()
    sec = run_section(wl, smoke_golden, passes=1)
    assert sec.attempted > 0 and sec.sound
    assert _same(before, _bindings())


def test_probe_runs_before_the_first_op_and_after_each_op(smoke_golden):
    wl = WORKLOADS["classify-sweep"](szaszlab, 3, "smoke")
    sec = run_section(wl, smoke_golden, passes=1, probe=lambda: [0.5])
    assert sec.probe_s == [0.5] * (len(wl.next_pass()) + 1)
    ref = probe.REFERENCE_S["classify-sweep"]
    assert probe.host_factor("classify-sweep", [ref, 3 * ref]) == 2.0
    for name in ("classify-sweep", "lo-bounded"):
        probe.make(WORKLOADS[name](szaszlab, 3, "smoke"))()


def test_install_wraps_every_binding_and_uninstall_restores():
    before = _bindings()
    original = szaszlab.grid.inverse_ft
    tracer = Tracer()
    with tracer.installed():
        wrapped = szaszlab.spaces.inverse_ft
        assert wrapped is not original
        assert szaszlab.witnesses.inverse_ft is wrapped
        assert szaszlab.inverse_ft is wrapped
        assert szaszlab.grid.inverse_ft is wrapped
    assert _same(before, _bindings())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_op_path_on_small_grids(name, smoke_golden):
    wl = WORKLOADS[name](szaszlab, 5, "smoke")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wl.warmup()
        plain = run_section(wl, smoke_golden, passes=1)
        tracer = Tracer()
        with tracer.installed():
            traced = run_section(wl, smoke_golden, passes=1)
    for sec in (plain, traced):
        assert sec.sound and sec.attempted == sec.ops > 0
        if name != "classify-sweep":
            assert sec.failed == 0
    m = layer_metrics(tracer, traced.op_s)
    assert abs(m["trace.residual_share"]) < 0.2
    if name == "classify-sweep":
        assert m["szasz.classify_calls"] == traced.ops and m["grid.fft_calls"] == 0
    else:
        assert m["grid.fft_calls"] > 0 and m["spaces.norm_calls"] > 0
        assert m["spaces.syntheses_per_norm"] > 0


def test_every_sweep_pass_covers_the_pool_once(smoke_golden):
    pool_rows = 1
    for values in POOL.values():
        pool_rows *= len(values)
    pool_rows *= len(N_VALUES) * len(FAMILIES)
    for seed in (1, 2):
        wl = WORKLOADS["classify-sweep"](szaszlab, seed)
        assert wl.passes(10) == 10 and WORKLOADS["hi-divergence"](szaszlab, seed, "smoke").passes(10) == 1
        sec = run_section(wl, smoke_golden, passes=1)
        assert sec.sound and sec.attempted == pool_rows
        assert sec.failed == len(smoke_golden[KNOWN_WRONG])


def test_numeric_check_rejects_a_drifted_value(smoke_golden):
    wl = WORKLOADS["hi-divergence"](szaszlab, 0, "smoke")
    op = wl.next_pass()[0]
    out = op.run()
    assert op.check(out, smoke_golden[op.label]) == (0, True)
    out[0][1] *= 1 + 1e-8
    assert op.check(out, smoke_golden[op.label]) == (1, False)


def test_sweep_check_fails_the_run_on_a_row_outside_the_known_wrong_set(smoke_golden):
    known = smoke_golden[KNOWN_WRONG]
    assert "0,11,2,1.1,1,B" in known  # a boundary defect of the float classifier
    op = _sweep(szaszlab.cli, SweepOracle(), {"s": ["0"], "p": ["4", "11"], "q": ["2"], "r": ["1.1"]})
    code, text = op.run()
    failed, sound = op.check((code, text), known)
    assert failed > 0 and sound  # the known boundary rows count as failed only
    lines = text.splitlines()
    row = lines[1].split(",")  # s=0 p=4 q=2 r=1.1 n=1 B: not a known-wrong row
    assert row[1] == "4" and "0,4,2,1.1,1,B" not in known
    row[7] = "false" if row[7] == "true" else "true"
    lines[1] = ",".join(row)
    assert op.check((code, "\n".join(lines) + "\n"), known) == (failed + 1, False)
