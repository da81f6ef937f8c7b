"""The benchmark's workloads: inputs made from the seed, passes of ops, checks.

An op is one timed call into szaszlab's public API or CLI.  It yields
``results`` results: experiment records, realization reports or sweep rows.
A result fails when the op raises or when it disagrees with its reference.

* ``hi-divergence``: hi-band preset (2^21 points, 17 levels), the paper's
  failing-direction runs: ``modulated`` for B(s=0, r=2, p=4, q=4) at sizes
  2,4,8,16 and ``modulated_borderline`` for F(s=0, r=2, p=2, q=4) at sizes
  4,16.  Largest grid, per-level full-grid synthesis dominates; the
  witnesses are level-localized and nested and the Besov part has r=2, so
  Parseval shortcuts and nested-size caching show here.  Its inputs are
  fixed by the paper, so the seed changes nothing.
* ``lo-bounded``: lo-band preset (2^20 points, 16 levels), all at r=1.5:
  ``random_bandlimited`` for B(2/3, 1.5, p=1, q=1) and F(0, 1.5, p=2,
  q=1.5) at sizes 2,4,8,16 with fields drawn from the seed, and
  ``lowfreq_blowup_witness(M, s=2, r=1.5)`` with ``realization_report`` for
  M in 2,4,6,8.  Bypasses r=2 shortcuts and nesting.
* ``classify-sweep``: in-process ``szaszlab sweep`` invocations over seeded
  slices of an exponent pool holding the theorem's boundaries (p = r' for
  r = 1+1/m, s = n/r, inf).  Only the classifier and the CLI work here.
  A pass cuts the whole pool into slices, a new seeded cut each pass, so
  every pass sweeps each pool row once and fails on the same rows.

A pass is a fixed list of ops.  A measured section runs a number of whole
passes fixed by ``--seconds`` (``Workload.passes``), so the same arguments
always do the same work and fail on the same results.
"""

from __future__ import annotations

import importlib
import io
import itertools
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

from oracle import SweepOracle

#: relative tolerance against golden.json: the r=2 Parseval shortcut agrees
#: with the full-grid path to 3e-16, a decimated r=1.5 synthesis errs by 2e-5
GOLDEN_RTOL = 1e-10

#: lo-bounded draws its random fields from seed % FIELD_SEEDS; golden.json
#: holds the references of exactly these fields
FIELD_SEEDS = 16

#: the sweep pool: decimal strings, read exactly by the oracle.  r = 1.1,
#: 1.2, 1.25, 1.5, 2 pair with p = r' = 11, 6, 5, 3, 2; the s values hit
#: s = n/r for r in 0.5, 1, 1.25, 2 and n in 1, 2, 3
POOL = {
    "s": ["-1", "0", "0.5", "0.8", "1", "1.5", "1.6", "2", "2.4", "3", "4", "6"],
    "p": ["0.5", "1", "1.5", "2", "3", "4", "5", "6", "11", "inf"],
    "q": ["0.5", "1", "2", "3", "5", "6", "7", "11", "inf"],
    "r": ["0.5", "1", "1.1", "1.2", "1.25", "1.5", "2", "3"],
}
#: key in golden.json of the pool rows the program got wrong when it was made
KNOWN_WRONG = "classify-sweep/known-wrong"
#: at most this many values per axis in one sweep invocation
SLICE = {"s": 3, "p": 3, "q": 3, "r": 2}
N_VALUES = (1, 2, 3)
FAMILIES = ("B", "F")

#: grids and sizes; "smoke" is a small stand-in used by the benchmark's tests
SCALES = {
    "full": {
        "hi": lambda S: S.GRID_PRESETS["hi-band"],
        "lo": lambda S: S.GRID_PRESETS["lo-band"],
        "modulated": [2, 4, 8, 16],
        "borderline": [4, 16],
        "random": [2, 4, 8, 16],
        "blowup": [2, 4, 6, 8],
        "sweeps": None,  # every slice of the pool
    },
    "smoke": {
        "hi": lambda S: S.GRID_PRESETS["mid-band"],
        "lo": lambda S: S.GridSpec(n=1, N=2**12, L=2.0**8 * 2.0 * math.pi),
        "modulated": [2, 4],
        "borderline": [4],
        "random": [2, 4],
        "blowup": [2, 4],
        "sweeps": 2,
    },
}


@dataclass
class Op:
    """One timed call and the check of what it returned.

    ``check(output, reference)`` returns (failed results, sound); ``sound``
    is False when the output could not be matched to a reference at all, a
    numeric result left its golden value, or a sweep row outside the known
    wrong ones disagrees with the oracle.
    """

    label: str  # key in golden.json of the reference passed to check
    results: int
    run: Callable[[], object]
    check: Callable[[object, object], tuple]


@dataclass
class Workload:
    grid: object  # GridSpec whose radial_xi/feasible_band set-up prepares, or None
    warmup: Callable[[], object]
    next_pass: Callable[[], list]
    pass_s: float  # about the seconds of one pass on the baseline machine
    prepare: Callable[[], None] = lambda: None  # benchmark-side work, after set-up is timed

    def passes(self, seconds: float) -> int:
        """Passes a measured section of ``seconds`` runs: a fixed count, not a deadline."""
        return max(1, round(seconds / self.pass_s))


def _close(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return got == want or abs(got - want) <= GOLDEN_RTOL * abs(want)
    return got == want


def _check_rows(rows, want) -> tuple:
    if len(rows) != len(want):
        return len(rows), False
    failed = sum(
        not (len(g) == len(w) and all(_close(a, b) for a, b in zip(g, w)))
        for g, w in zip(rows, want)
    )
    return failed, failed == 0


def _experiment(S, label, kind, query, sizes, grid, seed=0) -> Op:
    def run():
        records = S.divergence_experiment(kind, query, sizes, grid=grid, seed=seed)
        return [list(r.to_row()) for r in records]

    return Op(label, len(sizes), run, _check_rows)


def _blowup_report(S, label, grid, M, query) -> Op:
    def run():
        f = S.lowfreq_blowup_witness(grid, M, query.space.s, query.space.r)
        rep = S.realization_report(f, query, M)
        return [[rep.M, rep.low_mass, rep.besov, rep.feasible]]

    return Op(label, 1, run, _check_rows)


def _query(S, family, s, r, q, p):
    return S.SzaszQuery(S.SpaceParams(s, r, q, family), p, 1)


def hi_divergence(S, seed: int, scale: str = "full") -> Workload:
    cfg = SCALES[scale]
    grid = cfg["hi"](S)
    qb = _query(S, "B", 0.0, 2.0, 4.0, 4.0)
    qf = _query(S, "F", 0.0, 2.0, 4.0, 2.0)
    ops = [
        _experiment(S, "hi-divergence/modulated", "modulated", qb, cfg["modulated"], grid),
        _experiment(
            S, "hi-divergence/modulated_borderline", "modulated_borderline", qf,
            cfg["borderline"], grid,
        ),
    ]
    # size 1 is not timed, so the warm-up computes no timed record
    warm = lambda: S.divergence_experiment("modulated", qb, [1], grid=grid)
    return Workload(grid, warm, lambda: ops, 23.0)


def lo_bounded(S, seed: int, scale: str = "full") -> Workload:
    cfg = SCALES[scale]
    grid = cfg["lo"](S)
    fs = seed % FIELD_SEEDS
    qb = _query(S, "B", 2.0 / 3.0, 1.5, 1.0, 1.0)
    qf = _query(S, "F", 0.0, 1.5, 1.5, 2.0)
    qr = _query(S, "B", 2.0, 1.5, 1.0, 3.0)
    ops = [
        _experiment(
            S, f"lo-bounded/random_bandlimited/B/{fs}", "random_bandlimited", qb,
            cfg["random"], grid, fs,
        ),
        _experiment(
            S, f"lo-bounded/random_bandlimited/F/{fs}", "random_bandlimited", qf,
            cfg["random"], grid, FIELD_SEEDS + fs,
        ),
    ] + [_blowup_report(S, f"lo-bounded/lowfreq_blowup/{M}", grid, M, qr) for M in cfg["blowup"]]
    # field seed 2 * FIELD_SEEDS and size 1 are never timed
    warm = lambda: S.divergence_experiment(
        "random_bandlimited", qb, [1], grid=grid, seed=2 * FIELD_SEEDS
    )
    return Workload(grid, warm, lambda: ops, 21.0)


def _sweep_call(axes: dict) -> tuple:
    """argv of one ``szaszlab sweep`` over ``axes`` and the keys of its rows, in order."""
    argv = ["sweep"]
    for name in ("s", "p", "q", "r"):
        argv.append(f"--{name}=" + ",".join(axes[name]))  # "=" lets a value start with "-"
    argv += ["--n", ",".join(map(str, N_VALUES)), "--family", ",".join(FAMILIES), "--out", "-"]
    keys = list(itertools.product(axes["s"], axes["p"], axes["q"], axes["r"], N_VALUES, FAMILIES))
    return argv, keys


def _run_cli(cli, argv) -> tuple:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def row_key(key) -> str:
    """A sweep row's key (s, p, q, r, n, family) as it is stored in golden.json."""
    return ",".join(map(str, key))


def _sweep(cli, oracle: SweepOracle, axes: dict) -> Op:
    argv, keys = _sweep_call(axes)

    def check(out, known_wrong):
        # every wrong row fails; a wrong row that the program got right when
        # golden.json was made also makes the run unsound
        code, text = out
        wrong = oracle.wrong_rows(keys, text) if code == 0 else None
        if wrong is None:
            return len(keys), False
        return len(wrong), not {row_key(k) for k in wrong}.difference(known_wrong)

    return Op(KNOWN_WRONG, len(keys), lambda: _run_cli(cli, argv), check)


def known_wrong_rows(S) -> list:
    """Keys of the pool rows on which the program's sweep disagrees with the oracle."""
    argv, keys = _sweep_call(POOL)
    code, text = _run_cli(importlib.import_module(f"{S.__name__}.cli"), argv)
    wrong = SweepOracle().wrong_rows(keys, text) if code == 0 else None
    if wrong is None:
        raise RuntimeError(f"sweep over the pool exited with {code} or printed the wrong rows")
    return sorted(row_key(k) for k in wrong)


def classify_sweep(S, seed: int, scale: str = "full") -> Workload:
    cfg = SCALES[scale]
    rng = random.Random(seed)
    oracle = SweepOracle()
    cli = importlib.import_module(f"{S.__name__}.cli")

    def cut(values, size):
        # shuffled, then dealt into ceil(len / size) groups of near-equal size
        order = rng.sample(range(len(values)), len(values))
        k = -(-len(values) // size)
        return [[values[i] for i in sorted(order[j::k])] for j in range(k)]

    def next_pass():
        groups = [cut(POOL[k], n) for k, n in SLICE.items()]
        slices = [dict(zip(SLICE, axes)) for axes in itertools.product(*groups)]
        rng.shuffle(slices)
        return [_sweep(cli, oracle, axes) for axes in slices[: cfg["sweeps"]]]

    def prepare():
        # the whole pool's verdicts, so the oracle's memory does not grow
        # with the number of rows a run gets through
        for key in _sweep_call(POOL)[1]:
            oracle.expected(key)

    warm_op = _sweep(cli, oracle, {k: v[:1] for k, v in POOL.items()})
    return Workload(None, warm_op.run, next_pass, 1.0, prepare)


WORKLOADS = {
    "hi-divergence": hi_divergence,
    "lo-bounded": lo_bounded,
    "classify-sweep": classify_sweep,
}
