"""szaszlab benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the program measured is the one in its
``src/``.  Workloads (see workloads.py): hi-divergence, lo-bounded,
classify-sweep.

Each run starts fresh processes, one after another: with ``--trace 0``,
one that sets up and measures, with processes that only set up before
and after it, SETUP_SAMPLES[workload] set-ups in all.  Set-up is
interpreter start to the first timed op (``import szaszlab``, the preset's
``radial_xi``/``feasible_band`` and one untimed warm-up op); ``setup_s`` is
the median of the samples, which spread over the whole run so that a slow
spell of the host shifts few of them.  Every time is scaled by the host
factor of probe.py, measured in the same process: a set-up by the probe
right after it, the measured section by the probe between its ops.  The
raw times and the factors are kept in the metadata.  The measured
section runs a fixed number of whole passes, about T seconds of op time on
the baseline machine (``Workload.passes``): one on hi-divergence and
lo-bounded, whose single pass is longer than that, and T / 1 s on
classify-sweep, whose every pass sweeps the whole pool once.  So a run's
``attempted`` and ``failed`` depend only on its arguments.  With
``--trace 1`` one process runs one pass untraced, then one traced (see
tracer.py), and reports the per-layer totals of the traced section and
``trace.overhead_ratio``.

End-to-end metrics (--trace 0):
    setup_s       median set-up time, s
    ops_per_s     results per second of op time (a result is an experiment
                  record, a realization report or a sweep row)
    op_p50_s      median per-result latency; a call yielding k results gives
                  k samples of its time / k, each divided by the host factor
                  of the probe points near the call (probe.py)
    cpu_s_per_op  process user+sys CPU per result, all threads
    peak_rss_mb   peak RSS of the measuring process
    ok_rate       1 - failed / attempted; the error rate is 1 - ok_rate

Every result is checked: numeric ones against golden.json (relative
tolerance workloads.GOLDEN_RTOL), sweep rows against the exact oracle in
oracle.py.  ``failed`` counts results that raised or disagreed.  ``correct``
is false when an output could not be checked (an op raised, a sweep exited
non-zero or printed the wrong rows), a numeric result left its golden
value, or a sweep row disagrees with the oracle that is not one of the
pool rows golden.json lists as known wrong.  The known-wrong rows are the
float classifier's defects on some theorem boundaries (e.g. r = 1.1,
p = r' = 11); they are counted in ``failed`` only.

The last stdout line is the result JSON; the line before it holds the run
metadata.  Trace spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: set-up samples per untraced run: more where a set-up is short, fewer
#: where it and the measured pass are long
SETUP_SAMPLES = {"hi-divergence": 3, "lo-bounded": 5, "classify-sweep": 13}
#: a child that takes longer than this is stopped and the run fails
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("bytes_computed") or name.endswith("bytes_written"):
        return "B"
    if name.endswith(("_ratio", "_share", "_per_norm")):
        return "ratio"
    return "count"


def _child(root: Path, args, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", str(root), "--t0", repr(time.monotonic()),
    ] + (["--setup-only"] if setup_only else [])
    timeout = min(CHILD_TIMEOUT_S, max(1.0, deadline - time.monotonic()))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=root)
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit(root: Path):
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(root: Path, child: dict) -> dict:
    src = root / "src"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **child["environment"],
        "git_commit": _git_commit(root),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py"))),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="szaszlab benchmark, one workload run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "szaszlab" / "__init__.py").is_file():
        print(f"run.py: no src/szaszlab under {root}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + 175.0
    try:
        extra = 0 if args.trace else SETUP_SAMPLES[args.workload] - 1
        setups = [_child(root, args, True, deadline) for _ in range(extra // 2)]
        res = _child(root, args, False, deadline)
        setups += [res] + [_child(root, args, True, deadline) for _ in range(extra - extra // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    attempted, failed = res["attempted"], res["failed"]

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(res["layers"].items())}
    else:
        h = res["host_factor"]
        shown = {
            "setup_s": statistics.median(s["setup_s"] / s["setup_host_factor"] for s in setups),
            "ops_per_s": res["ops"] / res["op_s"] * h,
            "op_p50_s": res["op_p50_s"],
            "cpu_s_per_op": res["cpu_s"] / res["ops"] / h,
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_rate": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in shown.items()}

    meta = metadata(root, res)
    meta.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        results=res["ops"], op_s=res["op_s"], raw_op_p50_s=res["raw_op_p50_s"],
        host_factor=res.get("host_factor"),
        raw_setup_s=[s["setup_s"] for s in setups],
        setup_host_factors=[s["setup_host_factor"] for s in setups],
    )
    print(f"# {args.workload} seed={args.seed}: {res['ops']} results in {res['op_s']:.3f} s of op time, "
          f"{failed} of {attempted} failed (error_rate {failed / attempted:.6g}), "
          f"median of {res['ops']} per-result latencies {res.get('op_p50_s', res['raw_op_p50_s']):.6g} s")
    for k, v in metrics.items():
        print(f"#   {k:32s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"metadata": meta}))
    print(json.dumps({
        "correct": bool(res["sound"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
