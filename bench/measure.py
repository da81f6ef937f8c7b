"""One measured run of one workload, in a fresh process started by run.py.

Prints one JSON object as its last stdout line: the set-up time, the timed
section's totals, and with ``--trace 1`` the per-layer totals of a second,
traced section of the same number of passes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import probe as P  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDEN = HERE / "golden.json"


@dataclass
class Section:
    """Totals of one measured section: whole passes of ops."""

    ops: int = 0  # results produced; an op's call yields one or more
    op_s: float = 0.0  # wall time inside timed calls
    cpu_s: float = 0.0  # process user+sys CPU inside timed calls, all threads
    latencies: list = field(default_factory=list)  # (per-result latency, results) per call
    attempted: int = 0
    failed: int = 0
    sound: bool = True
    bytes_out: int = 0  # characters of CLI output
    probe_s: list = field(default_factory=list)  # seconds of each host-speed probe call


def run_section(workload, golden: dict, passes: int, probe=None) -> Section:
    """Run ``passes`` whole passes of the workload.

    Each op is timed alone; its output is checked after the clock stops.
    ``probe``, when given, returns the seconds of a few host-speed probe
    calls (see probe.py); it runs before the first op and after each op,
    outside the timed part.
    """
    sec = Section()
    if probe is not None:
        sec.probe_s += probe()
    for _ in range(passes):
        for op in workload.next_pass():
            want = golden[op.label]
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out = op.run()
            except Exception:  # a failed op is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                out = None
            t1, c1 = time.perf_counter(), time.process_time()
            if out is None:
                failed, sound = op.results, False
            else:
                failed, sound = op.check(out, want)
                if isinstance(out, tuple):  # a sweep op: (exit code, CLI output)
                    sec.bytes_out += len(out[1])
            sec.op_s += t1 - t0
            sec.cpu_s += c1 - c0
            sec.ops += op.results
            sec.latencies.append(((t1 - t0) / op.results, op.results))
            sec.attempted += op.results
            sec.failed += failed
            sec.sound = sec.sound and sound
            if probe is not None:
                sec.probe_s += probe()
    return sec


def weighted_quantile(pairs, fraction: float) -> float:
    """Quantile of (value, weight) pairs, each value repeated weight times.

    Takes the value at 0-based rank floor(fraction * (total - 1)).
    """
    pairs = sorted(pairs)
    rank = int(fraction * (sum(w for _, w in pairs) - 1))
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen > rank:
            return value
    raise ValueError("no samples")


def _environment(S, np, scipy) -> dict:
    presets = {}
    for name, g in S.GRID_PRESETS.items():
        band = S.feasible_band(g)
        presets[name] = {"n": g.n, "N": g.N, "L": g.L, "levels": [band.j_min, band.j_max]}
    return {"numpy": np.__version__, "scipy": scipy.__version__, "presets": presets}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True, help="checkout whose src/ is measured")
    args = ap.parse_args(argv)

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy
    import szaszlab as S

    if not Path(S.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"szaszlab imported from {S.__file__}, not from {src}")
    golden = json.loads(GOLDEN.read_text())["references"]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        workload = WORKLOADS[args.workload](S, args.seed)
        if workload.grid is not None:
            S.radial_xi(workload.grid)
            S.feasible_band(workload.grid)
        workload.warmup()
        out = {"setup_s": time.monotonic() - args.t0}
        probe = P.make(workload)
        out["setup_host_factor"] = P.host_factor(
            args.workload, P.timed(probe, P.SETUP_CALLS[args.workload])
        )
        if not args.setup_only:
            workload.prepare()
            if args.trace:
                plain = run_section(workload, golden, passes=1)
                warned = len(caught)
                tracer = Tracer()
                with tracer.installed():
                    traced = run_section(workload, golden, passes=1)
                layers = layer_metrics(tracer, traced.op_s)
                layers["trace.ops"] = traced.ops
                layers["trace.overhead_ratio"] = (traced.ops / traced.op_s) / (plain.ops / plain.op_s)
                layers["spaces.fidelity_warnings"] = sum(
                    issubclass(w.category, S.ModelFidelityWarning) for w in caught[warned:]
                )
                layers["cli.bytes_written"] = traced.bytes_out
                (HERE / "out").mkdir(exist_ok=True)
                tracer.save(HERE / "out" / f"trace-{args.workload}.npz")
                out["layers"] = layers
                sec, checked = traced, (plain, traced)
            else:
                sec = run_section(workload, golden, passes=workload.passes(args.seconds),
                                  probe=lambda: P.timed(probe))
                factors = P.op_factors(args.workload, sec.probe_s)
                latencies = [(t / f, n) for (t, n), f in zip(sec.latencies, factors)]
                out["op_p50_s"] = weighted_quantile(latencies, 0.5)
                out["host_factor"] = sec.op_s / sum(t * n for t, n in latencies)
                checked = (sec,)
            out.update(
                ops=sec.ops,
                op_s=sec.op_s,
                cpu_s=sec.cpu_s,
                raw_op_p50_s=weighted_quantile(sec.latencies, 0.5),
                attempted=sum(s.attempted for s in checked),
                failed=sum(s.failed for s in checked),
                sound=all(s.sound for s in checked),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                environment=_environment(S, np, scipy),
            )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
