"""Run every workload k times and print the median and quartiles of every metric.

    python3 bench/steady.py [--runs 10] [--json PATH]

From the repository root.  Runs are untraced, measure BENCHMARK.json's
run_seconds and use seeds 1 .. runs; workloads are interleaved within each
seed.  Spread is (q3 - q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``; for a metric with a
bound in BENCHMARK.json the spread is shown against a third of that bound.
With ``--runs 1`` it is the one command that runs every workload and
prints every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--json", default=None, help="also write the summary here")
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in WORKLOADS}
    runs = {w: [] for w in WORKLOADS}
    for seed in range(1, args.runs + 1):
        for w in WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            meta = json.loads(lines[-2])["metadata"]
            runs[w].append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                            "failed": res["failed"], "host_factor": meta["host_factor"],
                            "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            extra = {"error_rate": (res["failed"] / res["attempted"], "ratio")}
            for k, v in res["metrics"].items():
                values[w].setdefault(k, (v["unit"], []))[1].append(v["value"])
            for k, (v, unit) in extra.items():  # printed, not bounded
                values[w].setdefault(k, (unit, []))[1].append(v)
            print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                  file=sys.stderr, flush=True)

    summary = {}
    for w in WORKLOADS:
        print(f"\n{w} ({args.runs} runs)")
        print(f"  {'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound/3':>8s}")
        summary[w] = {}
        for k, (unit, vals) in sorted(values[w].items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            b = bounds.get(k)
            third = f"{b / 3:.4f}" if b else ""
            flag = " !" if b and spread > b / 3 else ""
            print(f"  {k:34s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {third:>8s}{flag}")
            summary[w][k] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread}
    if args.json:
        Path(args.json).write_text(json.dumps({"metadata": meta, "seconds": seconds,
                                               "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
