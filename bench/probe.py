"""Host-speed probe: fixed work, independent of szaszlab, timed between ops.

The benchmark runs on a shared machine whose speed drifts by up to 2x over
minutes with the load of other tenants, longer than a run lasts.  So a run
also times a probe of fixed work right before its first op and after every
op.  An op's host factor is the mean time of the probe points near it
divided by ``REFERENCE_S``, about the probe's median on the machine the
baseline was taken on.  Each op's time is divided by its factor, so it
reads as seconds on that machine at a typical speed, and so are the
section's CPU time (by the section's factor) and each set-up (by the
probe timed right after it, in the same process).

Each workload gets a probe like its own work.  classify-sweep's is
interpreter work (exact fractions, float formatting, JSON), like the
classifier and the CLI.  The numeric workloads' probe is two inverse FFTs
and a fractional power on an array of the workload's grid size, like the
LP layers.  Over the ten runs of baseline.json the factor takes the spread
of ``ops_per_s`` from 0.185 (raw) to 0.010 on classify-sweep, from 0.064 to
0.032 on lo-bounded and from 0.075 to 0.054 on hi-divergence, whose pass
has only three probe points, 7-16 s apart.  The probe shares no code with
szaszlab, so a faster szaszlab does not speed it up, and keeps no array
between calls, so it adds nothing to the peak RSS.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

import numpy as np

#: median seconds of one call of each workload's probe on the baseline
#: machine (2-CPU Xeon)
REFERENCE_S = {"hi-divergence": 0.44, "lo-bounded": 0.195, "classify-sweep": 1.4e-3}
#: an op's host factor averages WINDOW + 1 probe points on each side of it
WINDOW = 5
#: probe calls right after set-up; a measured section makes one call at each
#: of its probe points
SETUP_CALLS = {"hi-divergence": 2, "lo-bounded": 2, "classify-sweep": 30}


def make(workload):
    """A zero-argument callable doing the fixed work of the workload's probe."""
    if workload.grid is None:
        values = [Fraction(k, 8) for k in range(1, 41)]
        doc = {"rows": [[i, i * 0.125, f"v{i}"] for i in range(40)], "inf": "inf"}

        def probe():
            total = Fraction(0)
            for a, b in zip(values, values[1:]):
                total += a / (a + b) if a <= b * 2 else b - a
            lines = [",".join((repr(float(v) / 3), str(i), "true" if v < 2 else "false"))
                     for i, v in enumerate(values * 8)]
            return total, len(json.loads(json.dumps(doc))["rows"]), len("\n".join(lines))

        return probe
    points = workload.grid.N ** workload.grid.n

    def probe():
        # the input is made in each call: an array kept between calls would
        # add its size to the workload's peak RSS
        x = np.exp(1j * np.linspace(0.0, 1e3, points))
        total = 0.0
        for _ in range(2):
            total += float(np.sum(np.abs(np.fft.ifft(x)) ** 1.5))
        return total

    return probe


def timed(probe, calls: int = 1) -> list:
    """Seconds of each of ``calls`` consecutive calls of ``probe``."""
    out = []
    for _ in range(calls):
        t0 = time.perf_counter()
        probe()
        out.append(time.perf_counter() - t0)
    return out


def op_factors(workload_name: str, seconds: list) -> list:
    """Host factor of each op of a section.

    ``seconds`` holds the probe time at each probe point, one before the
    first op and one after each op; an op's factor is the mean of the
    WINDOW + 1 points on each side of it, over the reference.
    """
    ref = REFERENCE_S[workload_name]
    return [
        statistics.fmean(seconds[max(0, i - WINDOW) : i + WINDOW + 2]) / ref
        for i in range(len(seconds) - 1)
    ]


def host_factor(workload_name: str, seconds: list) -> float:
    """How much slower than the reference the host ran: mean probe time / reference."""
    return statistics.fmean(seconds) / REFERENCE_S[workload_name]
