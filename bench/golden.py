"""Regenerate golden.json, the reference outputs of every numeric op.

    python3 bench/golden.py            # from the repository root

Runs each hi-divergence and lo-bounded op once (lo-bounded for every field
seed in 0..FIELD_SEEDS-1) on the program in ./src and records its output
with all digits.  It also runs one sweep over the whole classify-sweep pool
and records the keys of the rows the exact oracle disagrees with: those
rows count as failed in a run, and any other wrong row makes it unsound.  The committed file was generated from the program as it
was when the benchmark was added; regenerate it only when a change is meant
to alter the numbers, and say so with the change.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import FIELD_SEEDS, KNOWN_WRONG, hi_divergence, known_wrong_rows, lo_bounded  # noqa: E402


def generate(S, scale: str = "full") -> dict:
    """label -> output rows for every numeric op the workloads can run, and
    the keys of the sweep pool's rows that the program gets wrong."""
    refs = {KNOWN_WRONG: known_wrong_rows(S)}
    workloads = [hi_divergence(S, 0, scale)] + [lo_bounded(S, fs, scale) for fs in range(FIELD_SEEDS)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for wl in workloads:
            for op in wl.next_pass():
                if op.label not in refs:
                    refs[op.label] = op.run()
                    print(op.label, file=sys.stderr, flush=True)
    return refs


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import szaszlab as S

    refs = generate(S)
    doc = {"references": dict(sorted(refs.items()))}
    (HERE / "golden.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
