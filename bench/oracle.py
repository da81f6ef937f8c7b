"""Exact-rational reference for ``szaszlab sweep`` rows.

Exponents are read from their decimal input strings with ``Fraction``, so
``"1.1"`` is exactly 11/10 and its conjugate exponent exactly 11.  ``inf``
is kept as ``math.inf``; Python compares a ``Fraction`` with ``math.inf``
exactly, so every condition below is infinity-aware without special cases:

    weak, B:  r <= 2  and  q <= p <= r'
    weak, F:  r <= 2  and  (r <= p < r'  or  (q <= p and p = r'))
    gate, B:  s < n/r  or  (s = n/r and q <= 1)
    gate, F:  s < n/r  or  (s = n/r and r <= 1)
    strong = weak and gate,   theta = s + n - n/p - n/r   (n/inf = 0)

with r' = r/(r-1) for r > 1 and r' = inf for r <= 1 (r' = 1 for r = inf).
"""

from __future__ import annotations

import math
from fractions import Fraction

#: relative tolerance on the printed theta
THETA_RTOL = 1e-12


def exact(text: str):
    """A decimal string as a Fraction, or math.inf for 'inf'."""
    text = text.strip()
    if text in ("inf", "+inf"):
        return math.inf
    return Fraction(text)


def _conjugate(r):
    if r == math.inf:
        return Fraction(1)
    if r <= 1:
        return math.inf
    return r / (r - 1)


def _over(n: int, x):
    return Fraction(0) if x == math.inf else Fraction(n) / x


def verdict(s: str, p: str, q: str, r: str, n: int, family: str):
    """(theta, weak, strong) of one parameter system, decided exactly.

    theta is a Fraction; the inputs are the decimal strings given to the CLI.
    """
    s_, p_, q_, r_ = exact(s), exact(p), exact(q), exact(r)
    rp = _conjugate(r_)
    if family == "B":
        cond = q_ <= p_ <= rp
    elif family == "F":
        cond = (r_ <= p_ < rp) or (q_ <= p_ and p_ == rp)
    else:
        raise ValueError(f"family must be B or F, got {family!r}")
    weak = r_ <= 2 and cond
    n_over_r = _over(n, r_)
    edge = q_ <= 1 if family == "B" else r_ <= 1
    gate = s_ < n_over_r or (s_ == n_over_r and edge)
    theta = s_ + n - _over(n, p_) - n_over_r
    return theta, bool(weak), bool(weak and gate)


class SweepOracle:
    """Checks CSV rows of ``szaszlab sweep`` against :func:`verdict`.

    Verdicts are memoized per parameter system, so repeated slices of one
    pool cost a dictionary lookup per row after the first visit.
    """

    HEADER = "s,p,q,r,n,family,theta,weak,strong"

    def __init__(self):
        self._memo = {}

    def expected(self, key):
        """(theta, weak, strong) as printed by the CLI, for key (s, p, q, r, n, family)."""
        v = self._memo.get(key)
        if v is None:
            theta, weak, strong = verdict(*key)
            v = self._memo[key] = (
                float(theta),
                "true" if weak else "false",
                "true" if strong else "false",
            )
        return v

    def row_ok(self, key, fields) -> bool:
        """Whether one printed row agrees with the exact verdict for ``key``."""
        s, p, q, r, n, family = key
        if len(fields) != 9:
            return False
        try:
            echoed = [float(x) for x in fields[:4]]
            theta = float(fields[6])
        except ValueError:
            return False
        if echoed != [float(s), float(p), float(q), float(r)]:
            return False
        if fields[4] != str(n) or fields[5] != family:
            return False
        want_theta, weak, strong = self.expected(key)
        if abs(theta - want_theta) > THETA_RTOL * max(1.0, abs(want_theta)):
            return False
        return fields[7] == weak and fields[8] == strong

    def wrong_rows(self, keys, text: str):
        """Keys of the rows of CSV ``text`` that disagree with their verdicts.

        None when the header or the number of rows is not the one expected.
        """
        lines = text.splitlines()
        if not lines or lines[0] != self.HEADER or len(lines) != len(keys) + 1:
            return None
        return [k for k, line in zip(keys, lines[1:]) if not self.row_ok(k, line.split(","))]
