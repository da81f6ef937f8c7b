"""Szasz exponent, weighted Fourier-side functional, and the exact classifier.

The central inequality bounds a power-weighted L_p norm of the Fourier
transform by a Besov or Lizorkin-Triebel quasi-norm,

    ( integral |xi|^(theta p) |F(f)(xi)|^p dxi )^(1/p)  <=  c ||f||,

and scaling forces the weight power to be the Szasz exponent

    theta = s + n - n/p - n/r.

Whether the inequality can hold at all depends only on (s, p, q, r, n) and
the family, through sharp arithmetic conditions on the exponents:

    weak, B-family:  0 < r <= 2  and  0 < q <= p <= r'
    weak, F-family:  0 < r <= 2  and  (r <= p < r'  or  q <= p = r')
    strong gate, B:  s < n/r  or  (s = n/r and q <= 1)
    strong gate, F:  s < n/r  or  (s = n/r and r <= 1)

with strong = weak AND gate.  The same weak conditions characterize the
inhomogeneous variant, where the weight is (1 + |xi|)^(theta p).  The
classifier evaluates these conditions exactly, with infinity-aware
comparison semantics, and records every atomic comparison.

``weighted_lhs`` and ``szasz_ratio`` provide the empirical side: the grid
value of the weighted functional and its ratio against the space norm.  The
constant c is reported, never asserted against a theoretical value.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from math import isfinite, isinf, ldexp

import numpy as np

from .errors import ParameterError, _integer
from .grid import Field, Spectrum, forward_ft, radial_xi
from .spaces import _TINY, SpaceParams, _finite, _lr_norm, _norm, _packed

__all__ = [
    "SzaszQuery",
    "ClassificationResult",
    "conjugate_exponent",
    "szasz_exponent",
    "weighted_lhs",
    "classify",
    "szasz_ratio",
    "translation_realization_gate",
]


@dataclass(frozen=True)
class SzaszQuery:
    """A parameter system (s, p, q, r, n) with its space family and setting."""

    space: SpaceParams
    p: float
    n: int

    def __post_init__(self):
        if not self.p > 0:
            raise ParameterError(f"invalid exponent: p must be > 0, got {self.p}")
        object.__setattr__(self, "n", _integer(self.n, "n", 1))
        if self.n > sys.float_info.max:  # n / r and theta need n as a float
            raise ParameterError(
                f"invalid params: n does not fit a float, got an integer of {self.n.bit_length()} bits"
            )

    @property
    def theta(self) -> float:
        return szasz_exponent(self.space.s, self.p, self.space.r, self.n)


@dataclass(frozen=True)
class ClassificationResult:
    """Classifier verdict for one query.

    ``verdict_trace`` lists every atomic condition with its truth value;
    ``strong`` implies ``weak`` by construction.
    """

    theta: float
    weak: bool
    strong: bool
    verdict_trace: tuple = field(default_factory=tuple)

    def to_record(self) -> dict:
        rec = {"theta": self.theta, "weak": self.weak, "strong": self.strong}
        rec["verdict_trace"] = ";".join(
            f"{name}={'pass' if ok else 'fail'}" for name, ok in self.verdict_trace
        )
        return rec


def conjugate_exponent(r: float) -> float:
    """Conjugate exponent: r/(r-1) for 1 < r <= inf, inf for 0 < r <= 1."""
    if not r > 0:
        raise ParameterError(f"invalid exponent: r must be > 0, got {r}")
    if isinf(r):
        return 1.0
    if r <= 1.0:
        return np.inf
    return r / (r - 1.0)


def szasz_exponent(s: float, p: float, r: float, n: int) -> float:
    """theta = s + n - n/p - n/r, with n/inf = 0."""
    if not p > 0 or not r > 0:
        raise ParameterError(f"invalid exponent: p, r must be > 0, got p={p}, r={r}")
    return s + n - n / p - n / r


def weighted_lhs(g: Spectrum, theta: float, p: float, mode: str = "homogeneous") -> float:
    """Weighted L_p functional of a spectrum.

    Homogeneous mode: (sum_{k != 0} |xi_k|^(theta p) |coeffs[k]|^p dxi^n)^(1/p),
    the k = 0 bin excluded (never evaluated, so negative theta is safe).
    Inhomogeneous mode: the weight is (1 + |xi_k|)^(theta p) over all bins.
    p = inf takes the supremum of the weighted modulus instead.

    Only the spectrum's support is read, and only its nonzero bins are
    weighted and summed (:func:`_weighted_terms`): a weight off the float
    range loses no term, the terms are scaled by a power of two only when
    their largest is not a normal float, and an in-range functional keeps
    the bits of the plain formula.

    Raises:
        ParameterError: "invalid exponent" when p <= 0 or theta is not finite,
            "non-finite input" when a coefficient is nan or inf.
        ArithmeticError: "quasi-norm exceeds (falls below) the float range".
    """
    if not p > 0:
        raise ParameterError(f"invalid exponent: p must be > 0, got {p}")
    if not isfinite(theta):
        raise ParameterError(f"invalid exponent: theta must be finite, got {theta}")
    if mode not in ("homogeneous", "inhomogeneous"):
        raise ParameterError(f"invalid params: unknown mode {mode!r}")
    grid = g.grid
    c = _packed(g.coeffs[box] for box in g._support)
    r = _packed(radial_xi(grid)[box] for box in g._support)
    # the nonzero bins only: elsewhere the weight may overflow, and inf * 0
    # would poison the sum with nan; homogeneous mode leaves out the k = 0
    # bin, the only one at |xi| = 0
    homogeneous = mode == "homogeneous"
    on = (c != 0) & (r > 0.0) if homogeneous else c != 0
    terms, shift = _weighted_terms(r[on] if homogeneous else 1.0 + r[on], theta, np.abs(c[on]))
    norm = _finite(_lr_norm(terms, p, grid.dxi**grid.n), c, "coefficients")
    try:
        scaled = ldexp(norm, shift)
    except OverflowError:
        scaled = np.inf
    if 0.0 < norm < np.inf and not 0.0 < scaled < np.inf:
        side = "exceeds" if scaled else "falls below"
        raise ArithmeticError(f"quasi-norm {side} the float range: the weighted functional")
    return scaled


def _weighted_terms(base: np.ndarray, theta: float, moduli: np.ndarray) -> tuple:
    """(terms, shift): base^theta moduli = terms 2^shift; the plain products if they and the weights are normal.

    Otherwise each term is a mantissa times 2^e, bit for bit the plain
    product where it and its weight are normal; a weight off the normal
    range is h^J, h = base^(theta/J) normal for the least power of two J,
    squared log2 J times by frexp.  shift is the largest e when the
    largest term is not normal.
    """
    with np.errstate(over="ignore", under="ignore"):
        w = base**theta
        terms = w * moduli
        if terms.size == 0 or _TINY <= w.min() and w.max() < np.inf and _TINY <= terms.max() < np.inf:
            return terms, 0
        bad, J = ~((_TINY <= w) & (w < np.inf)), 1
        while not ((_TINY <= w[bad]) & (w[bad] < np.inf)).all():
            J *= 2
            w[bad] = base[bad] ** (theta / J)
        (m, e), (mc, ec) = np.frexp(w), np.frexp(moduli)
        e = e.astype(float)  # exact to 2^53, and never wraps
        for _ in range(J.bit_length() - 1):
            m[bad], up = np.frexp(m[bad] ** 2)
            e[bad] = 2 * e[bad] + up
    e = np.clip(e + ec, -(2.0**60), 2.0**60)  # a term past 2^(+-2^60) is off the float range all the same
    top = float(e.max())  # the largest term is in [2^(top - 2), 2^top)
    shift = 0 if -1020 <= top <= 1024 else int(top)
    return np.ldexp(m * mc, np.maximum(e - shift, -2200).astype(np.int64)), shift


def _weak_conditions(query: SzaszQuery) -> tuple[bool, list]:
    s, r, q = query.space.s, query.space.r, query.space.q
    p = query.p
    rp = conjugate_exponent(r)
    trace = [("r<=2", bool(r <= 2.0))]
    if query.space.family == "B":
        cond = bool(q <= p <= rp)
        trace.append(("q<=p<=r'", cond))
    else:
        left = bool(r <= p < rp)
        right = bool(q <= p and p == rp)
        trace.append(("r<=p<r'", left))
        trace.append(("q<=p=r'", right))
        cond = left or right
    return trace[0][1] and cond, trace


def translation_realization_gate(s: float, r: float, q: float, n: int, family: str) -> tuple[bool, list]:
    """Condition for a translation-commuting realization, with its trace.

    B-family: s < n/r or (s = n/r and q <= 1).
    F-family: s < n/r or (s = n/r and r <= 1).
    """
    n_over_r = n / r
    below = bool(s < n_over_r)
    at = bool(s == n_over_r)
    trace = [("s<n/r", below)]
    if family == "B":
        edge = bool(at and q <= 1.0)
        trace.append(("s=n/r&q<=1", edge))
    else:
        edge = bool(at and r <= 1.0)
        trace.append(("s=n/r&r<=1", edge))
    return below or edge, trace


def classify(query: SzaszQuery) -> ClassificationResult:
    """Exact weak/strong verdicts for a parameter system.

    The weak verdict applies equally to the homogeneous and inhomogeneous
    settings; the strong verdict adds the realization gate.  All comparisons
    are infinity-aware: p <= r' holds for every p when r' = inf, and q <= p
    with q = inf requires p = inf.
    """
    weak, trace = _weak_conditions(query)
    gate, gate_trace = translation_realization_gate(
        query.space.s, query.space.r, query.space.q, query.n, query.space.family
    )
    return ClassificationResult(
        theta=query.theta,
        weak=weak,
        strong=weak and gate,
        verdict_trace=tuple(trace + gate_trace),
    )


def _require_grid_dimension(query: SzaszQuery, grid) -> None:
    """Reject a query whose dimension n (and so its theta) is not the grid's."""
    if query.n != grid.n:
        raise ParameterError(
            f"invalid params: query has n={query.n} but the grid is {grid.n}-dimensional"
        )


def szasz_ratio(f: Field, query: SzaszQuery) -> float:
    """Empirical constant: weighted_lhs(F(f)) / space_norm(f) for one field.

    Raises:
        ParameterError: when ``query.n`` is not the field's dimension, or
            when f holds a nan or an infinity.
        ZeroDivisionError: "zero denominator" when the space norm is 0.
        ArithmeticError: "quasi-norm exceeds (falls below) the float range".
    """
    _require_grid_dimension(query, f.grid)
    spec = forward_ft(f)
    denom = _norm(f, query.space, spec)
    if denom <= 0.0 or not np.isfinite(denom):
        raise ZeroDivisionError(f"zero denominator: space norm is {denom}")
    lhs = weighted_lhs(spec, query.theta, query.p, query.space.setting)
    return lhs / denom
