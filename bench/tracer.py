"""Outside-in tracer for szaszlab: spans around every public function.

``Tracer.install`` wraps each public function of the layer modules (the
names in a module's ``__all__``, or its names without a leading underscore)
and rebinds the wrapper at every module of the package that binds the
original: ``szaszlab.spaces.inverse_ft`` and ``szaszlab.witnesses.inverse_ft``
are both bindings of ``grid.inverse_ft`` and both get the one wrapper.
Calls between modules resolve through those module attributes, so they are
seen; ``uninstall`` puts every original back.  Nothing is patched unless
``install`` runs, so an untraced run executes the program untouched.

A span records its name, parent, start and end in flat arrays kept in
memory; ``save`` writes them out once the run ends.  A span's self time is
its duration minus the durations of its direct children.

Limitation: only calls made through a module attribute are seen.  A call
from the program straight into ``scipy.fft``, or into a private helper, is
charged to the public function that made it, and work done in a new private
path is invisible until the program records spans of its own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "szaszlab"

#: the package's layer modules, innermost first
LAYERS = ("grid", "littlewood_paley", "spaces", "szasz", "witnesses", "realization", "cli")

#: bytes per complex128 sample
_SAMPLE_BYTES = 16


def public_functions():
    """(span name, function) for each public function defined in a layer module."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out.append((f"{layer}.{name}", fn))
    return out


def _count_transform(tracer, args, kwargs, result):
    grid = (args[0] if args else next(iter(kwargs.values()))).grid
    points = grid.N**grid.n
    tracer.add("grid.fft_points", points)
    tracer.add("grid.fft_flops_computed", 5.0 * points * np.log2(points))
    # one read of the input and one write of the output, complex128
    tracer.add("grid.fft_bytes_computed", 2 * _SAMPLE_BYTES * points)


def _count_nonempty(tracer, args, kwargs, result):
    tracer.add("littlewood_paley.nonempty_masks", int(bool(np.any(result))))


#: counters taken from a call's arguments or result; their cost is recorded
#: as a ``trace.hook`` span so it is not charged to any layer
HOOKS = {
    "grid.forward_ft": _count_transform,
    "grid.inverse_ft": _count_transform,
    "littlewood_paley.apply_level_mask": _count_nonempty,
}


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list = []

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recorded as a span called ``name``; ``hook`` runs after it."""
        nid = self._name(name)
        hook = self.wrap("trace.hook", hook) if hook is not None else None
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, fn in public_functions():
            wrappers[id(fn)] = (fn, self.wrap(name, fn, HOOKS.get(name)))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, value = self._patched.pop()
            setattr(mod, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def self_times(self):
        """(name id, duration, self time) arrays, one entry per span."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return nid, dur, dur - covered

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


FFT = ("grid.forward_ft", "grid.inverse_ft")
NORMS = ("spaces.besov_norm", "spaces.triebel_norm")
MASKS = ("littlewood_paley.apply_level_mask", "littlewood_paley.lp_mask")
BUILDERS = tuple(
    f"witnesses.{n}"
    for n in (
        "modulated_witness",
        "dilated_witness",
        "lowfreq_blowup_witness",
        "random_bandlimited",
        "bump_lowpass_phi",
        "annulus_psi",
    )
)
CLASSIFIER = tuple(
    f"szasz.{n}"
    for n in ("classify", "conjugate_exponent", "szasz_exponent", "translation_realization_gate")
)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer totals of one traced section lasting ``wall_s`` seconds.

    ``<layer>.self_s`` sums the self time of a layer's spans; together with
    ``trace.hook_s`` (the tracer's own counters) and ``trace.residual_s``
    (time inside no span) they add up to ``wall_s``.
    """
    nid, dur, own = tracer.self_times()
    span_names = np.array(tracer.names + [""])[nid]
    # parent -1 (no parent) indexes the trailing ""
    parent_names = np.append(span_names, "")[np.frombuffer(tracer.parent, dtype=np.int32)]

    def pick(group):
        return np.isin(span_names, group)

    def calls(group):
        return int(np.count_nonzero(pick(group)))

    def self_s(group):
        return float(own[pick(group)].sum())

    def layer(prefix):
        return np.char.startswith(span_names, prefix + ".")

    norm_calls = calls(NORMS)
    syntheses = np.count_nonzero(pick(["grid.inverse_ft"]) & np.isin(parent_names, NORMS))
    mask_calls = calls(MASKS[:1])
    m = {
        "grid.fft_calls": calls(FFT),
        "grid.fft_points": tracer.counts.get("grid.fft_points", 0),
        "grid.fft_self_s": self_s(FFT),
        "grid.fft_flops_computed": tracer.counts.get("grid.fft_flops_computed", 0.0),
        "grid.fft_bytes_computed": tracer.counts.get("grid.fft_bytes_computed", 0),
        "littlewood_paley.mask_calls": mask_calls,
        "littlewood_paley.mask_self_s": self_s(MASKS),
        "littlewood_paley.nonempty_ratio": (
            tracer.counts.get("littlewood_paley.nonempty_masks", 0) / mask_calls if mask_calls else 0.0
        ),
        "spaces.norm_calls": norm_calls,
        "spaces.syntheses_per_norm": syntheses / norm_calls if norm_calls else 0.0,
        "spaces.norm_self_s": self_s(NORMS + ("spaces.space_norm",)),
        "spaces.quadrature_self_s": self_s(["spaces.lr_quasinorm"]),
        "szasz.lhs_calls": calls(["szasz.weighted_lhs"]),
        "szasz.lhs_self_s": self_s(["szasz.weighted_lhs"]),
        "szasz.classify_calls": calls(["szasz.classify"]),
        "szasz.classify_self_s": self_s(CLASSIFIER),
        "witnesses.build_calls": calls(BUILDERS),
        "witnesses.build_self_s": self_s(BUILDERS),
        "realization.report_calls": calls(["realization.realization_report"]),
    }
    accounted = 0.0
    for name in LAYERS:
        m[f"{name}.self_s"] = float(own[layer(name)].sum())
        accounted += m[f"{name}.self_s"]
    m["trace.hook_s"] = self_s(["trace.hook"])
    m["trace.spans"] = len(nid)
    m["trace.wall_s"] = wall_s
    m["trace.residual_s"] = wall_s - accounted - m["trace.hook_s"]
    m["trace.residual_share"] = m["trace.residual_s"] / wall_s if wall_s > 0 else 0.0
    return m
