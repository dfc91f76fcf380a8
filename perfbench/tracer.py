"""Spans around cutproject's public functions, installed from outside the library.

The library binds functions across modules with ``from .x import y``, so a
function can be reached through several module attributes.  ``Tracer.install``
replaces every ``cutproject`` module attribute that holds a listed function
with a wrapper that records a span (name, start, end, parent, op id, counts),
and ``uninstall`` puts the originals back.  Spans stay in memory until the
run ends.  Only the traced run installs the tracer; end-to-end numbers come
from runs without it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# layer -> the public functions whose calls are spans
LAYER_FUNCTIONS = {
    "lattice": ("lattice_points_in_box",),
    "cps": ("model_set", "verify_injectivity", "internal_density_check"),
    "comb": ("autocorrelation_patch", "merge_atoms", "a_norm", "eps_norm_almost_periods",
             "lift", "model_comb"),
    "posdef": ("lift_pd_crosscheck", "gram_matrix"),
    "spectra": ("diffraction", "oracle_amplitudes", "pairing_values"),
    "cli": ("main", "load_config"),
}
EIGVALSH = "numpy.eigvalsh"  # numpy.linalg.eigvalsh; counted where a posdef span called it


def scan_box(lat, box) -> float:
    """Integer points in the bounding box of the preimage of ``box`` (from ``inv_basis``).

    An input property: how many candidates a scan of the preimage's integer
    bounding box visits, whatever the enumeration actually does.
    """
    if box.is_empty:
        return 0.0
    inv = lat.inv_basis
    lo = np.minimum(inv * box.lo, inv * box.hi).sum(axis=1)
    hi = np.maximum(inv * box.lo, inv * box.hi).sum(axis=1)
    return float(np.prod(np.maximum(np.floor(hi) - np.ceil(lo) + 1, 0)))


def _rows(a) -> int:
    return len(np.atleast_2d(np.asarray(a)))


# function -> counts taken from its bound arguments and its result
COUNTERS = {
    "lattice_points_in_box": lambda a, r: {"points_out": len(r[0]),
                                           "scan_box": scan_box(a["lat"], a["box"])},
    "model_set": lambda a, r: {"points_out": len(r)},
    "autocorrelation_patch": lambda a, r: {"pairs_in": a["comb"].n_atoms * (a["comb"].n_atoms - 1) // 2,
                                           "atoms_out": r.n_atoms},
    "merge_atoms": lambda a, r: {"rows_in": len(a["positions"]), "rows_out": len(r[0])},
    "gram_matrix": lambda a, r: {"entries": _rows(a["points"]) ** 2},
    "diffraction": lambda a, r: {"peaks_out": r.n_peaks},
    "pairing_values": lambda a, r: {"shifts": _rows(a["shifts"])},
}


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    raised: bool = False
    counts: dict = field(default_factory=dict)


class Elapsed:
    """Wall time of one op, filled in when its ``with`` block ends."""

    seconds = 0.0


class Stopwatch:
    """Times ops without tracing; the clock of the untraced runs."""

    @contextmanager
    def op(self, kind: str):
        elapsed = Elapsed()
        start = perf_counter()
        try:
            yield elapsed
        finally:
            elapsed.seconds = perf_counter() - start


class Tracer(Stopwatch):
    """Records spans while an op is open; each op is a root span named ``op.<kind>``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_seconds = 0.0
        self._stack: list[int] = []
        self._op = -1
        self._ops = 0
        self._thread = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent, self._op))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = perf_counter()
        self._stack.pop()
        return span

    @contextmanager
    def op(self, kind: str):
        self._op = self._ops
        self._ops += 1
        root = self._open("op." + kind)
        elapsed = Elapsed()
        start = perf_counter()
        try:
            yield elapsed
        finally:
            elapsed.seconds = perf_counter() - start
            self._close(root)
            self._op = -1
            self.op_seconds += elapsed.seconds

    def _wrap(self, name: str, fn, counter):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op < 0 or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx).raised = True
                raise
            span = tracer._close(idx)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                span.counts = counter(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module("cutproject." + layer)
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn, COUNTERS.get(name)))
        for modname, module in list(sys.modules.items()):
            if modname != "cutproject" and not modname.startswith("cutproject."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        self._patch(np.linalg, "eigvalsh", self._wrap(EIGVALSH, np.linalg.eigvalsh, None))

    def _patch(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def check_self_times(self, rel_tol: float = 0.01) -> str | None:
        """None if the self times of all spans add up to the ops' wall time."""
        total = sum(self.self_times())
        if abs(total - self.op_seconds) > rel_tol * self.op_seconds + 1e-4 * self._ops:
            return f"span self times sum to {total:.6f} s, ops took {self.op_seconds:.6f} s"
        return None

    def layer_metrics(self, rounds: int, bytes_out: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each a total over the traced rounds divided by their number."""
        own = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        counts = defaultdict(float)
        failed = defaultdict(int)
        names = [s.name for s in self.spans]

        def under(idx: int, prefix: str) -> bool:
            while idx >= 0:
                if names[idx].startswith(prefix):
                    return True
                idx = self.spans[idx].parent
            return False

        for i, s in enumerate(self.spans):
            calls[s.name] += 1
            self_s[s.name] += own[i]
            failed[s.name] += s.raised
            for key, value in s.counts.items():
                counts[f"{s.name}.{key}"] += value
            if s.name == "lattice.lattice_points_in_box" and s.parent >= 0:
                parent = names[s.parent]
                if parent in ("spectra.diffraction", "spectra.oracle_amplitudes"):
                    counts[f"{parent}.lattice_points"] += s.counts.get("points_out", 0)
            if s.name == EIGVALSH and under(s.parent, "posdef."):
                calls["posdef.eig"] += 1
                self_s["posdef.eig"] += s.end - s.start

        per = 1.0 / max(rounds, 1)
        sec, cnt = "s/round", "count/round"
        table = {
            "lattice.calls": (calls["lattice.lattice_points_in_box"], cnt),
            "lattice.self_s": (self_s["lattice.lattice_points_in_box"], sec),
            "lattice.points_out": (counts["lattice.lattice_points_in_box.points_out"], cnt),
            "lattice.scan_box": (counts["lattice.lattice_points_in_box.scan_box"], cnt),
            "cps.model_set.self_s": (self_s["cps.model_set"], sec),
            "cps.model_set.points_out": (counts["cps.model_set.points_out"], cnt),
            "cps.certificates.self_s": (self_s["cps.verify_injectivity"]
                                        + self_s["cps.internal_density_check"], sec),
            "comb.autocorrelation.self_s": (self_s["comb.autocorrelation_patch"], sec),
            "comb.autocorrelation.pairs_in": (counts["comb.autocorrelation_patch.pairs_in"], cnt),
            "comb.autocorrelation.atoms_out": (counts["comb.autocorrelation_patch.atoms_out"], cnt),
            "comb.merge.calls": (calls["comb.merge_atoms"], cnt),
            "comb.merge.self_s": (self_s["comb.merge_atoms"], sec),
            "comb.merge.rows_in": (counts["comb.merge_atoms.rows_in"], cnt),
            "comb.merge.rows_out": (counts["comb.merge_atoms.rows_out"], cnt),
            "comb.a_norm.calls": (calls["comb.a_norm"], cnt),
            "comb.a_norm.self_s": (self_s["comb.a_norm"], sec),
            "comb.almost_periods.self_s": (self_s["comb.eps_norm_almost_periods"], sec),
            "comb.lift.self_s": (self_s["comb.lift"], sec),
            "comb.model_comb.self_s": (self_s["comb.model_comb"], sec),
            "posdef.crosscheck.self_s": (self_s["posdef.lift_pd_crosscheck"], sec),
            "posdef.gram.calls": (calls["posdef.gram_matrix"], cnt),
            "posdef.gram.self_s": (self_s["posdef.gram_matrix"], sec),
            "posdef.gram.entries": (counts["posdef.gram_matrix.entries"], cnt),
            "posdef.gram.failed": (failed["posdef.gram_matrix"], cnt),
            "posdef.eig.calls": (calls["posdef.eig"], cnt),
            "posdef.eig.s": (self_s["posdef.eig"], sec),
            "spectra.diffraction.self_s": (self_s["spectra.diffraction"], sec),
            "spectra.diffraction.points_in": (counts["spectra.diffraction.lattice_points"], cnt),
            "spectra.diffraction.peaks_out": (counts["spectra.diffraction.peaks_out"], cnt),
            "spectra.oracle.self_s": (self_s["spectra.oracle_amplitudes"], sec),
            "spectra.oracle.patch_points": (counts["spectra.oracle_amplitudes.lattice_points"], cnt),
            "spectra.pairing.self_s": (self_s["spectra.pairing_values"], sec),
            "spectra.pairing.shifts": (counts["spectra.pairing_values.shifts"], cnt),
            "cli.config.self_s": (self_s["cli.load_config"], sec),
            "cli.self_s": (self_s["cli.main"], sec),
            "cli.bytes_out": (bytes_out, cnt),
        }
        return {name: (value * per, unit) for name, (value, unit) in table.items()}

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op,
             "raised": s.raised, "counts": s.counts}
            for s in self.spans
        ]
