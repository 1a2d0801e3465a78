"""Span tracing for the benchmark's traced run.

`Tracer.installed()` replaces public shbif functions, in every shbif module
that binds them, with wrappers that record one span each (name, start, end,
parent span, op id).  The scipy.fft functions that `spectral` and `steady`
reach through their module-level `sfft` name are wrapped the same way and
also count transformed points and computed bytes.  After each op the spans
are reduced to per-layer call counts, failures and self times, so memory
stays bounded by one op.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

# (shbif module, public function, span name)
TRACED = (
    ("spectral", "cube", "spectral.cube"),
    ("spectral", "square", "spectral.square"),
    ("spectral", "to_grid", "spectral.transform"),
    ("spectral", "to_spectral", "spectral.transform"),
    ("dynamics", "step", "dynamics.step"),
    ("dynamics", "integrate", "dynamics.integrate"),
    ("dynamics", "lyapunov", "dynamics.lyapunov"),
    ("steady", "newton", "steady.newton"),
    ("steady", "residual", "steady.residual"),
    ("steady", "stability", "steady.stability"),
    ("steady", "find_all", "steady.find_all"),
    ("steady", "orbit_distance", "steady.orbit_distance"),
    ("linear_analysis", "principal", "linear_analysis.principal"),
    ("reduced", "build_reduced", "reduced.build_reduced"),
    ("reduced", "reduced_fixed_points", "reduced.reduced_fixed_points"),
    ("harness", "run_suite", "harness.run_suite"),
)
FFT_MODULES = ("spectral", "steady")
FFT_SPAN = "spectral.fft"
# every scipy.fft transform, so the counts stay whole if the program changes transforms
FFT_FUNCS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2",
    "irfft2", "rfftn", "irfftn", "hfft", "ihfft", "dct", "idct", "dst", "idst",
    "dctn", "idctn", "dstn", "idstn",
)


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    failed: bool


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.sid] = (s.end - s.start) - covered
    return out


class _FFTProxy:
    """Stands in for `scipy.fft`: wrapped transforms, everything else passed through."""

    def __init__(self, real, wrapped: dict):
        self._real = real
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.calls = Counter()
        self.failed = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()  # exact work counts beyond calls
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.op, failed))
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return wrapper

    def end_op(self):
        """Fold the finished op's spans into the per-layer totals."""
        own = self_times(self.spans)
        for s in self.spans:
            self.calls[s.name] += 1
            self.failed[s.name] += s.failed
            self.self_s[s.name] += own[s.sid]
        self.spans.clear()

    def metrics(self) -> dict:
        """Per-layer calls, self times, failures and exact work counts."""
        out = {}
        for span in {s for *_, s in TRACED} | {FFT_SPAN}:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
            out[f"{span}.failed"] = self.failed[span]
        out.update(self.counts)
        seeds = self.counts["steady.find_all.seeds"]
        out["steady.find_all.states_per_seed"] = (
            self.counts["steady.find_all.states"] / seeds if seeds else 0.0)
        return out

    def _count_fft(self, args, kwargs, result):
        x = args[0] if args else kwargs["x"]
        self.counts["spectral.fft.points"] += max(np.size(x), np.size(result))
        self.counts["spectral.fft.bytes_computed"] += np.asarray(result).nbytes

    def _hook(self, span_name, fn):
        if span_name != "steady.find_all":
            return None
        sig = inspect.signature(fn)

        def count_states(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["steady.find_all.seeds"] += bound.arguments["n_seeds"]
            self.counts["steady.find_all.states"] += len(result)
        return count_states

    @contextlib.contextmanager
    def installed(self):
        """Patch the traced functions into every loaded shbif module; undo on exit."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "shbif" or k.startswith("shbif."))]
        patches = []
        try:
            for modname, fname, span_name in TRACED:
                orig = getattr(sys.modules[f"shbif.{modname}"], fname)
                wrapped = self.wrap(span_name, orig, self._hook(span_name, orig))
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            patches.append((m, attr, value))
                            setattr(m, attr, wrapped)
            for modname in FFT_MODULES:
                m = sys.modules[f"shbif.{modname}"]
                real = m.sfft
                wrapped = {f: self.wrap(FFT_SPAN, getattr(real, f), self._count_fft)
                           for f in FFT_FUNCS if hasattr(real, f)}
                patches.append((m, "sfft", real))
                m.sfft = _FFTProxy(real, wrapped)
            yield self
        finally:
            for m, attr, value in reversed(patches):
                setattr(m, attr, value)
