"""Traced runs: spans around every call into a deformclass module.

The package imports names directly (``from .align import classify_1nn``),
so patching only the defining module misses most calls.  ``Tracer.install``
therefore rebinds a listed function in *every* deformclass namespace that
holds it, and patches ``TrainableCnn`` methods on the class itself.  Spans
are kept in memory, tagged with their thread id, and written out once at
the end of the run.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from metrics import median, self_times


# -- hooks: counts taken at the call boundary --------------------------------

def _rows(t, args, kwargs, report, dt):
    rows = report.rows
    t.count("harness.rows", len(rows))
    t.count("harness.rows_failed",
            sum(1 for r in rows if r.error or r.risk != r.risk))


def _images(t, args, kwargs, data, dt):
    t.count("datagen.images", len(data))


def _gallery(t, args, kwargs, gallery, dt):
    t.count("align.gallery_entries", len(gallery))


def _nearest(orientations):
    def hook(t, args, kwargs, result, dt):
        gallery = args[0] if args else kwargs["gallery"]
        m = gallery[0][0].m
        t.count("align.distance_evals", len(gallery) * orientations)
        t.count("align.gallery_bytes_stacked", len(gallery) * m * m * 8)
    return hook


def _bank(t, args, kwargs, bank, dt):
    n = 2 * bank.xi_max * bank.d + 1
    live = weight_bytes = 0
    for k in (0, 1):
        for i in range(n):
            for j in range(n):
                w = bank.filter_at(k, i, j).weights
                if w is not None:
                    live += 1
                    weight_bytes += w.nbytes
    t.gauges.update({"cnn.bank_entries": len(bank), "cnn.bank_live_filters": live,
                     "cnn.bank_weight_bytes": weight_bytes})


def _first_bank_call(t, args, kwargs, decision, dt):
    t.gauges.setdefault("cnn.classify_bank.first_s", dt)


def _forward_images(t, args, kwargs, result, dt):
    x = args[1] if len(args) > 1 else kwargs["x"]
    t.count("train.forward_batch.images", len(x))


def _pgm_bytes(t, args, kwargs, image, dt):
    t.count("io.read_pgm.bytes", len(args[0] if args else kwargs["data"]))


# (metric name, module, attribute, hook); "Class.method" patches the class.
FUNCS = (
    ("cli.main", "cli", "main", None),
    ("harness.run_experiment", "harness", "run_experiment", _rows),
    ("datagen.generate_dataset", "datagen", "generate_dataset", _images),
    ("model.rasterize", "model", "rasterize", None),
    ("model.normalize_l2", "model", "normalize_l2", None),
    ("align.align_transform", "align", "align_transform", None),
    ("align.build_gallery", "align", "build_gallery", _gallery),
    ("align.classify_1nn", "align", "classify_1nn", _nearest(1)),
    ("align.classify_1nn_flips", "align", "classify_1nn_flips", _nearest(4)),
    ("cnn.build_filter_bank", "cnn", "build_filter_bank", _bank),
    ("cnn.classify_bank", "cnn", "classify_bank", _first_bank_call),
    ("train.train_least_squares", "train", "train_least_squares", None),
    ("train.forward_batch", "train", "TrainableCnn.forward_batch", _forward_images),
    ("train.loss_batch", "train", "TrainableCnn.loss_batch", None),
    ("train.gradients", "train", "TrainableCnn.gradients", None),
    ("train.predict", "train", "TrainableCnn.predict", None),
    ("separation.estimate_separation", "separation", "estimate_separation", None),
    ("geometry.trace_boundary", "geometry", "trace_boundary", None),
    ("geometry.gamma_scan", "geometry", "gamma_scan", None),
    ("io.read_dataset", "io", "read_dataset", None),
    ("io.write_dataset", "io", "write_dataset", None),
    ("io.read_pgm", "io", "read_pgm", _pgm_bytes),
    ("io.write_pgm", "io", "write_pgm", None),
)

# Functions that run in a workload's set-up; reported per set-up.
SETUP_FUNCS = ("cnn.build_filter_bank", "io.write_dataset", "io.write_pgm")

# Counts summed over traced units and reported per traced unit.
UNIT_COUNTERS = (
    ("harness.rows", "rows/unit", "higher"),
    ("harness.rows_failed", "rows/unit", "lower"),
    ("datagen.images", "images/unit", "lower"),
    ("align.gallery_entries", "entries/unit", "lower"),
    ("align.distance_evals", "evals/unit", "lower"),
    ("align.gallery_bytes_stacked", "B/unit", "lower"),
    ("train.forward_batch.images", "images/unit", "lower"),
    ("separation.fft_calls", "calls/unit", "lower"),
    ("separation.fft_s", "s/unit", "lower"),
    ("separation.template_evals", "evals/unit", "lower"),
    ("separation.template_points", "points/unit", "lower"),
    ("io.read_pgm.bytes", "B/unit", "lower"),
)

# Values set once per process (the first bank call, the last bank built).
GAUGES = (
    ("cnn.classify_bank.first_s", "s", "lower"),
    ("cnn.bank_entries", "count", "lower"),
    ("cnn.bank_live_filters", "count", "lower"),
    ("cnn.bank_weight_bytes", "B", "lower"),
)

OVERHEAD = (
    ("harness.parallelism", "ratio", "higher"),
    ("trace.units", "count", "higher"),
    ("trace.unit_p50_s", "s", "lower"),
    ("trace.untraced_unit_p50_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.hook_errors", "count", "lower"),
)


def per_layer_spec() -> list[dict]:
    """Every per-layer metric a traced run prints, in order."""
    spec = []
    for name, *_ in FUNCS:
        spec.append({"name": f"{name}.calls", "unit": "calls/unit", "better": "lower"})
        spec.append({"name": f"{name}.self_s", "unit": "s/unit", "better": "lower"})
    for name in SETUP_FUNCS:
        spec.append({"name": f"setup.{name}.calls", "unit": "calls/setup",
                     "better": "lower"})
        spec.append({"name": f"setup.{name}.self_s", "unit": "s/setup",
                     "better": "lower"})
    for name, unit, better in UNIT_COUNTERS + GAUGES + OVERHEAD:
        spec.append({"name": name, "unit": unit, "better": better})
    return spec


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    tid: int
    start: float
    end: float
    phase: str


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.gauges: dict[str, float] = {}
        self.phase = "idle"
        self.units = 0
        self.setups = 0
        self.hook_errors = 0
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[self.phase][name] += value

    def _parent(self, tid: int) -> int | None:
        stack = self._stacks.get(tid)
        if stack:
            return stack[-1]
        # A worker thread's first span belongs to whatever the driving
        # thread has open, e.g. the run_experiment that started the pool.
        main = self._stacks.get(self._main)
        return main[-1] if main and tid != self._main else None

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            tid = threading.get_ident()
            parent = tracer._parent(tid)
            stack = tracer._stacks.setdefault(tid, [])
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, parent, name, tid, start, end,
                                         tracer.phase))
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result, end - start)
                except Exception:  # a count the program no longer supports
                    with tracer._lock:
                        tracer.hook_errors += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _timed_fft(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            tracer.count("separation.fft_calls", 1)
            tracer.count("separation.fft_s", time.perf_counter() - start)
            return result

        return counted

    def counting_template(self, f):
        """A copy of template ``f`` whose evaluations are counted."""
        tracer, fn = self, f.fn

        def counted(x, y):
            out = fn(x, y)
            tracer.count("separation.template_evals", 1)
            tracer.count("separation.template_points", np.size(out))
            return out

        return dataclasses.replace(f, fn=counted)

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, phase: str) -> None:
        self.phase = phase
        prefix = self.package.__name__ + "."
        namespaces = [self.package] + [m for n, m in sorted(sys.modules.items())
                                       if n.startswith(prefix)]
        for name, module, attr, hook in FUNCS:
            home = getattr(self.package, module, None)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._set(cls, meth, self._wrap(name, vars(cls)[meth], hook))
                continue
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(name, orig, hook)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._set(ns, key, wrapped)
        for attr in ("rfft2", "irfft2"):
            self._set(np.fft, attr, self._timed_fft(getattr(np.fft, attr)))
        if phase == "unit":
            self.units += 1
        else:
            self.setups += 1

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        self.phase = "idle"

    # -- results -------------------------------------------------------------

    def metrics(self, untraced: list[float], traced: list[float]) -> dict[str, float]:
        own = self_times(self.spans)
        calls: dict[tuple[str, str], int] = defaultdict(int)
        self_s: dict[tuple[str, str], float] = defaultdict(float)
        child_busy: dict[int, float] = defaultdict(float)
        for s in self.spans:
            calls[s.phase, s.name] += 1
            self_s[s.phase, s.name] += own[s.sid]
            if s.parent is not None:
                child_busy[s.parent] += s.end - s.start
        units, setups = max(self.units, 1), max(self.setups, 1)
        out: dict[str, float] = {}
        for name, *_ in FUNCS:
            out[f"{name}.calls"] = calls["unit", name] / units
            out[f"{name}.self_s"] = self_s["unit", name] / units
        for name in SETUP_FUNCS:
            out[f"setup.{name}.calls"] = calls["setup", name] / setups
            out[f"setup.{name}.self_s"] = self_s["setup", name] / setups
        for name, *_ in UNIT_COUNTERS:
            out[name] = self.counts["unit"].get(name, 0.0) / units
        for name, *_ in GAUGES:
            out[name] = float(self.gauges.get(name, 0.0))
        runs = [s for s in self.spans
                if s.phase == "unit" and s.name == "harness.run_experiment"]
        wall = sum(s.end - s.start for s in runs)
        out["harness.parallelism"] = (sum(child_busy[s.sid] for s in runs) / wall
                                      if wall else 0.0)
        out["trace.units"] = float(self.units)
        out["trace.unit_p50_s"] = median(traced) if traced else 0.0
        out["trace.untraced_unit_p50_s"] = median(untraced) if untraced else 0.0
        out["trace.overhead_s"] = out["trace.unit_p50_s"] - out["trace.untraced_unit_p50_s"]
        out["trace.hook_errors"] = float(self.hook_errors)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
