"""Outside-in tracing of despec's public functions.

While a ``Tracer`` is installed, each traced function is replaced at
every place the package refers to it (its own module attribute and every
``from module import name`` copy), so each call records one span: name,
start, end, parent span and operation id.  Blocks handed to
``run_rows`` record spans on the worker thread that runs them, with the
``run_rows`` span as parent.  Uninstalling puts the originals back;
no file of the program changes.  A function that no longer exists is
reported absent and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# span name -> (module, attribute)
TARGETS = {
    "pipeline.run": ("despec.pipeline", "run"),
    "pipeline.box_downsample": ("despec.pipeline", "box_downsample"),
    "pipeline.assign_to_centers": ("despec.pipeline", "assign_to_centers"),
    "clustering.adaptive_cluster": ("despec.clustering", "adaptive_cluster"),
    "clustering.kmeans": ("despec.clustering", "kmeans"),
    "clustering.evaluate_fit": ("despec.clustering", "evaluate_fit"),
    "clustering.specular_free_field": ("despec.clustering", "specular_free_field"),
    "clustering.chromaticity_field": ("despec.clustering", "chromaticity_field"),
    "recovery.estimate_models": ("despec.recovery", "estimate_models"),
    "recovery.separate_image": ("despec.recovery", "separate_image"),
    "imgio.load": ("despec.imgio", "load"),
    "imgio.save": ("despec.imgio", "save"),
    "parallel.run_rows": ("despec._parallel", "run_rows"),
}
BLOCK = "parallel.block"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int


# Counts taken at a boundary from a call's arguments and result.
# recovery.separate_image.bytes is computed from array sizes: the float64
# image read once, the diffuse and specular images written once, and the
# labels read once.
def _count(name, args, result) -> dict:
    if name == "imgio.load":
        return {"imgio.bytes": os.path.getsize(args[0])}
    if name == "imgio.save":
        return {"imgio.bytes": os.path.getsize(args[1])}
    if name == "recovery.estimate_models":
        return {"recovery.models": len(result),
                "recovery.passthrough": sum(1 for m in result.values() if m is None)}
    if name == "recovery.separate_image":
        image, clusters = args[0], args[1]
        return {"recovery.separate_image.bytes": 3 * image.nbytes + clusters.labels.nbytes}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = {}  # op -> count name -> total
        self.absent: list[str] = []
        self._targets = {}
        for name, (module, attr) in TARGETS.items():
            try:
                self._targets[name] = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op = -1
        self._t0 = time.perf_counter()

    @contextmanager
    def installed(self, op: int):
        """Trace every call made inside the block as part of operation ``op``."""
        self._op = op
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "despec" or n.startswith("despec."))]
        patches = []
        for name, fn in self._targets.items():
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patches.append((module, attr, fn, wrapper))
        for module, attr, _, wrapper in patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, fn, _ in patches:
                setattr(module, attr, fn)

    def _open(self, name: str, parent: int | None = None) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1].id
        span = Span(next(self._ids), name, time.perf_counter() - self._t0, 0.0,
                    parent, self._op, threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter() - self._t0
        self._local.stack.pop()
        with self._lock:
            self.spans.append(span)

    def _add_counts(self, counts: dict) -> None:
        totals = self.counts.setdefault(self._op, {})
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            if name == "parallel.run_rows" and args:
                args = (tracer._wrap_block(args[0], span.id),) + args[1:]
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            try:
                tracer._add_counts(_count(name, args, result))
            except (AttributeError, IndexError, KeyError, TypeError, OSError):
                pass  # the signature changed; the count is reported absent
            return result

        return wrapper

    def _wrap_block(self, block_fn, parent: int):
        def block(rows):
            span = self._open(BLOCK, parent)
            try:
                return block_fn(rows)
            finally:
                self._close(span)

        return block

    def op_metrics(self, op: int) -> dict[str, float]:
        """Per-operation busy time, call count and self time of every
        traced function, the counts taken at the boundaries, and the
        row-block parallelism of run_rows."""
        spans = [s for s in self.spans if s.op == op]
        out: dict[str, float] = {}
        for name in self._targets:
            mine = [s for s in spans if s.name == name]
            out[f"{name}_s"] = sum(s.end - s.start for s in mine)
            out[f"{name}.calls"] = len(mine)
            out[f"{name}.self_s"] = sum(_self_time(s, spans) for s in mine)
        out.update(self.counts.get(op, {}))

        if "parallel.run_rows" in self._targets:
            busy = wall_workers = 0.0
            pooled = blocks = 0
            for call in (s for s in spans if s.name == "parallel.run_rows"):
                children = [s for s in spans if s.parent == call.id and s.name == BLOCK]
                threads = {s.thread for s in children}
                blocks += len(children)
                pooled += bool(threads - {call.thread})
                busy += sum(s.end - s.start for s in children)
                wall_workers += (call.end - call.start) * max(len(threads), 1)
            out["parallel.blocks"] = blocks
            out["parallel.pooled_calls"] = pooled
            if wall_workers > 0:
                out["parallel.efficiency"] = busy / wall_workers
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _self_time(span: Span, spans: list[Span]) -> float:
    """Duration minus the part of it covered by direct children."""
    covered = 0.0
    end = span.start
    for s in sorted((c for c in spans if c.parent == span.id), key=lambda c: c.start):
        start = max(s.start, end)
        if s.end > start:
            covered += s.end - start
            end = s.end
    return (span.end - span.start) - covered
