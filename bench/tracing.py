"""In-memory spans around topokit's public layer functions.

The wrappers live here, in the benchmark, and are installed by rebinding
names in topokit's modules. Modules import each other with ``from .x import
y``, so a function is patched in every module that calls it, under the name
that module looks it up by.

Each span records its name, start, end, parent span, operation id and a few
counts. Counts are computed outside the timeline: the tracer's clock stops
while they are taken, so they never inflate a layer's time.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from collections import defaultdict


class Tracer:
    """Stack of open spans plus the list of finished ones."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, op, attrs]
        self.stack = []
        self.ids = itertools.count()
        self.op = 0
        self.paused = 0.0  # seconds spent taking counts, cut from the timeline

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def begin(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        span = [next(self.ids), name, self.now(), None, parent, self.op, {}]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self) -> None:
        self.stack.pop()[3] = self.now()

    def discard(self) -> None:
        """Drop the innermost open span; its time falls to its parent."""
        span = self.stack.pop()
        if self.spans[-1] is span:
            self.spans.pop()
        else:
            self.spans.remove(span)

    def count(self, span: list, fn, *args) -> None:
        t = time.perf_counter()
        span[6].update(fn(*args))
        self.paused += time.perf_counter() - t

    def dump(self) -> list:
        return [s for s in self.spans if s[3] is not None]


def wrap(tracer: Tracer, name, fn, counts=None):
    """Span around fn; name may be a function of the call's arguments."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_name = name(*args, **kwargs) if callable(name) else name
        span = tracer.begin(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if counts is not None:
            tracer.count(span, counts, args, kwargs, result)
        return result

    return traced


# -- counts taken from each call's inputs and outputs ------------------------

def _file_format(path) -> str:
    with open(path, "rb") as fh:
        magic = fh.read(2)
    return {b"P2": "p2", b"P5": "p5"}.get(magic, "csv")


def _load_counts(args, kwargs, result):
    path = args[0]
    return {"fmt": _file_format(path), "bytes": os.path.getsize(path), "px": int(result.size)}


def _zero_dots(dots) -> int:
    return sum(1 for d in dots if d.birth == d.death)


def _diagram_counts(args, kwargs, result):
    return {"px": int(args[0].size), "dots": len(result.dots),
            "zero": _zero_dots(result.dots)}


def _rows_in(args, kwargs, result):
    return {"rows": len(args[0].dots)}


def _rows_out(args, kwargs, result):
    return {"rows": len(result.dots)}


def _matching_kind(left, right, p=2.0):
    return "matching.bottleneck" if float(p) == float("inf") else "matching.wasserstein"


def _matching_counts(args, kwargs, result):
    left, right = args[0], args[1]
    n, m = len(left.dots), len(right.dots)
    itemsize = 1 if result.p == float("inf") else 8  # uint8 adjacency / float64 costs
    return {"dots": n + m, "zero": _zero_dots(left.dots) + _zero_dots(right.dots),
            "dense_bytes": (n + m) ** 2 * itemsize}


def _critical_counts(args, kwargs, result):
    report = result[0]
    pixels = set()
    dec = report.student_decomposition
    for dot in dec.signal.dots + dec.noise.dots:
        pixels.add(dot.birth_pixel)
        if dot.death_pixel is not None:
            pixels.add(dot.death_pixel)
    return {"critical": len(pixels)}


def _label_counts(args, kwargs, result):
    return {"components": int(result.count)}


def install(tracer: Tracer) -> None:
    """Rebind every layer function where its callers look it up."""
    import topokit.cli as cli
    import topokit.losses as losses
    import topokit.metrics as metrics
    import topokit.trainer as trainer

    layer = {
        "load_grid": ("grid.load", _load_counts),
        "load_mask_pgm": ("grid.load", _load_counts),
        "label_components": ("grid.label", _label_counts),
        "compute_diagram": ("persistence.diagram", _diagram_counts),
        "save_diagram_csv": ("persistence.save_csv", _rows_in),
        "load_diagram_csv": ("persistence.load_csv", _rows_out),
        "decompose": ("diagram.decompose", None),
        "match_diagrams": (_matching_kind, _matching_counts),
        "topo_loss_and_gradient": ("losses.topo", _critical_counts),
        "cross_entropy_loss": ("losses.pixel", None),
        "cross_entropy_gradient": ("losses.pixel", None),
        "compute_metrics": ("metrics.compute", None),
    }
    for module in (cli, losses, metrics, trainer):
        for attr, (name, counts) in layer.items():
            if hasattr(module, attr):
                setattr(module, attr, wrap(tracer, name, getattr(module, attr), counts))
    _install_step_spans(tracer, trainer)


def _install_step_spans(tracer: Tracer, trainer) -> None:
    """One ``trainer.step`` span per step, cut at each ``ema_update`` return.

    ``ema_update`` runs once per step, at its end. The part of
    ``run_simulation`` after the last step stays in ``trainer.run``.
    """
    run_simulation, ema_update = trainer.run_simulation, trainer.ema_update

    @functools.wraps(run_simulation)
    def traced_run(*args, **kwargs):
        tracer.begin("trainer.run")
        tracer.begin("trainer.step")
        try:
            return run_simulation(*args, **kwargs)
        finally:
            tracer.discard()
            tracer.end()

    @functools.wraps(ema_update)
    def traced_ema(*args, **kwargs):
        result = ema_update(*args, **kwargs)
        tracer.end()
        tracer.op += 1
        tracer.begin("trainer.step")
        return result

    trainer.run_simulation = traced_run
    trainer.ema_update = traced_ema


# -- aggregation ---------------------------------------------------------------

def layer_totals(spans) -> dict:
    """Per span name: self seconds, calls and summed counts.

    Self time is a span's duration minus the time its children cover. Spans
    on one thread nest, so the children's durations simply add up.
    """
    child_time = defaultdict(float)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = defaultdict(lambda: defaultdict(float))
    for sid, name, start, end, _, _, attrs in spans:
        key = name + "." + attrs["fmt"] if "fmt" in attrs else name
        entry = totals[key]
        entry["self_s"] += (end - start) - child_time[sid]
        entry["total_s"] += end - start
        entry["calls"] += 1
        for k, v in attrs.items():
            if k != "fmt":
                entry[k] += v
    return totals
