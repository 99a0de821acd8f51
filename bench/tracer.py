"""Spans around the library's public functions, installed from outside.

The tracer wraps each target function once and puts the wrapper into
every isoframe module attribute that holds the original, because most
callers bind names at import (``cli`` does ``from .numrank import
mobility``).  ``numpy.linalg.svd`` is wrapped too; each SVD span is
charged to the layer of its nearest wrapped parent.  Spans stay in
memory until the run ends.  An untraced run never imports this module.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# (module, function) pairs to wrap; the span name is "<module>.<function>"
TARGETS = {
    "cli": ("main",),
    "core": ("from_json_dict", "new_framework"),
    "symdetect": (
        "detect_symmetries",
        "classify_group",
        "unshifted_counts",
        "orbits",
    ),
    "chartables": ("table_for_group",),
    "maxwell": ("maxwell_trace", "isostatic_necessary", "decompose_irreps"),
    "numrank": ("mobility", "nullspace_bases", "build_system"),
    "laman": ("pebble_game_2_3", "subgraph_maxwell_scan_3d", "symmetric_laman"),
    "constructgen": (
        "platonic",
        "cap_face",
        "cap_all_faces_symmetric",
        "twisted_cap_all_faces",
        "hat_stack",
        "fig2_examples",
        "counterexample_2d",
        "double_banana",
    ),
}
SVD = "numpy.linalg.svd"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    job: str | None
    error: str | None = None
    count: float = 0.0  # per-span work count (joints, group order, flops, ...)


def svd_flops(shape: tuple[int, ...], full_matrices: bool, compute_uv: bool) -> float:
    """Golub-Van Loan operation counts for an SVD of an m x n matrix."""
    if len(shape) != 2:
        return 0.0
    m, n = max(shape), min(shape)
    if not compute_uv:
        return 4.0 * m * n * n - 4.0 * n**3 / 3.0
    if full_matrices:
        return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3
    return 14.0 * m * n * n + 8.0 * n**3


def _count(name: str, args: tuple, kwargs: dict, result) -> float:
    """The work count recorded on a span, read off its arguments or result."""
    if name == "core.new_framework":
        return float(result.joint_count)
    if name == "symdetect.classify_group":
        return float(result.order)
    if name == "laman.pebble_game_2_3":
        # the game stops at the first rejected bar, which closes the witness
        if result.verdict == "dependent":
            return float(max(result.witness_bar_ids) + 1)
        return float(result.bar_count)
    if name == SVD:
        a = args[0] if args else kwargs["a"]
        full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
        uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
        return svd_flops(getattr(a, "shape", ()), bool(full), bool(uv))
    return 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.job)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.count = _count(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever an isoframe module binds it."""
        import importlib

        import numpy

        homes = {short: importlib.import_module(f"isoframe.{short}") for short in TARGETS}
        modules = [m for k, m in sys.modules.items() if k == "isoframe" or k.startswith("isoframe.")]
        for short, names in TARGETS.items():
            home = homes[short]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        original_svd = numpy.linalg.svd
        self._restore.append((numpy.linalg, "svd", original_svd))
        numpy.linalg.svd = self.wrap(SVD, original_svd)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# arithmetic on finished spans


def self_time(spans: list[Span], index: int, children: dict[int, list[int]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    span = spans[index]
    covered = 0.0
    reach = span.start
    for c in sorted(children.get(index, ()), key=lambda i: spans[i].start):
        lo = max(spans[c].start, reach)
        hi = min(spans[c].end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span.end - span.start) - covered


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            out.setdefault(s.parent, []).append(i)
    return out


def _layer(spans: list[Span], i: int | None) -> str | None:
    return None if i is None else spans[i].name.split(".", 1)[0]


def _outermost(spans: list[Span], i: int) -> bool:
    """False when the same function is already running further up."""
    p = spans[i].parent
    while p is not None:
        if spans[p].name == spans[i].name:
            return False
        p = spans[p].parent
    return True


# every per-layer metric and its unit
LAYER_METRICS = {
    "cli.self_ms": "ms",
    "cli.jobs": "count",
    "core.from_json_dict.busy_ms": "ms",
    "core.new_framework.busy_ms": "ms",
    "core.new_framework.calls": "count",
    "core.joints_validated": "count",
    "symdetect.detect_symmetries.busy_ms": "ms",
    "symdetect.detect_symmetries.calls": "count",
    "symdetect.classify_group.busy_ms": "ms",
    "symdetect.classify_group.calls": "count",
    "symdetect.group_order_sum": "count",
    "symdetect.unshifted_counts.busy_ms": "ms",
    "symdetect.unshifted_counts.calls": "count",
    "symdetect.orbits.busy_ms": "ms",
    "chartables.table_for_group.busy_ms": "ms",
    "chartables.table_for_group.calls": "count",
    "maxwell.maxwell_trace.busy_ms": "ms",
    "maxwell.isostatic_necessary.busy_ms": "ms",
    "maxwell.decompose_irreps.busy_ms": "ms",
    "numrank.mobility.busy_ms": "ms",
    "numrank.mobility.calls": "count",
    "numrank.nullspace_bases.busy_ms": "ms",
    "numrank.nullspace_bases.calls": "count",
    "numrank.build_system.calls": "count",
    "numrank.svd.busy_ms": "ms",
    "numrank.svd.calls": "count",
    "numrank.svd_flops_computed": "flop",
    "laman.subgraph_maxwell_scan_3d.busy_ms": "ms",
    "laman.subgraph_maxwell_scan_3d.calls": "count",
    "laman.subgraph_maxwell_scan_3d.aborts": "count",
    "laman.pebble_game_2_3.busy_ms": "ms",
    "laman.pebble_game_2_3.calls": "count",
    "laman.edges_offered": "count",
    "laman.symmetric_laman.busy_ms": "ms",
    **{f"constructgen.{r}.busy_ms": "ms" for r in TARGETS["constructgen"]},
}

# counters summed from Span.count, keyed by the span they ride on
_COUNTS = {
    "core.joints_validated": "core.new_framework",
    "symdetect.group_order_sum": "symdetect.classify_group",
    "laman.edges_offered": "laman.pebble_game_2_3",
}


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Every per-layer metric, per pass of the job list.

    Job spans (those with a job id other than "setup") feed the layer
    metrics; setup spans feed the constructgen recipe times, which are
    reported per set-up, not per pass.
    """
    children = children_of(spans)
    out = {name: 0.0 for name in LAYER_METRICS}
    for i, s in enumerate(spans):
        ms = (s.end - s.start) * 1e3
        if s.job == "setup":
            if s.name.startswith("constructgen.") and _outermost(spans, i):
                out[f"{s.name}.busy_ms"] += ms
            continue
        if s.job is None:
            continue
        if s.name == SVD:
            if _layer(spans, s.parent) == "numrank":
                out["numrank.svd.busy_ms"] += ms
                out["numrank.svd.calls"] += 1
                out["numrank.svd_flops_computed"] += s.count
            continue
        if s.name == "cli.main":
            out["cli.self_ms"] += self_time(spans, i, children) * 1e3
            out["cli.jobs"] += 1
            continue
        if s.name == "laman.subgraph_maxwell_scan_3d" and s.error == "CapExceeded":
            out["laman.subgraph_maxwell_scan_3d.aborts"] += 1
        for metric, source in _COUNTS.items():
            if source == s.name:
                out[metric] += s.count
        if f"{s.name}.calls" in out:
            out[f"{s.name}.calls"] += 1
        if f"{s.name}.busy_ms" in out and _outermost(spans, i):
            out[f"{s.name}.busy_ms"] += ms
    scale = 1.0 / max(passes, 1)
    return {k: (v if k.startswith("constructgen.") else v * scale) for k, v in out.items()}
