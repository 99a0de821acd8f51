"""The names the benchmark harness under bench/ reads from the package.

bench/tracer.py wraps the functions its TARGETS table names, and
bench/test_bench.py builds bare graphs and reads a framework's bars.
A rename there breaks traced runs (--trace 1) while untraced ones still
pass, so these checks keep that surface in the fast suite.  TARGETS is
read as data, without importing the harness.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

import isoframe as iso

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACER}")


@pytest.mark.parametrize(
    "module,name", [(m, n) for m, names in _targets().items() for n in names]
)
def test_every_traced_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"isoframe.{module}"), name))


def test_the_bench_builds_bare_graphs_from_laman():
    from isoframe.laman import Graph, pebble_game_2_3

    sorted_edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    assert pebble_game_2_3(Graph(4, sorted_edges)).verdict == "tight"
    assert pebble_game_2_3(Graph(4, sorted_edges[:4])).verdict == "independent-but-underbraced"


def test_a_framework_bar_is_an_id_and_its_ends():
    f = iso.fig2_examples("C2")
    bars = list(f.bars)
    assert [b.id for b in bars] == list(range(f.bar_count))
    assert [list(b.ends) for b in bars] == f.ends.tolist()
    assert all(isinstance(b.ends, tuple) for b in bars)
