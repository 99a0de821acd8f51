"""The names the benchmark harness under bench/ reads from the package.

bench/tracer.py wraps the functions its TARGETS table names, and
bench/test_bench.py builds bare graphs and reads a framework's bars.
A rename there breaks traced runs (--trace 1) while untraced ones still
pass, so these checks keep that surface in the fast suite.  Every other
name a bench script reads from the package (`iso.all_faces`,
`cli.main`, `from isoframe.laman import Graph`) must resolve too, or
every bench run fails.  bench/ is read as data, without importing it.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import types

import pytest

import isoframe as iso

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


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


def _package_names(path: pathlib.Path) -> set[str]:
    """Dotted names the script reads from isoframe: each `alias.name`
    where an import binds alias to isoframe or one of its modules, and
    each name a `from isoframe... import` takes.  An alias counts in the
    whole file, since the worker hands its imported modules to helpers."""
    tree = ast.parse(path.read_text())
    aliases: dict[str, str] = {}
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "isoframe":
                    if a.asname:
                        aliases[a.asname] = a.name
                    else:
                        aliases["isoframe"] = "isoframe"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "isoframe":
            for a in node.names:
                names.add(f"{node.module}.{a.name}")
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            names.add(".".join([aliases[node.id], *reversed(chain)]))
    return names


def _resolve(dotted: str) -> object:
    """The object a dotted isoframe name reads, importing submodules on
    the way; the attributes of a non-module are not followed."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], 2):
        if not isinstance(obj, types.ModuleType):
            break
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:k]))
    return obj


BENCH_NAMES = sorted(
    {(p.name, n) for p in BENCH.glob("*.py") for n in _package_names(p)}
)


def test_the_bench_reads_package_names():
    # the scan sees the calls that build every workload
    seen = {("workloads.py", "isoframe.all_faces"), ("worker.py", "isoframe.cli.main")}
    assert seen <= set(BENCH_NAMES)


@pytest.mark.parametrize("script,name", BENCH_NAMES)
def test_every_package_name_the_bench_reads_resolves(script, name):
    _resolve(name)
