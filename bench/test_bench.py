"""Self-tests of the benchmark harness: python3 -m pytest bench -q"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (str(HERE), str(HERE.parent / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import expected as ex  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

import isoframe as iso  # noqa: E402
from isoframe.laman import Graph, pebble_game_2_3  # noqa: E402


# ---------------------------------------------------------------------------
# an oracle that shares no code with the program: rank of a rigidity
# matrix assembled here, by numpy's matrix_rank


def _rigidity(coords: np.ndarray, bars) -> np.ndarray:
    j, d = coords.shape
    rows = np.zeros((len(bars), d * j))
    for k, (u, v) in enumerate(bars):
        diff = coords[u] - coords[v]
        rows[k, d * u : d * u + d] = diff
        rows[k, d * v : d * v + d] = -diff
    return rows


def _m_s(coords: np.ndarray, bars) -> tuple[int, int]:
    j, d = coords.shape
    rank = np.linalg.matrix_rank(_rigidity(coords, bars))
    rigid = d * (d + 1) // 2
    return d * j - rank - rigid, len(bars) - rank


def _generic_sparsity(j: int, bars, rng) -> str:
    rank = np.linalg.matrix_rank(_rigidity(rng.random((j, 2)), bars))
    if rank < len(bars):
        return ex.DEPENDENT
    return ex.TIGHT if rank == 2 * j - 3 else ex.UNDERBRACED


def _sorted_edges(bars) -> tuple[tuple[int, int], ...]:
    return tuple((min(u, v), max(u, v)) for u, v in bars)


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("shape", gen.SHAPES)
@pytest.mark.parametrize("j", [3, 4, 10, 57, 300])
def test_henneberg_has_2j_minus_3_distinct_bars(shape, j):
    coords, bars = gen.henneberg(np.random.default_rng(j), j, shape)
    assert coords.shape == (j, 2)
    assert len(bars) == 2 * j - 3
    assert len(set(bars)) == len(bars)
    assert all(0 <= u < v < j for u, v in bars)


@pytest.mark.parametrize("shape", gen.SHAPES)
@pytest.mark.parametrize("seed", range(5))
def test_small_generated_graphs_play_out_as_constructed(shape, seed):
    rng = np.random.default_rng(seed)
    j = int(rng.integers(5, 40))
    _, bars = gen.henneberg(rng, j, shape)
    cases = {
        ex.TIGHT: bars,
        ex.DEPENDENT: gen.add_bar(rng, j, bars),
        ex.UNDERBRACED: gen.remove_bar(rng, bars),
    }
    for verdict, bb in cases.items():
        edges = _sorted_edges(gen.shuffled(rng, bb))
        assert pebble_game_2_3(Graph(j, edges)).verdict == verdict
        assert _generic_sparsity(j, bb, rng) == verdict


@pytest.mark.parametrize("shape", gen.SHAPES)
def test_generated_frameworks_have_the_constructed_m_and_s(shape):
    rng = np.random.default_rng(7)
    coords, bars = gen.henneberg(rng, 60, shape)
    for variant, bb in (
        ("tight", bars),
        ("dependent", gen.add_bar(rng, 60, bars)),
        ("underbraced", gen.remove_bar(rng, bars)),
    ):
        fx = ex.generated(variant)
        assert _m_s(coords, bb) == (fx.m, fx.s)


def test_perturb_is_a_scaled_rigid_motion_with_relabelling():
    rng = np.random.default_rng(3)
    octahedron = iso.platonic("octahedron")
    f = iso.to_json_dict(iso.cap_face(octahedron, iso.all_faces(octahedron)[0], 1.0))
    g = gen.perturb(rng, f)
    a, b = np.array(f["joints"]), np.array(g["joints"])
    assert len(g["bars"]) == len(f["bars"])
    # bar lengths keep their multiset up to one common factor
    la = sorted(np.linalg.norm(a[u] - a[v]) for u, v in f["bars"])
    lb = sorted(np.linalg.norm(b[u] - b[v]) for u, v in g["bars"])
    ratios = np.array(lb) / np.array(la)
    assert np.allclose(ratios, ratios[0])
    assert g != gen.perturb(np.random.default_rng(4), f)


# ---------------------------------------------------------------------------
# expected answers


def test_fixture_table_agrees_with_an_independent_rank_oracle():
    rng = np.random.default_rng(11)
    for name, fx in ex.FIXTURES.items():
        f = wl.build_fixture(name)
        coords = np.asarray(f.coordinates)
        bars = [b.ends for b in f.bars]
        assert f.dimension == fx.dimension, name
        assert _m_s(coords, bars) == (fx.m, fx.s), name
        if fx.dimension == 2:
            assert _generic_sparsity(f.joint_count, bars, rng) == fx.sparsity, name
        else:
            assert fx.sparsity == ex.CLEAN


CHEAP = list(wl.SYMMETRIC)


@pytest.mark.parametrize("name", CHEAP)
def test_perturbation_keeps_the_verdict(name):
    from isoframe import cli

    base = iso.to_json_dict(wl.build_fixture(name))
    expect = ex.for_command(ex.FIXTURES[name], "analyze")
    moved = [gen.perturb(np.random.default_rng(seed), base) for seed in range(2)]
    for payload in [base] + moved:
        rec = worker.run_job(iso, cli, wl.Job(name, "analyze", json.dumps(payload), expect))
        assert (rec["outcome"], rec["detail"], rec["as_expected"]) == ("ok", "", True)


# ---------------------------------------------------------------------------
# judging answers


class _FakeCli:
    """Stands in for isoframe.cli: prints a fixed report, or raises."""

    def __init__(self, code=0, report=None, stderr="", raises=None):
        self.code, self.report, self.stderr, self.raises = code, report, stderr, raises

    def main(self, argv):
        if self.raises is not None:
            raise self.raises
        if self.report is not None:
            print(json.dumps(self.report))
        print(self.stderr, file=sys.stderr)
        return self.code


def _judge(cli, expect):
    rec = worker.run_job(iso, cli, wl.Job("j", "check --sufficient", "{}", expect))
    return rec["outcome"], rec["as_expected"]


_CLEAN_ICO = ex.for_command(ex.FIXTURES["icosahedron_twisted"], "check --sufficient")
_BUDGET = "error: " + ex.SCREEN_BUDGET[1] + "; the framework is too large"


def _report(group="I", screen=()):
    return {"group": {"schoenflies": group}, "conditions": {"passed": True},
            "sufficiency": {"screen_violations": None if screen is None else list(screen)}}


def test_exit_3_is_undecided_and_unexpected_unless_it_is_the_known_defect():
    known = replace(_CLEAN_ICO, defect=ex.SCREEN_BUDGET)
    assert _judge(_FakeCli(code=3, stderr=_BUDGET), known) == ("undecided", True)
    assert _judge(_FakeCli(code=3, stderr=_BUDGET), _CLEAN_ICO) == ("undecided", False)
    # the same outcome for another reason, such as a smaller budget, is not the defect
    other = _FakeCli(code=3, stderr="error: more than 1000 connected subgraphs within cap 8")
    assert _judge(other, known) == ("undecided", False)
    assert _judge(_FakeCli(code=3, stderr="error: bad JSON"), known) == ("undecided", False)


def test_an_aborted_screen_is_undecided_only_if_every_other_field_is_right():
    assert _judge(_FakeCli(report=_report(screen=None)), _CLEAN_ICO) == ("undecided", False)
    assert _judge(_FakeCli(report=_report(group="T", screen=None)), _CLEAN_ICO) == ("wrong", False)
    assert _judge(_FakeCli(code=1, report=_report(screen=None)), _CLEAN_ICO) == ("wrong", False)
    assert _judge(_FakeCli(report=_report()), _CLEAN_ICO) == ("ok", True)


def test_only_the_known_exception_type_is_an_expected_crash():
    known = replace(_CLEAN_ICO, defect=ex.RECURSION)
    assert _judge(_FakeCli(raises=RecursionError("deep")), known) == ("crash", True)
    assert _judge(_FakeCli(raises=KeyError("x")), known) == ("crash", False)
    assert _judge(_FakeCli(raises=RecursionError("deep")), _CLEAN_ICO) == ("crash", False)


# ---------------------------------------------------------------------------
# job lists


def test_job_lists_are_seeded_and_complete():
    gallery = wl.gallery_for("batch")
    a = wl.jobs_for("batch", 5, 0, gallery)
    b = wl.jobs_for("batch", 5, 0, gallery)
    c = wl.jobs_for("batch", 5, 1, gallery)
    assert [(x.name, x.payload) for x in a] == [(x.name, x.payload) for x in b]
    assert sorted(x.name for x in a) == sorted(x.name for x in c)
    cli_payloads = [x.payload for x in a if isinstance(x.payload, str)]
    assert set(cli_payloads).isdisjoint(x.payload for x in c if isinstance(x.payload, str))
    symmetric = 25 * 3 + 2 * 2
    planar = 10 + 6 + 6  # analyze, pebble, mobility + nullspace_bases
    assert len(a) == len({x.name for x in a}) == symmetric + planar


def test_known_defect_jobs_stay_in_the_lists_and_only_they_are_marked():
    batch = wl.jobs_for("batch", 0, 0, wl.gallery_for("batch"))
    screen = wl.jobs_for("screen3d", 0, 0, wl.gallery_for("screen3d"))
    assert len({j.name for j in screen}) == 15
    assert [j.name for j in screen].count("check --sufficient:icosahedron_twisted") == 1
    marked = {j.name: j.expect.defect for j in batch + screen if j.expect.defect is not None}
    assert marked == wl.KNOWN_DEFECTS


# ---------------------------------------------------------------------------
# tracing


def _span(name, start, end, parent=None, job="0:a"):
    return tr.Span(name, start, end, parent, job)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("core.new_framework", 1.0, 3.0, 0),
        _span("numrank.mobility", 2.0, 4.0, 0),  # overlaps the first child
        _span("laman.pebble_game_2_3", 8.0, 12.0, 0),  # runs past the parent
    ]
    assert tr.self_time(spans, 0, tr.children_of(spans)) == pytest.approx(10.0 - 3.0 - 2.0)
    assert tr.self_time(spans, 1, tr.children_of(spans)) == pytest.approx(2.0)


def test_layer_metrics_count_outermost_calls_and_charge_svds_by_parent():
    spans = [
        _span("cli.main", 0.0, 1.0),
        _span("numrank.mobility", 0.1, 0.5, 0),
        _span("numrank.mobility", 0.2, 0.3, 1),  # nested: calls 2, busy once
        _span(tr.SVD, 0.21, 0.29, 2),
        _span("symdetect.detect_symmetries", 0.6, 0.9, 0),
        _span(tr.SVD, 0.7, 0.8, 4),  # not a numrank SVD
        _span("constructgen.platonic", 0.0, 0.002, None, job="setup"),
    ]
    spans[3].count = 1e6
    m = tr.layer_metrics(spans, passes=2)
    assert m["numrank.mobility.calls"] == 1.0  # 2 calls over 2 passes
    assert m["numrank.mobility.busy_ms"] == pytest.approx(400.0 / 2)
    assert m["numrank.svd.calls"] == 0.5
    assert m["numrank.svd_flops_computed"] == 5e5
    assert m["cli.self_ms"] == pytest.approx((1.0 - 0.4 - 0.3) * 1e3 / 2)
    assert m["constructgen.platonic.busy_ms"] == pytest.approx(2.0)  # per set-up
    assert set(m) == set(tr.LAYER_METRICS)


def test_tracer_wraps_every_binding_and_restores_them():
    import isoframe.cli as cli
    import isoframe.numrank as numrank

    before = (cli.mobility, numrank.mobility, iso.mobility, np.linalg.svd)
    t = tr.Tracer()
    t.install()
    try:
        assert cli.mobility is not before[0] and cli.mobility is numrank.mobility
        assert iso.mobility is numrank.mobility
        t.job = "0:x"
        iso.mobility(iso.double_banana())
    finally:
        t.uninstall()
    assert (cli.mobility, numrank.mobility, iso.mobility, np.linalg.svd) == before
    names = {s.name for s in t.spans}
    assert {"numrank.mobility", "numrank.build_system", tr.SVD} <= names
    svd = [s for s in t.spans if s.name == tr.SVD]
    assert all(t.spans[s.parent].name.startswith("numrank.") for s in svd)


def test_svd_flop_counts():
    assert tr.svd_flops((10, 4), True, False) == 4 * 10 * 16 - 4 * 64 / 3
    assert tr.svd_flops((4, 10), True, True) == 4 * 100 * 4 + 8 * 10 * 16 + 9 * 64


# ---------------------------------------------------------------------------
# metrics and compare mode


def _rec(job, outcome, latency, as_expected=None):
    if as_expected is None:
        as_expected = outcome == "ok"
    return {"outcome": outcome, "latency_s": latency, "job": job, "detail": "", "as_expected": as_expected}


def test_run_metrics_take_job_medians_and_rank_failures_last():
    passes = [
        [_rec("a", "ok", 1.0), _rec("b", "crash", 0.1, True), _rec("c", "undecided", 2.0, True)],
        [_rec("a", "ok", 3.0), _rec("b", "ok", 1.0), _rec("c", "ok", 2.0)],
    ]
    m = run.run_metrics(passes)
    # each job at its median: a 2.0, b 0.55 (failed once), c 2.0
    assert m["wall_s"] == pytest.approx(4.55)
    assert m["latency_p50_ms"] == pytest.approx(2000.0)  # b ranks above all
    assert m["fail_rate"] == pytest.approx(1 / 6)
    assert m["undecided_rate"] == pytest.approx(1 / 6)
    assert (m["failed"], m["undecided"], m["unexpected"]) == (1, 1, 0)
    assert "latency_p90_ms" not in m
    # an undecided job that is not its known defect is a failure too
    passes[0][2]["as_expected"] = False
    m = run.run_metrics(passes)
    assert (m["failed"], m["undecided"], m["unexpected"]) == (2, 1, 1)
    assert m["latency_p50_ms"] == math.inf


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    assert run.percentile([5.0], 90) == 5.0


def test_compare_reports_ratio_and_bound():
    spec = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]}

    def rec(wall, rss, layer):
        return {"workload": "w", "metrics": {
            "wall_s": {"value": wall}, "peak_rss_mb": {"value": rss}, "numrank.svd.calls": {"value": layer}}}

    old = [rec(10.0, 100.0, 4), rec(12.0, 100.0, 4), rec(11.0, 100.0, 4)]
    new = [rec(13.0, 90.0, 2), rec(13.0, 90.0, 2), rec(12.5, 90.0, 2)]
    rows = {r["metric"]: r for r in run.compare(old, new, spec)}
    assert rows["wall_s"]["ratio"] == pytest.approx(13.0 / 11.0)
    assert rows["wall_s"]["verdict"].startswith("WORSE")
    assert rows["peak_rss_mb"]["verdict"] == "better"
    assert rows["numrank.svd.calls"]["verdict"] == "no bound"


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == wl.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.units(True)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(wl.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 and n[0].isalnum() for n in names)
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60


def test_every_expected_fixture_can_be_built():
    for name in itertools.chain.from_iterable(wl.fixture_names(w) for w in wl.WORKLOADS):
        assert name in ex.FIXTURES
