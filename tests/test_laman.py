"""Pebble game, symmetric sufficiency check, generic rank over GF(p), 3D
subgraph count scan and count screen."""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoframe import core, laman
from isoframe.constructgen import (
    cap_all_faces_symmetric,
    counterexample_2d,
    double_banana,
    fig2_examples,
    platonic,
    twisted_cap_all_faces,
)
from isoframe.core import new_framework
from isoframe.errors import (
    CapExceeded,
    DanglingEndpoint,
    DuplicateBar,
    GroupOutsideWhitelist,
    ParseError,
    SelfLoop,
)
from isoframe.laman import (
    Graph,
    count_screen_3d,
    generic_rank,
    pebble_game_2_3,
    subgraph_maxwell_scan_3d,
    symmetric_laman,
)
from isoframe.maxwell import isostatic_necessary
from isoframe.numrank import mobility

from oracles import (
    connected_induced_subgraphs_bruteforce,
    count_violations_bruteforce,
    henneberg_graph,
    henneberg_tight_graph,
    laman_verdict_bruteforce,
    pebble_game_plain,
    random_count_graph,
    rank_mod_p_swapping,
)


def test_pebble_known_cases():
    triangle = Graph(3, ((0, 1), (0, 2), (1, 2)))
    assert pebble_game_2_3(triangle).verdict == "tight"

    square = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    rep = pebble_game_2_3(square)
    assert rep.verdict == "independent-but-underbraced"
    assert rep.free_pebbles == 4

    k4 = Graph(4, tuple(itertools.combinations(range(4), 2)))
    rep = pebble_game_2_3(k4)
    assert rep.verdict == "dependent"
    assert rep.witness_joint_total == 4
    assert rep.witness_bar_total == 6  # 6 > 2*4 - 3

    shared_edge = Graph(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
    assert pebble_game_2_3(shared_edge).verdict == "tight"


def test_pebble_exhaustive_small_graphs():
    # every edge subset on 4 and 5 joints, against brute-force subsets
    for j in (4, 5):
        pairs = list(itertools.combinations(range(j), 2))
        for r in range(len(pairs) + 1):
            for combo in itertools.combinations(pairs, r):
                got = pebble_game_2_3(Graph(j, combo)).verdict
                want = laman_verdict_bruteforce(j, list(combo))
                assert got == want, (j, combo)


def test_pebble_witness_is_a_genuine_violation():
    rng = random.Random(411)
    for _ in range(50):
        j = rng.randrange(5, 11)
        edges = sorted(henneberg_tight_graph(rng, j))
        spare = [
            (u, v)
            for u in range(j)
            for v in range(u + 1, j)
            if (u, v) not in set(edges)
        ]
        if not spare:
            continue
        edges.append(rng.choice(spare))
        edges.sort()
        rep = pebble_game_2_3(Graph(j, tuple(edges)))
        assert rep.verdict == "dependent"
        region = set(rep.witness_joint_ids)
        # recount the induced bars ourselves: every witness bar lies
        # inside the region and the count genuinely overshoots
        induced = [
            k for k, (u, v) in enumerate(edges) if u in region and v in region
        ]
        assert set(rep.witness_bar_ids) <= set(induced)
        assert rep.witness_bar_total > 2 * rep.witness_joint_total - 3


def test_pebble_invariant_holds_after_every_move():
    rng = random.Random(77)
    edges = sorted(henneberg_tight_graph(rng, 12))
    seen = []

    def audit(state):
        state.check_invariant()
        seen.append((sum(state.pebbles), state.placed))

    rep = pebble_game_2_3(Graph(12, tuple(edges)), on_move=audit)
    assert rep.verdict == "tight"
    assert len(seen) == len(edges) + 1
    assert all(free + placed == 24 for free, placed in seen)
    assert seen[-1] == (3, 21)


def test_graph_validation():
    with pytest.raises(SelfLoop):
        Graph(3, ((1, 1),))
    with pytest.raises(DanglingEndpoint):
        Graph(3, ((0, 3),))
    with pytest.raises(DuplicateBar):
        Graph(3, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        pebble_game_2_3(Graph(1, ()))


def test_graph_from_framework_does_not_check_the_bars_again(monkeypatch):
    # new_framework has checked the bars and stored them low id first;
    # the pebble game and the rank read them where they are
    f = fig2_examples("C3")
    want = pebble_game_2_3(Graph(f.joint_count, f.ends.tolist())), generic_rank(f, 2)

    def refuse(*args):
        raise AssertionError("the bars were checked again")

    monkeypatch.setattr(core, "bar_ends", refuse)
    assert (pebble_game_2_3(f), generic_rank(f, 2)) == want
    with pytest.raises(AssertionError):
        Graph(3, ((0, 1),))


def test_graph_from_pairs_stores_low_id_first():
    g = Graph(4, [[1, 0], (2, 3), [3, 0]])
    assert (g.joint_count, g.bar_count) == (4, 3)
    assert g.ends.tolist() == [[0, 1], [2, 3], [0, 3]]
    assert Graph(3, [(1, 0)]).ends.tolist() == [[0, 1]]
    assert not g.ends.flags.writeable
    with pytest.raises(DuplicateBar):
        Graph(3, [[0, 1], [1, 0]])
    # a framework is a graph, its bar ids the rows of its ends
    f = fig2_examples("C2")
    assert isinstance(f, Graph)
    assert Graph(f.joint_count, f.ends.tolist()).ends.tolist() == f.ends.tolist()


@pytest.mark.parametrize("count", [-1, 2**63, 2**64, -(2**63)])
def test_graph_joint_count_must_fit_int64(count):
    with pytest.raises(ParseError, match="joint count"):
        Graph(count, [])
    with pytest.raises(ParseError, match="joint count"):
        Graph(count, [(0, 1)])
    with pytest.raises(ParseError, match="joint count"):  # bar_ends owns the check
        core.bar_ends(count, [(0, 1)])
    assert Graph(2**63 - 1, [(0, 2**63 - 2)]).ends.tolist() == [[0, 2**63 - 2]]


def test_graph_equality_needs_the_same_type():
    f = fig2_examples("C2")
    g = Graph(f.joint_count, f.ends.tolist())
    assert g == Graph(f.joint_count, [(v, u) for u, v in f.ends.tolist()])
    assert hash(g) == hash(Graph(f.joint_count, f.ends.tolist()))
    assert g != Graph(f.joint_count + 1, f.ends.tolist())
    assert g != Graph(f.joint_count, f.ends[1:].tolist())
    assert g != f and f != g
    assert len({g, f}) == 2


def test_a_bare_graph_keeps_its_peel(monkeypatch):
    calls = []
    real = core.peel_low_degree

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(core, "peel_low_degree", counted)
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert pebble_game_2_3(g) == pebble_game_2_3(g)
    assert len(calls) == 1
    assert g.peel(2) is g.peel(2)
    for kept in g.peel(2):  # read-only: a consumer cannot change what the next one reads
        with pytest.raises(ValueError):
            kept[0] = 0


@pytest.mark.parametrize(
    "key,epistemic",
    [
        ("C1", "theorem-backed"),
        ("C2", "theorem-backed"),
        ("C3", "theorem-backed"),
        ("Cs_perp", "theorem-backed"),
        ("Cs_in", "theorem-backed"),
        ("C2v", "conjectural"),
        ("C3v_perp", "conjectural"),
        ("C3v_in", "conjectural"),
    ],
)
def test_symmetric_sufficiency_positive(key, epistemic):
    f = fig2_examples(key)
    rep = symmetric_laman(f, isostatic_necessary(f))
    assert rep.passed
    assert rep.epistemic == epistemic
    assert rep.pebble is not None and rep.pebble.verdict == "tight"
    if epistemic == "conjectural":
        assert any("conjectured" in n for n in rep.notes)


def test_symmetric_sufficiency_rejects_outside_whitelist():
    for key in ("C4", "C5", "C6", "C4v"):
        with pytest.raises(GroupOutsideWhitelist):
            f = counterexample_2d(key)
            symmetric_laman(f, isostatic_necessary(f))


def test_symmetric_sufficiency_2d_only():
    with pytest.raises(ValueError):
        f = platonic("octahedron")
        symmetric_laman(f, isostatic_necessary(f))


def test_symmetric_sufficiency_underbraced():
    base = fig2_examples("C1")
    pared = new_framework(
        2, base.coordinates, base.ends.tolist()[:-1]
    )
    rep = symmetric_laman(pared, isostatic_necessary(pared))
    assert not rep.passed
    assert rep.pebble.verdict == "independent-but-underbraced"
    assert any("independent-but-underbraced" in n for n in rep.notes)


def test_scan_banana_is_clean_yet_flexible():
    # the canonical 3D failure of counting: every connected induced
    # subgraph satisfies its count, yet a mechanism and a self-stress
    # coexist
    f = double_banana()
    assert subgraph_maxwell_scan_3d(f, max_subgraph_joints=8) == []
    summary = mobility(f)
    assert summary.mechanisms == 1
    assert summary.self_stresses == 1


def test_scan_finds_overbraced_pocket():
    f = platonic("octahedron")
    bars = f.ends.tolist() + [[0, 1]]  # a diameter
    pts = [tuple(p) for p in f.coordinates]
    over = new_framework(3, pts, sorted(bars))
    hits = subgraph_maxwell_scan_3d(over, max_subgraph_joints=6)
    assert hits
    assert hits[-1].joint_total == 6
    assert hits[-1].slack == -1
    # the violation vanishes when the cap sits below the pocket size
    smallest = min(h.joint_total for h in hits)
    assert subgraph_maxwell_scan_3d(over, max_subgraph_joints=smallest - 1) == []


def test_scan_matches_bruteforce_on_random_graphs():
    # 20 graphs at the 2D count b = 2j - 3, which rarely hold a 3D
    # violation, then 20 at b = 3j - 5, one bar over the 3D count
    rng = random.Random(1889)
    hits = 0
    for trial in range(40):
        j = rng.randrange(5, 9)
        if trial < 20:
            edges = sorted(random_count_graph(rng, j))
        else:
            pairs = list(itertools.combinations(range(j), 2))
            edges = sorted(rng.sample(pairs, 3 * j - 5))
        pts = [
            (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(j)
        ]
        f = new_framework(3, pts, edges)
        got = [
            (v.joint_ids, v.slack, v.bar_ids, v.bar_total)
            for v in subgraph_maxwell_scan_3d(f, max_subgraph_joints=j)
        ]
        want = []
        for joint_ids, slack in count_violations_bruteforce(j, edges, j):
            bar_ids = tuple(
                k
                for k, (u, v) in enumerate(edges)
                if u in joint_ids and v in joint_ids
            )
            want.append((joint_ids, slack, bar_ids, len(bar_ids)))
        assert sorted(got) == sorted(want)
        hits += len(want)
    assert hits > 0


def test_scan_budget_counts_every_visited_subgraph(monkeypatch):
    # j singletons, b pairs (one per bar) and every connected subset of
    # 3..8 joints: the scan visits exactly that many subgraphs
    f = cap_all_faces_symmetric(platonic("octahedron"))
    edges = f.ends.tolist()
    larger = len(connected_induced_subgraphs_bruteforce(14, edges, 8))
    assert (f.joint_count, f.bar_count, larger) == (14, 36, 7450)
    visits = f.joint_count + f.bar_count + larger
    monkeypatch.setattr(laman, "_SCAN_BUDGET", visits)
    assert subgraph_maxwell_scan_3d(f, max_subgraph_joints=8) == []
    monkeypatch.setattr(laman, "_SCAN_BUDGET", visits - 1)
    with pytest.raises(CapExceeded) as info:
        subgraph_maxwell_scan_3d(f, max_subgraph_joints=8)
    assert "more than 7499 connected subgraphs within cap 8" in str(info.value)


def test_scan_guards():
    f = double_banana()
    with pytest.raises(ValueError):
        subgraph_maxwell_scan_3d(f, max_subgraph_joints=2)
    with pytest.raises(CapExceeded):
        subgraph_maxwell_scan_3d(f, max_subgraph_joints=13)
    with pytest.raises(ValueError):
        subgraph_maxwell_scan_3d(fig2_examples("C1"))


def test_generic_rank_of_the_double_banana_is_one_short():
    f = double_banana()
    assert (f.joint_count, f.bar_count) == (8, 18)
    assert generic_rank(f, 3) == 17


def test_generic_rank_of_small_graphs():
    k4 = Graph(4, tuple(itertools.combinations(range(4), 2)))
    assert generic_rank(k4, 3) == 6
    assert generic_rank(k4, 2) == 5  # one over 2j - 3
    assert generic_rank(Graph(3, ()), 3) == 0
    octa = platonic("octahedron")
    assert generic_rank(octa, 3) == 12
    assert generic_rank(octa, 2) == 9  # 2j - 3: the 2D count caps it


def test_rank_mod_p_at_the_largest_residue_does_not_overflow():
    # (p - 1)^2 is near 2^62: a float would round it, an unreduced int64
    # product of three residues would wrap
    p = laman._PRIME
    top = p - 1
    assert top * top < 2**62
    rows = [[top, top, 0], [top, 1, 0], [0, 0, top]]
    # det = top * (1 - top) * top = (-1)(2)(-1) = 2 mod p
    assert laman._rank_mod_p(np.array(rows, dtype=np.int64)) == 3
    # the second row is -1 times the first mod p
    rows = [[top, top, 0], [1, 1, 0], [0, top, top]]
    assert laman._rank_mod_p(np.array(rows, dtype=np.int64)) == 2
    assert laman._rank_mod_p(np.full((4, 5), top, dtype=np.int64)) == 1
    assert laman._rank_mod_p(np.diag([top] * 5).astype(np.int64)) == 5
    assert laman._rank_mod_p(np.zeros((3, 4), dtype=np.int64)) == 0


_RESIDUES = st.sampled_from([0, 0, 1, 2, laman._PRIME - 2, laman._PRIME - 1]) | st.integers(
    0, laman._PRIME - 1
)


@given(
    rows=st.lists(st.lists(_RESIDUES, min_size=6, max_size=6), min_size=1, max_size=7),
    cols=st.integers(1, 6),
    mixes=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), _RESIDUES, _RESIDUES), max_size=3
    ),
)
@settings(max_examples=300, deadline=None)
def test_rank_mod_p_matches_the_row_swapping_oracle(rows, cols, mixes):
    p = laman._PRIME
    m = np.array(rows, dtype=np.int64)[:, :cols]
    # rows mixed from two others make the rank fall short
    for i, k, a, c in mixes:
        mixed = (a * m[i % len(m)] % p + c * m[k % len(m)] % p) % p
        m = np.vstack([m, mixed])
    assert laman._rank_mod_p(m.copy()) == rank_mod_p_swapping(m.copy(), p)


def test_count_screen_ranks_the_bar_array_without_a_graph(monkeypatch):
    def refuse(*args):
        raise AssertionError("the bars were checked into a new Graph")

    f = platonic("icosahedron")
    want = generic_rank(Graph(f.joint_count, f.ends.tolist()), 3)
    monkeypatch.setattr(core, "bar_ends", refuse)
    assert generic_rank(f, 3) == want == f.bar_count
    assert count_screen_3d(f, 8) == []


def _k5_with_pendant_triangle(perm):
    edges = list(itertools.combinations(range(5), 2)) + [(4, 5), (4, 6), (5, 6)]
    edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
    pts = [(t, t * t, t**3) for t in range(7)]
    return new_framework(3, pts, edges)


def test_count_screen_never_certifies_k5_with_a_pendant_triangle():
    # b = 13 <= 3j - 6 = 15, yet K5 carries one bar over its count, so
    # the rank falls short and the scan must run and find it
    rng = random.Random(5)
    for _ in range(6):
        perm = list(range(7))
        rng.shuffle(perm)
        f = _k5_with_pendant_triangle(perm)
        assert generic_rank(f, 3) == 12
        hits = count_screen_3d(f, 7)
        assert hits == subgraph_maxwell_scan_3d(f, 7)
        assert [(h.joint_ids, h.slack) for h in hits] == [
            (tuple(sorted(perm[:5])), -1)
        ]


def test_count_screen_skips_the_scan_only_on_independent_bars(monkeypatch):
    calls = []

    def scan(f, cap):
        calls.append(f.joint_count)
        return subgraph_maxwell_scan_3d(f, cap)

    monkeypatch.setattr(laman, "subgraph_maxwell_scan_3d", scan)
    ico = platonic("icosahedron")
    assert count_screen_3d(ico, 8) == []
    assert count_screen_3d(cap_all_faces_symmetric(ico), 8) == []
    assert calls == []
    # rank 17 of 18: the scan runs, and finds nothing within the cap
    assert count_screen_3d(double_banana(), 8) == []
    assert calls == [8]


def _gallery_3d():
    spec = importlib.util.spec_from_file_location(
        "build_gallery", Path(__file__).resolve().parents[1] / "scripts" / "build_gallery.py"
    )
    build = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build)
    return {name: f for name, f in build._gallery().items() if f.dimension == 3}


def _ranked_rows(monkeypatch):
    """The row count of every matrix laman._rank_mod_p is given."""
    rows = []
    rank_mod_p = laman._rank_mod_p

    def spy(m):
        rows.append(m.shape[0])
        return rank_mod_p(m)

    monkeypatch.setattr(laman, "_rank_mod_p", spy)
    return rows


def test_reversed_henneberg_moves_decide_every_3d_gallery_fixture_but_the_banana():
    shapes = _gallery_3d()
    assert len(shapes) == 17
    decided = {name for name, f in shapes.items() if laman._core_is_independent(f)}
    assert decided == set(shapes) - {"double_banana"}


def test_no_gallery_shape_but_the_banana_reaches_a_rank(monkeypatch):
    # reversed vertex splits take the icosahedron, where every joint keeps
    # 5 bars, down to nothing, so the icosahedral shapes rank no core
    rows = _ranked_rows(monkeypatch)
    shapes = _gallery_3d()
    assert sum(name.startswith("icosahedron") for name in shapes) == 6
    for name, f in shapes.items():
        if name != "double_banana":
            assert count_screen_3d(f, 8) == [], name
    assert rows == []
    assert count_screen_3d(shapes["double_banana"], 8) == []
    assert rows == [10, 18]  # its 5-joint core, then all its bars


def test_the_twisted_icosahedron_ranks_only_its_core(monkeypatch):
    # its core is empty: no GF(p) rank runs at all
    rows = _ranked_rows(monkeypatch)
    f = twisted_cap_all_faces(platonic("icosahedron"))
    assert (f.joint_count, f.bar_count) == (72, 210)
    assert count_screen_3d(f, 8) == []
    assert rows == []


def test_count_screen_guards_match_the_scan():
    f = platonic("icosahedron")
    with pytest.raises(ValueError):
        count_screen_3d(f, 2)
    with pytest.raises(CapExceeded):
        count_screen_3d(f, 13)
    with pytest.raises(ValueError):
        count_screen_3d(fig2_examples("C1"), 8)


def test_pebble_long_strip_in_shuffled_order():
    # a triangle strip is tight; every joint peels, so no bar searches
    j = 4000
    edges = [(0, 1)] + [e for k in range(2, j) for e in ((k - 2, k), (k - 1, k))]
    random.Random(0).shuffle(edges)
    assert pebble_game_2_3(Graph(j, tuple(edges))).verdict == "tight"


def test_a_fully_peeled_graph_is_decided_without_a_game(monkeypatch):
    # every joint peels, so every bar is placed from a peeled joint's
    # pebbles: the report is the plain game's, and no state is made
    def refuse(*args):
        raise AssertionError("a PebbleState was made")

    rng = random.Random(3)
    strip = [(0, 1)] + [e for k in range(2, 60) for e in ((k - 2, k), (k - 1, k))]
    rng.shuffle(strip)
    graphs = [
        Graph(60, tuple(strip)),  # tight
        Graph(60, tuple(strip[1:])),  # one bar short
        Graph(40, tuple(henneberg_graph(rng, 2, 40, 0.0))),  # vertex additions
        Graph(5, ((0, 1), (2, 3))),  # no bar joins the rest
        Graph(2, ()),
    ]
    monkeypatch.setattr(laman, "PebbleState", refuse)
    for g in graphs:
        assert (g.peel(2)[1] >= 0).all()
        report = pebble_game_2_3(g)
        assert dataclasses.asdict(report) == pebble_game_plain(g.joint_count, g.ends.tolist())
    assert [pebble_game_2_3(g).verdict for g in graphs[:3]] == [
        "tight", "independent-but-underbraced", "tight"
    ]
    # an audited game is played bar by bar, as before
    with pytest.raises(AssertionError, match="PebbleState"):
        pebble_game_2_3(graphs[0], on_move=lambda state: None)


def _count_pulls(monkeypatch) -> list[int]:
    calls = [0]
    pull = laman.PebbleState._pull_pebble

    def counted(state, root, blocked):
        calls[0] += 1
        return pull(state, root, blocked)

    monkeypatch.setattr(laman.PebbleState, "_pull_pebble", counted)
    return calls


def test_pebble_long_ring_in_shuffled_order(monkeypatch):
    # the strip closed by a bar between its ends: no joint has degree
    # below 3, so nothing peels, and shuffled insertion forces pebble
    # paths longer than the interpreter's default recursion limit
    j = 4000
    edges = [(0, 1)] + [e for k in range(2, j) for e in ((k - 2, k), (k - 1, k))]
    edges.append((0, j - 1))
    random.Random(0).shuffle(edges)
    calls = _count_pulls(monkeypatch)
    rep = pebble_game_2_3(Graph(j, tuple(edges)))
    assert calls[0] > 0
    assert rep.verdict == "dependent"
    assert rep.witness_joint_ids == tuple(range(j))
    assert rep.witness_bar_ids == tuple(range(len(edges)))
    assert rep.free_pebbles == 3


def test_vertex_addition_graph_needs_no_search(monkeypatch):
    # every joint of a Henneberg I graph peels, whatever its labels and
    # bar order, so every bar is placed without a pebble search
    rng = random.Random(13)
    j = 4000
    edges = henneberg_graph(rng, 2, j, 0.0)
    perm = list(range(j))
    rng.shuffle(perm)
    edges = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
    rng.shuffle(edges)
    calls = _count_pulls(monkeypatch)
    assert pebble_game_2_3(Graph(j, tuple(edges))).verdict == "tight"
    assert calls[0] == 0


def test_k33_keeps_its_core_and_is_tight(monkeypatch):
    # every joint has degree 3, so nothing peels and the core searches
    edges = tuple((u, v) for u in range(3) for v in range(3, 6))
    calls = _count_pulls(monkeypatch)
    assert pebble_game_2_3(Graph(6, edges)).verdict == "tight"
    assert calls[0] > 0


def test_k4_witness_excludes_its_peeled_triangle_strip():
    # K4 on joints 0..3 with a strip of triangles hanging off its edge
    # (2, 3): joint k >= 4 joins k - 2 and k - 1.  The strip peels; the
    # K4's last bar is the first rejected, and its witness is the K4
    k4 = list(itertools.combinations(range(4), 2))
    strip = [(2, 4), (3, 4)] + [e for k in range(5, 10) for e in ((k - 2, k), (k - 1, k))]
    rep = pebble_game_2_3(Graph(10, tuple(k4[:3] + strip + k4[3:])))
    assert rep.verdict == "dependent"
    assert rep.witness_joint_ids == (0, 1, 2, 3)
    assert rep.witness_bar_ids == (0, 1, 2, 15, 16, 17)
    # 17 bars placed on 10 joints
    assert rep.free_pebbles == 3
