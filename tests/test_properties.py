"""Randomized invariants: serialization, relabeling, motions, pebbles,
generic rank, 3D scan and count screen."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from isoframe import core, laman
from isoframe.chartables import CATALOG_2D, CATALOG_3D, character_table
from isoframe.constructgen import cap_face, platonic, twisted_cap_all_faces
from isoframe.core import from_json, new_framework, pairs_within, to_json
from isoframe.laman import (
    Graph,
    count_screen_3d,
    generic_rank,
    pebble_game_2_3,
    subgraph_maxwell_scan_3d,
)
from isoframe.maxwell import maxwell_count, maxwell_trace, two_cos
from isoframe.numrank import build_system, mobility, nullspace_bases, numeric_rank
from isoframe.symdetect import detect_point_group

from oracles import (
    as_tuples,
    count_violations_bruteforce,
    diameter_bruteforce,
    exact_rigidity_rank,
    henneberg_graph,
    pairs_within_bruteforce,
    pebble_game_plain,
    peel_low_degree_rows,
    random_rational_config,
    three_core,
)


@st.composite
def frameworks(draw, dimension: int | None = None):
    d = dimension if dimension is not None else draw(st.sampled_from([2, 3]))
    j = draw(st.integers(min_value=d + 1, max_value=8))
    # lattice sites keep joints separated; jitter keeps geometry generic
    sites = draw(
        st.lists(
            st.tuples(*(st.integers(-6, 6) for _ in range(d))),
            min_size=j,
            max_size=j,
            unique=True,
        )
    )
    jitter = draw(
        st.lists(
            st.tuples(*(st.floats(-0.2, 0.2) for _ in range(d))),
            min_size=j,
            max_size=j,
        )
    )
    coords = [
        tuple(0.5 * s + 0.1 * e for s, e in zip(site, eps))
        for site, eps in zip(sites, jitter)
    ]
    pairs = [(a, b) for a in range(j) for b in range(a + 1, j)]
    bars = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True)
    )
    return new_framework(d, coords, sorted(bars))


@given(frameworks())
@settings(max_examples=60, deadline=None)
def test_json_roundtrip_is_exact(f):
    g = from_json(to_json(f))
    assert g.dimension == f.dimension
    assert g.ends.tolist() == f.ends.tolist()
    assert np.array_equal(g.coordinates, f.coordinates)
    # serialization is canonical, so a second trip is byte-identical
    assert to_json(g) == to_json(f)


@given(frameworks(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_relabeling_preserves_counts(f, rng):
    j = f.joint_count
    perm = list(range(j))
    rng.shuffle(perm)
    coords = [None] * j
    for i, p in enumerate(perm):
        coords[p] = tuple(f.coordinates[i])
    bars = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in f.ends.tolist())
    g = new_framework(f.dimension, coords, bars)

    assert maxwell_count(g) == maxwell_count(f)
    kf, kg = mobility(f), mobility(g)
    assert (kg.rank, kg.mechanisms, kg.self_stresses) == (
        kf.rank,
        kf.mechanisms,
        kf.self_stresses,
    )
    if f.dimension == 2:
        assert pebble_game_2_3(g).verdict == pebble_game_2_3(f).verdict


@given(frameworks())
@settings(max_examples=60, deadline=None)
def test_signed_count_matches_rank_on_spanning_geometry(f):
    centered = f.coordinates - f.coordinates.mean(axis=0)
    assume(np.linalg.matrix_rank(centered, tol=1e-6) == f.dimension)
    k = mobility(f)
    assert k.mechanisms - k.self_stresses == maxwell_count(f)
    assert k.rigid_body_dim == (3 if f.dimension == 2 else 6)


@st.composite
def henneberg_frameworks(draw):
    """Henneberg I/II mixes, perhaps one bar off, relabelled and shuffled,
    with the unlabelled original.  In some, the last joint sits at the
    centroid of its first d neighbours, so its bars to them are dependent."""
    d = draw(st.sampled_from([2, 3]))
    j = draw(st.integers(d + 2, 14))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = henneberg_graph(rng, d, j, draw(st.sampled_from([0.0, 0.5, 1.0])))
    parents = sorted(u for u, v in edges if v == j - 1)[:d]
    change = draw(st.sampled_from(["none", "add", "remove"]))
    if change == "remove":
        edges.remove(rng.choice(edges))
    elif change == "add":
        absent = [(u, v) for u in range(j) for v in range(u + 1, j) if (u, v) not in edges]
        edges.append(rng.choice(absent))
    coords = np.array([[rng.uniform(-1.0, 1.0) for _ in range(d)] for _ in range(j)])
    if draw(st.booleans()):
        coords[j - 1] = coords[parents].mean(axis=0)
    perm = list(range(j))
    rng.shuffle(perm)
    joints = np.empty_like(coords)
    joints[perm] = coords
    bars = [(perm[v], perm[u]) if rng.random() < 0.5 else (perm[u], perm[v]) for u, v in edges]
    rng.shuffle(bars)
    return new_framework(d, joints.tolist(), bars), new_framework(d, coords.tolist(), edges)


@given(henneberg_frameworks())
@settings(max_examples=80, deadline=None)
def test_peeled_rank_matches_dense_rank(pair):
    f, unlabelled = pair
    k = mobility(f)
    rank, _ = numeric_rank(build_system(f).C)
    d, j, b = f.dimension, f.joint_count, f.bar_count
    assert (k.rank, k.mechanisms, k.self_stresses) == (
        rank,
        d * j - rank - k.rigid_body_dim,
        b - rank,
    )
    stress, mech = nullspace_bases(f)
    assert (mech.shape[0], stress.shape[0]) == (k.mechanisms, k.self_stresses)
    # which joints peel does not depend on the labels
    assert mobility(unlabelled).peeled_joints == k.peeled_joints


def _rotation(dim: int, params: tuple[float, ...]) -> np.ndarray:
    if dim == 2:
        c, s = math.cos(params[0]), math.sin(params[0])
        return np.array([[c, -s], [s, c]])
    ax, ay, az = params
    rx = np.array(
        [
            [1, 0, 0],
            [0, math.cos(ax), -math.sin(ax)],
            [0, math.sin(ax), math.cos(ax)],
        ]
    )
    ry = np.array(
        [
            [math.cos(ay), 0, math.sin(ay)],
            [0, 1, 0],
            [-math.sin(ay), 0, math.cos(ay)],
        ]
    )
    rz = np.array(
        [
            [math.cos(az), -math.sin(az), 0],
            [math.sin(az), math.cos(az), 0],
            [0, 0, 1],
        ]
    )
    return rz @ ry @ rx


@given(
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
)
@settings(max_examples=25, deadline=None)
def test_rigid_motion_equivariance_on_octahedron(angles, shift):
    f = platonic("octahedron")
    rot = _rotation(3, angles)
    moved = new_framework(
        3,
        [tuple(rot @ p + np.asarray(shift)) for p in f.coordinates],
        f.ends.tolist(),
    )
    group = detect_point_group(moved)
    assert group.schoenflies == "Oh"
    assert group.order == 48
    trace = maxwell_trace(moved, group)
    assert all(v == 0 for v in trace.values)
    k = mobility(moved)
    assert (k.mechanisms, k.self_stresses) == (0, 0)


@given(frameworks(dimension=2), st.floats(-15.0, 15.0).map(lambda e: 10.0**e))
@settings(max_examples=40, deadline=None)
def test_rigid_motion_preserves_kinematics_2d(f, scale):
    # the shift scales too: a fixed one would wipe out a tiny framework
    rot = _rotation(2, (0.7853981,))
    moved = new_framework(
        2,
        [tuple(scale * (rot @ p + np.array([2.5, -1.25]))) for p in f.coordinates],
        f.ends.tolist(),
    )
    kf, kg = mobility(f), mobility(moved)
    assert (kg.rank, kg.mechanisms, kg.self_stresses) == (
        kf.rank,
        kf.mechanisms,
        kf.self_stresses,
    )
    (sf, mf), (sg, mg) = nullspace_bases(f), nullspace_bases(moved)
    assert (sg.shape[0], mg.shape[0]) == (sf.shape[0], mf.shape[0])


@st.composite
def bare_graphs(draw):
    j = draw(st.integers(min_value=2, max_value=9))
    pairs = [(a, b) for a in range(j) for b in range(a + 1, j)]
    edges = draw(
        st.lists(st.sampled_from(pairs), min_size=0, max_size=len(pairs), unique=True)
    )
    return Graph(j, tuple(sorted(edges)))


@given(bare_graphs())
@settings(max_examples=80, deadline=None)
def test_pebble_bookkeeping_never_leaks(g):
    seen = []

    def audit(state):
        state.check_invariant()
        seen.append((sum(state.pebbles), state.placed))

    report = pebble_game_2_3(g, on_move=audit)
    # one event at the start, then one per accepted bar; rejections are silent
    assert len(seen) == seen[-1][1] + 1
    if report.verdict == "dependent":
        assert seen[-1][1] < g.bar_count
    else:
        assert seen[-1][1] == g.bar_count
    assert all(free + placed == 2 * g.joint_count for free, placed in seen)
    assert report.free_pebbles == seen[-1][0]
    assert report.verdict in {"tight", "independent-but-underbraced", "dependent"}
    if report.verdict == "tight":
        assert g.bar_count == 2 * g.joint_count - 3
        assert report.free_pebbles == 3
    if report.verdict == "dependent":
        jt, bt = report.witness_joint_total, report.witness_bar_total
        assert bt > 2 * jt - 3


@st.composite
def henneberg_bare_graphs(draw, split_shares=(0.0, 0.3, 1.0)):
    """2D Henneberg I/II mixes with j <= 60, tight or one or two bars
    added or one removed, relabelled and in shuffled bar order."""
    j = draw(st.integers(4, 60))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = henneberg_graph(rng, 2, j, draw(st.sampled_from(split_shares)))
    change = draw(st.sampled_from([0, 1, 2, -1]))
    if change < 0:
        edges.remove(rng.choice(edges))
    else:
        absent = [(u, v) for u in range(j) for v in range(u + 1, j) if (u, v) not in edges]
        edges += rng.sample(absent, min(change, len(absent)))
    perm = list(range(j))
    rng.shuffle(perm)
    edges = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
    rng.shuffle(edges)
    return Graph(j, tuple(edges))


@st.composite
def random_bare_graphs(draw):
    """Random graphs on j joints with j..3j bars, in random bar order."""
    j = draw(st.integers(4, 30))
    pairs = [(a, b) for a in range(j) for b in range(a + 1, j)]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    b = draw(st.integers(j, min(3 * j, len(pairs))))
    return Graph(j, tuple(rng.sample(pairs, b)))


@given(henneberg_bare_graphs(split_shares=(0.0, 0.5, 1.0)))
@settings(max_examples=150, deadline=None)
def test_ordered_out_lists_keep_the_plain_games_answers(g):
    # every search reads the out-neighbours in ascending order, as the
    # sort on each visit gave them
    def ordered(state):
        assert all(out == sorted(set(out)) for out in state.out)

    report = pebble_game_2_3(g, on_move=ordered)
    plain = pebble_game_plain(g.joint_count, g.ends.tolist())
    keys = ("verdict", "free_pebbles", "witness_joint_ids", "witness_bar_ids")
    assert [getattr(report, key) for key in keys] == [plain[key] for key in keys]


@given(st.one_of(bare_graphs(), henneberg_bare_graphs(), random_bare_graphs()))
@settings(max_examples=150, deadline=None)
def test_peeled_pebble_game_matches_plain_game(g):
    report = pebble_game_2_3(g)
    assert dataclasses.asdict(report) == pebble_game_plain(g.joint_count, g.ends.tolist())
    core_joints = three_core(g.joint_count, g.ends.tolist())
    order, _ = g.peel(2)
    assert set(order.tolist()) == set(range(g.joint_count)) - core_joints
    if report.verdict == "dependent":
        assert set(report.witness_joint_ids) <= core_joints


@given(st.integers(0, 40), st.randoms(use_true_random=False), st.sampled_from([2, 3]), st.booleans())
@settings(max_examples=100, deadline=None)
def test_the_peel_on_two_columns_matches_the_peel_on_rows(j, rng, d, refuse):
    pairs = [(a, b) for a in range(j) for b in range(a + 1, j)]
    ends = core.bar_ends(j, rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * j))))
    # a refusing accept makes joints wait for another bar to go
    accept = (lambda bars: sum(bars) % 3 != 1) if refuse else None
    want = peel_low_degree_rows(j, ends.tolist(), d, accept)
    assert as_tuples(core.peel_low_degree(Graph(j, ends), d, accept)) == want
    assert as_tuples(Graph(j, ends).peel(d)) == peel_low_degree_rows(j, ends.tolist(), d)


@given(st.integers(0, 40), st.randoms(use_true_random=False), st.sampled_from([2, 3]), st.booleans())
@settings(max_examples=100, deadline=None)
def test_peel_blocks_cover_each_peeled_joint_once_in_peel_order(j, rng, d, refuse):
    pairs = [(a, b) for a in range(j) for b in range(a + 1, j)]
    ends = core.bar_ends(j, rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * j))))
    accept = (lambda bars: sum(bars) % 3 != 1) if refuse else None
    order, blocks, _ = peel_low_degree_rows(j, ends.tolist(), d, accept)
    seen = []
    for at, bars in core.peel_blocks(core.peel_low_degree(Graph(j, ends), d, accept)):
        assert at.tolist() == sorted(set(at.tolist()))  # in peel order, each once
        assert bars.shape == (len(at), len(blocks[at[0]]))
        assert [tuple(row) for row in bars.tolist()] == [blocks[i] for i in at.tolist()]
        seen += at.tolist()
    assert sorted(seen) == list(range(len(order)))


@given(
    st.one_of(bare_graphs(), henneberg_bare_graphs(), random_bare_graphs()),
    st.sampled_from([2, 3]),
)
@settings(max_examples=60, deadline=None)
def test_a_framework_plays_and_ranks_as_its_bare_graph(g, d):
    # points on the moment curve: distinct, and neither reads geometry
    t = np.arange(g.joint_count, dtype=float)
    f = new_framework(d, np.stack([t, t * t, t**3][:d], axis=1), g.ends.tolist())
    bare = Graph(f.joint_count, f.ends.tolist())
    assert pebble_game_2_3(f) == pebble_game_2_3(bare)
    assert generic_rank(f, d) == generic_rank(bare, d)


@st.composite
def dense_graphs_with_cap(draw):
    j = draw(st.integers(min_value=3, max_value=10))
    density = draw(st.floats(0.3, 0.9))
    pairs = [(a, b) for a in range(j) for b in range(a + 1, j)]
    coins = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, c in zip(pairs, coins) if c < density]
    return j, edges, draw(st.integers(min_value=3, max_value=j))


@given(dense_graphs_with_cap())
@settings(max_examples=40, deadline=None)
def test_subgraph_scan_matches_bruteforce(case):
    j, edges, cap = case
    # points on the moment curve: distinct, and the scan ignores geometry
    f = new_framework(3, [(t, t * t, t**3) for t in range(j)], edges)
    want = []
    for joint_ids, slack in count_violations_bruteforce(j, edges, cap):
        bar_ids = tuple(
            k for k, (u, v) in enumerate(edges) if u in joint_ids and v in joint_ids
        )
        want.append((joint_ids, bar_ids, len(joint_ids), len(bar_ids), slack))
    target(float(len(want)))  # steer towards graphs with many violations
    got = [dataclasses.astuple(v) for v in subgraph_maxwell_scan_3d(f, cap)]
    assert got == want


@st.composite
def graphs_3d(draw):
    """Random graphs on 3..10 joints, from sparse to nearly complete."""
    j = draw(st.integers(min_value=3, max_value=10))
    density = draw(st.floats(0.1, 0.9))
    pairs = [(a, b) for a in range(j) for b in range(a + 1, j)]
    coins = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return Graph(j, tuple(p for p, c in zip(pairs, coins) if c < density))


@given(graphs_3d(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_generic_rank_matches_exact_rank_in_3d(g, seed):
    # the larger of two rational draws, so one unlucky draw cannot fail;
    # a seeded Random, since hypothesis's own randoms shrink to zeros
    rng = random.Random(seed)
    want = max(
        exact_rigidity_rank(random_rational_config(rng, g.joint_count, 3), g.ends.tolist())
        for _ in range(2)
    )
    assert generic_rank(g, 3) == want


@st.composite
def flipped_triangulations(draw):
    """The octahedron's or the icosahedron's graph after up to 12 random
    edge flips, plus 0-2 bars (which make it dependent) and 0-3 joints of
    2 bars each."""
    solid = platonic(draw(st.sampled_from(["octahedron", "icosahedron"])))
    edges = set(map(tuple, solid.ends.tolist()))
    j = 1 + max(map(max, edges))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    faces = {
        frozenset(t)
        for t in itertools.combinations(range(j), 3)
        if set(itertools.combinations(t, 2)) <= edges
    }
    for _ in range(draw(st.integers(0, 12))):
        a, b = rng.choice(sorted(edges))
        c, d = sorted(set().union(*(t for t in faces if {a, b} <= t)) - {a, b})
        if (c, d) not in edges:  # flip ab to cd across the faces abc, abd
            edges = edges - {(a, b)} | {(c, d)}
            faces = faces - {frozenset((a, b, c)), frozenset((a, b, d))}
            faces |= {frozenset((a, c, d)), frozenset((b, c, d))}
    missing = sorted(set(itertools.combinations(range(j), 2)) - edges)
    edges |= set(rng.sample(missing, draw(st.integers(0, 2))))
    for w in range(j, j + draw(st.integers(0, 3))):
        edges |= {(x, w) for x in rng.sample(range(w), 2)}
        j = w + 1
    return Graph(j, sorted(edges))


@given(st.one_of(graphs_3d(), flipped_triangulations()), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_reversed_henneberg_moves_certify_only_independent_bars(g, seed):
    if not laman._core_is_independent(g):
        return
    rng = random.Random(seed)
    rank = max(
        exact_rigidity_rank(random_rational_config(rng, g.joint_count, 3), g.ends.tolist())
        for _ in range(2)
    )
    assert rank == g.bar_count


@given(st.one_of(henneberg_bare_graphs(), random_bare_graphs()))
@settings(max_examples=100, deadline=None)
def test_generic_rank_is_full_exactly_when_the_pebble_game_says_tight(g):
    j, b = g.joint_count, g.bar_count
    verdict = pebble_game_2_3(g).verdict
    rank = generic_rank(g, 2)
    assert (rank == b == 2 * j - 3) == (verdict == "tight")
    assert (rank == b) == (verdict != "dependent")


@given(graphs_3d())
@settings(max_examples=60, deadline=None)
def test_count_screen_matches_bruteforce(g):
    j, edges = g.joint_count, g.ends.tolist()
    f = new_framework(3, [(t, t * t, t**3) for t in range(j)], edges)
    want = []
    for joint_ids, slack in count_violations_bruteforce(j, edges, j):
        bar_ids = tuple(
            k for k, (u, v) in enumerate(edges) if u in joint_ids and v in joint_ids
        )
        want.append((joint_ids, bar_ids, len(joint_ids), len(bar_ids), slack))
    got = [dataclasses.astuple(v) for v in count_screen_3d(f, j)]
    assert got == want


_TABLE_KEYS = [(lbl, 3) for lbl in sorted(CATALOG_3D)] + [
    (lbl, 2) for lbl in sorted(CATALOG_2D)
]


@given(
    st.sampled_from(_TABLE_KEYS),
    st.lists(st.integers(min_value=-3, max_value=4), min_size=1, max_size=12),
)
@settings(max_examples=80, deadline=None)
def test_character_decomposition_roundtrip(key, mults):
    t = character_table(*key)
    weights = {
        row.name: mults[i % len(mults)] for i, row in enumerate(t.rows)
    }
    combo = tuple(
        float(sum(weights[row.name] * row.values[c] for row in t.rows))
        for c in range(len(t.class_keys))
    )
    # a merged conjugate pair holds two constituent irreps per copy
    expected = {
        row.name: (2 if row.paired else 1) * weights[row.name] for row in t.rows
    }
    assert t.decompose(combo) == expected


@given(st.floats(0.05, 3.0))
@settings(max_examples=25, deadline=None)
def test_capping_any_height_stays_isostatic(h):
    capped = cap_face(platonic("tetrahedron"), (0, 1, 2), apex_height=h)
    assert maxwell_count(capped) == 0
    k = mobility(capped)
    assert (k.mechanisms, k.self_stresses) == (0, 0)


@given(st.floats(0.02, 2.0))
@settings(max_examples=10, deadline=None)
def test_twist_any_angle_stays_isostatic(theta):
    period = 2.0 * math.pi / 3.0
    r = theta % period
    assume(min(r, period - r) > 1e-3 and abs(r - period / 2) > 1e-3)
    twisted = twisted_cap_all_faces(platonic("tetrahedron"), twist_angle=theta)
    assert maxwell_count(twisted) == 0
    k = mobility(twisted)
    assert (k.mechanisms, k.self_stresses) == (0, 0)


@given(st.integers(2, 12), st.integers(1, 24))
def test_rotation_character_bounds_and_symmetry(n, k):
    # classified operations only ever store k coprime to n
    assume(math.gcd(n, k % n if k % n else n) == 1)
    v = two_cos(n, k % n)
    assert -2.0 <= float(v) <= 2.0
    assert math.isclose(float(v), float(two_cos(n, n - (k % n))), abs_tol=1e-12)
    assert math.isclose(
        float(v), 2.0 * math.cos(2.0 * math.pi * k / n), abs_tol=1e-12
    )


@st.composite
def point_sets(draw, d: int, kind: str):
    n = draw(st.integers(min_value=0, max_value=12))
    if kind == "equal":
        site = draw(st.tuples(*(st.integers(-3, 3) for _ in range(d))))
        return np.array([site] * n, dtype=float).reshape(n, d)
    # lattice sites share coordinates; "plane" pins the last one
    sites = draw(
        st.lists(st.tuples(*(st.integers(-3, 3) for _ in range(d))), min_size=n, max_size=n)
    )
    pts = np.array(sites, dtype=float).reshape(n, d)
    if kind == "plane":
        pts[:, -1] = 2.0
    return pts


@st.composite
def matching_problems(draw):
    d = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["lattice", "plane", "equal"]))
    points = draw(point_sets(d, kind))
    queries = points if draw(st.booleans()) else draw(point_sets(d, kind))
    # lattice distances are square roots of integers, so these tolerances
    # put many pairs exactly at tol; the scale makes them inexact
    tol = draw(st.sampled_from([0.0, 0.5, 1.0, math.sqrt(2.0), 2.0, 3.0]))
    scale = draw(st.sampled_from([1.0, 0.1, 1e-9, 1e9]))
    block = draw(st.integers(min_value=1, max_value=40))
    return points * scale, queries * scale, tol * scale, block


@given(matching_problems())
@settings(max_examples=300, deadline=None)
def test_pairs_within_matches_bruteforce(problem):
    points, queries, tol, block = problem
    with mock.patch.object(core, "_BLOCK", block):
        found = list(pairs_within(points, queries, tol))
    q = np.concatenate([qi for qi, _ in found] or [np.zeros(0, int)])
    p = np.concatenate([pi for _, pi in found] or [np.zeros(0, int)])
    # blocks come in query order, which new_framework relies on
    assert np.all(np.diff(q) >= 0)
    assert sorted(zip(q.tolist(), p.tolist())) == pairs_within_bruteforce(
        points, queries, tol
    )


@st.composite
def float_points(draw):
    # no entry so small that the oracle's unscaled squares underflow
    d = draw(st.sampled_from([2, 3]))
    x = st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) > 1e-100)
    rows = draw(st.lists(st.tuples(*(x for _ in range(d))), max_size=40))
    return np.array(rows, dtype=float).reshape(len(rows), d)


@given(float_points(), st.sampled_from([1.0, 1e-12, 1e12]))
@settings(max_examples=200, deadline=None)
def test_diameter_matches_bruteforce(points, scale):
    # only rows far from the centre are compared; the longest pair must survive
    d, exp = core._diameter(points * scale)
    assert np.ldexp(d, exp) == diameter_bruteforce(points * scale)
