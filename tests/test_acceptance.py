"""End-to-end gate: one verdict line per stated requirement.

Each test records a PASS/FAIL summary line (printed after the run) and
then asserts.  Requirement 2 holds each inadmissible counterexample to
the Maxwell balance b = 2j - 3 only where its orbit sizes let it get
there (C6); C4, C5 and C4v must sit at the nearest bar count their
orbits allow.  The orbit-size argument sits beside the table below.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from conftest import record_acceptance
from oracles import assembled_trace

from isoframe.chartables import CATALOG_2D, CATALOG_3D, character_table
from isoframe.constructgen import (
    all_faces,
    cap_all_faces_symmetric,
    cap_face,
    hat_stack,
    platonic,
    twisted_cap_all_faces,
)
from isoframe.laman import Graph, pebble_game_2_3, subgraph_maxwell_scan_3d
from isoframe.maxwell import (
    FREE_PLACEMENT_2D,
    FREE_PLACEMENT_3D,
    decompose_irreps,
    free_placement_screen,
    gamma_regular,
    isostatic_necessary,
    maxwell_count,
    maxwell_trace,
)
from isoframe.numrank import mobility, numeric_rank
from isoframe.symdetect import detect_point_group, orbits, unshifted_counts


def _fixture_zoo(
    tetrahedron,
    octahedron,
    icosahedron,
    capped_tetrahedron,
    second_stellation,
    fig2_zoo,
    counterexample_zoo,
    banana,
):
    zoo = {
        "tetrahedron": tetrahedron,
        "octahedron": octahedron,
        "icosahedron": icosahedron,
        "capped_tetrahedron": capped_tetrahedron,
        "second_stellation": second_stellation,
        "double_banana": banana,
    }
    zoo.update({f"fig2_{k}": v for k, v in fig2_zoo.items()})
    zoo.update({f"counter_{k}": v for k, v in counterexample_zoo.items()})
    return zoo


def test_criterion_1_isostatic_fixtures(
    tetrahedron, octahedron, icosahedron, second_stellation, fig2_zoo
):
    assert (second_stellation.joint_count, second_stellation.bar_count) == (32, 90)
    cases = {
        "tetrahedron": tetrahedron,
        "octahedron": octahedron,
        "icosahedron": icosahedron,
        "second_stellation": second_stellation,
    }
    cases.update(fig2_zoo)
    bad = []
    slowest = 0.0
    for name, f in cases.items():
        t0 = time.perf_counter()
        count = maxwell_count(f)
        k = mobility(f, tol=1e-10)
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        if count != 0 or k.mechanisms != 0 or k.self_stresses != 0 or dt >= 1.0:
            bad.append((name, count, k.mechanisms, k.self_stresses, dt))
    ok = not bad
    record_acceptance(
        1,
        ok,
        f"{len(cases)} fixtures: count 0, m=s=0 at 1e-10, slowest {slowest * 1e3:.0f} ms",
    )
    assert ok, bad


# Orbit sizes of joints and bars for the inadmissible planar groups, by
# hand.  A nontrivial rotation fixes only the centre, so a joint orbit
# has size |G|, size 1 for the one joint that may sit at the centre, or
# |G|/2 for a joint on a mirror line of C4v.  If a rotation r maps a bar
# {u, v} to itself, r^2 fixes both ends, which are not both the centre,
# so r^2 = e: a bar's stabiliser holds no rotation beyond the half
# turn.  That leaves stabilisers of order 1 or 2 in C4 and C6 ({e, C2}
# for a bar through the centre), order 1 in C5, and order 1, 2 or 4 in
# C4v (the half turn and mirrors, but never the quarter turn).  Hence b
# is even for C4 and C4v and a multiple of five for C5, while 2j - 3 is
# odd for C4 and C4v and is 2 or 4 mod 5 for C5: only C6 (bar orbits of
# 6 and 3, j a multiple of 6) can reach b = 2j - 3.
_ORBIT_SIZES_2D = {
    # group: (joint orbit sizes, bar orbit sizes)
    "C4": ({4, 1}, {4, 2}),
    "C5": ({5, 1}, {5}),
    "C6": ({6, 1}, {6, 3}),
    "C4v": ({8, 4, 1}, {8, 4, 2}),
}


def test_criterion_2_planar_six_group_boundary(fig2_zoo, counterexample_zoo):
    problems = []
    for name, f in fig2_zoo.items():
        rep = isostatic_necessary(f)
        k = mobility(f, tol=1e-8)
        if not rep.passed:
            problems.append(f"{name}: necessary conditions fail")
        if (k.mechanisms, k.self_stresses) != (0, 0):
            problems.append(f"{name}: not numerically isostatic")

    outcomes = []
    for name, f in counterexample_zoo.items():
        j, b = f.joint_count, f.bar_count
        group = detect_point_group(f)
        rep = isostatic_necessary(f)
        k = mobility(f, tol=1e-8)
        if group.schoenflies != name:
            problems.append(f"{name}: detected as {group.schoenflies}")
        rotation_fails = any(
            c.eq_id == "2D:Cn" and not c.passed for c in rep.checks
        )
        if not rotation_fails:
            problems.append(f"{name}: rotation-class equation did not fail")
        if (k.mechanisms, k.self_stresses) == (0, 0):
            problems.append(f"{name}: numerically isostatic")
        if not decompose_irreps(maxwell_trace(f, group)):
            problems.append(f"{name}: trace decomposes to nothing")

        joint_sizes, bar_sizes = _ORBIT_SIZES_2D[name]
        found = orbits(f, group)
        for kind, found_orbits, sizes in (
            ("joint", found.joint_orbits, joint_sizes),
            ("bar", found.bar_orbits, bar_sizes),
        ):
            stray = sorted({len(o) for o in found_orbits} - sizes)
            if stray:
                problems.append(f"{name}: {kind} orbit sizes {stray} not in table")

        # b is a multiple of g_b.  j is c (0 or 1 centre joint) plus a
        # multiple of h, so the balance is reachable iff some c + n * h
        # makes 2j - 3 a multiple of g_b.
        g_b = math.gcd(*bar_sizes)
        h = math.gcd(*(s for s in joint_sizes if s > 1))
        reachable = any(
            (2 * (c + n * h) - 3) % g_b == 0
            for c in (0, 1)
            for n in range(g_b)
        )
        target = 2 * j - 3
        if reachable:
            if b != target:
                problems.append(f"{name}: b = {b} != 2j-3 = {target}")
            if k.mechanisms < 1:
                problems.append(f"{name}: m = {k.mechanisms} < 1")
            if k.self_stresses < 1:
                problems.append(f"{name}: s = {k.self_stresses} < 1")
            outcomes.append(f"{name} reaches b = 2j-3")
        else:
            residue = target % g_b
            nearest = min(residue, g_b - residue)
            if residue == 0:
                problems.append(f"{name}: 2j-3 = {target} is a multiple of {g_b}")
            if abs(b - target) != nearest:
                problems.append(
                    f"{name}: |b - (2j-3)| = {abs(b - target)}, "
                    f"nearest multiple of {g_b} is {nearest} away"
                )
            outcomes.append(f"{name} blocked mod {g_b}, at nearest count ({nearest} off)")

    ok = not problems
    detail = (
        f"{len(fig2_zoo)} admissible fixtures isostatic; rotation equation "
        "fails on every counterexample; " + ", ".join(outcomes)
        if ok
        else f"{len(problems)} sub-checks red, first: {problems[0]}"
    )
    record_acceptance(2, ok, detail)
    assert ok, "\n".join(problems)


def test_criterion_3_free_placement_lists():
    got_2d = {lbl for lbl in CATALOG_2D if free_placement_screen(lbl, 2).admissible}
    got_3d = {lbl for lbl in CATALOG_3D if free_placement_screen(lbl, 3).admissible}
    want_2d = {"C1", "C3"}
    want_3d = {"C1", "Cs", "Ci", "C3", "C3h", "C3v", "S6"}

    orders_2d = {
        character_table(lbl, 2).order
        for lbl in CATALOG_2D
        if free_placement_screen(lbl, 2).order_allowed
    }
    orders_3d = {
        character_table(lbl, 3).order
        for lbl in CATALOG_3D
        if free_placement_screen(lbl, 3).order_allowed
    }

    ok = (
        got_2d == want_2d == FREE_PLACEMENT_2D
        and got_3d == want_3d == FREE_PLACEMENT_3D
        and orders_2d == {1, 3}
        and orders_3d == {1, 2, 3, 6}
    )
    record_acceptance(
        3,
        ok,
        f"screen admits 2D {sorted(got_2d)}, 3D {sorted(got_3d)}; "
        f"orders {sorted(orders_2d)} / {sorted(orders_3d)}",
    )
    assert ok, (got_2d, got_3d, orders_2d, orders_3d)


def test_criterion_4_trace_assembly_matches_closed_form(
    tetrahedron,
    octahedron,
    icosahedron,
    capped_tetrahedron,
    second_stellation,
    fig2_zoo,
    counterexample_zoo,
    banana,
):
    zoo = _fixture_zoo(
        tetrahedron,
        octahedron,
        icosahedron,
        capped_tetrahedron,
        second_stellation,
        fig2_zoo,
        counterexample_zoo,
        banana,
    )
    bad = []
    classes_checked = 0
    for name, f in zoo.items():
        group = detect_point_group(f)
        trace = maxwell_trace(f, group)
        coords = np.asarray(f.coordinates)
        edges = f.ends.tolist()
        for ci, cls in enumerate(group.classes):
            matrix = group.elements[cls.rep_id].matrix
            want = assembled_trace(coords, edges, matrix)
            got = trace.values[ci]
            classes_checked += 1
            if trace.exact[ci]:
                if not isinstance(got, int) or abs(got - want) >= 1e-9:
                    bad.append((name, cls.label, got, want))
            elif abs(float(got) - want) >= 1e-9:
                bad.append((name, cls.label, got, want))
    ok = not bad
    record_acceptance(
        4,
        ok,
        f"{classes_checked} fixture/class pairs, closed form == assembled trace",
    )
    assert ok, bad


def _rank_rows(coords: np.ndarray, pairs: list[tuple[int, int]]) -> np.ndarray:
    j = coords.shape[0]
    rows = np.zeros((len(pairs), 2 * j))
    for idx, (u, v) in enumerate(pairs):
        d = coords[u] - coords[v]
        rows[idx, 2 * u : 2 * u + 2] = d
        rows[idx, 2 * v : 2 * v + 2] = -d
    return rows


def _pebble_matches_rank(verdict: str, j: int, b: int, rank: int) -> bool:
    # the game stops at the first dependent bar, so compare decisions:
    # independent <=> full row rank, tight additionally b = 2j - 3
    if verdict == "dependent":
        return rank < b
    if rank != b:
        return False
    return (verdict == "tight") == (b == 2 * j - 3)


def test_criterion_5_pebble_agrees_with_numeric_rank():
    rng = np.random.default_rng(90125)
    disagreements = 0
    graphs = 0

    for j in range(2, 7):
        pairs = list(itertools.combinations(range(j), 2))
        pools = [_rank_rows(rng.uniform(-1.0, 1.0, (j, 2)), pairs) for _ in range(3)]
        for r in range(len(pairs) + 1):
            for subset in itertools.combinations(range(len(pairs)), r):
                edges = tuple(pairs[i] for i in subset)
                verdict = pebble_game_2_3(Graph(j, edges)).verdict
                graphs += 1
                for rows in pools:
                    rank = numeric_rank(rows[list(subset)], 1e-10)[0]
                    if not _pebble_matches_rank(verdict, j, r, rank):
                        disagreements += 1

    random_graphs = 0
    while random_graphs < 200:
        j = int(rng.integers(4, 11))
        pairs = list(itertools.combinations(range(j), 2))
        chosen = rng.choice(len(pairs), size=2 * j - 3, replace=False)
        edges = tuple(sorted(pairs[i] for i in chosen))
        verdict = pebble_game_2_3(Graph(j, edges)).verdict
        random_graphs += 1
        for _ in range(3):
            rows = _rank_rows(rng.uniform(-1.0, 1.0, (j, 2)), pairs)
            rank = numeric_rank(rows[list(chosen)], 1e-10)[0]
            if not _pebble_matches_rank(verdict, j, len(edges), rank):
                disagreements += 1

    ok = disagreements == 0
    record_acceptance(
        5,
        ok,
        f"{graphs} exhaustive (j<=6) + {random_graphs} random count graphs "
        f"x3 configs: {disagreements} disagreements",
    )
    assert ok


def test_criterion_6_constructions_preserve_isostaticity():
    expected_rotation_group = {
        "tetrahedron": "T",
        "octahedron": "O",
        "icosahedron": "I",
    }
    bad = []
    built = 0

    def check(tag, f):
        nonlocal built
        built += 1
        k = mobility(f)
        if maxwell_count(f) != 0 or (k.mechanisms, k.self_stresses) != (0, 0):
            bad.append((tag, maxwell_count(f), k.mechanisms, k.self_stresses))

    for seed_name, twisted_label in expected_rotation_group.items():
        seed = platonic(seed_name)
        face = all_faces(seed)[0]

        check(f"cap_face({seed_name})", cap_face(seed, face, apex_height=1.0))
        check(f"cap_all({seed_name})", cap_all_faces_symmetric(seed))

        twisted = twisted_cap_all_faces(seed)
        check(f"twisted({seed_name})", twisted)
        got = detect_point_group(twisted).schoenflies
        if got != twisted_label:
            bad.append((f"twisted({seed_name})", "group", got, twisted_label))

        for k_levels in range(1, 6):
            check(f"hat_stack({seed_name},k={k_levels})", hat_stack(seed, face, k_levels))

    ok = not bad
    record_acceptance(
        6,
        ok,
        f"{built} constructions on 3 seeds keep count 0 and m=s=0; "
        "twisted groups T/O/I",
    )
    assert ok, bad


def test_criterion_7_double_banana_necessity_gap(banana):
    count = maxwell_count(banana)
    violations = subgraph_maxwell_scan_3d(banana, max_subgraph_joints=8)
    k = mobility(banana)
    ok = (
        count == 0
        and violations == []
        and (k.mechanisms, k.self_stresses) == (1, 1)
    )
    record_acceptance(
        7,
        ok,
        "count 0, cap-8 subgraph scan clean, yet m = s = 1",
    )
    assert ok, (count, violations, k.mechanisms, k.self_stresses)


def test_criterion_8_burnside_and_regular_representation(
    tetrahedron,
    octahedron,
    icosahedron,
    capped_tetrahedron,
    second_stellation,
    fig2_zoo,
    counterexample_zoo,
    banana,
):
    zoo = _fixture_zoo(
        tetrahedron,
        octahedron,
        icosahedron,
        capped_tetrahedron,
        second_stellation,
        fig2_zoo,
        counterexample_zoo,
        banana,
    )
    bad = []
    for name, f in zoo.items():
        group = detect_point_group(f)
        total = sum(
            unshifted_counts(f, *a).joints_unshifted
            for a in zip(group.elements, group.joint_perms, group.bar_perms)
        )
        orbit_count = len(orbits(f, group).joint_orbits)
        if total != group.order * orbit_count:
            bad.append((name, total, group.order, orbit_count))
        reg = gamma_regular(group)
        mults = dict(decompose_irreps(reg))
        table = character_table(group.schoenflies, group.dimension)
        want = {row.name: int(row.values[0]) for row in table.rows}
        if mults != want:
            bad.append((name, "regular", mults, want))

    tables = [(lbl, 2) for lbl in CATALOG_2D] + [(lbl, 3) for lbl in CATALOG_3D]
    for lbl, dim in tables:
        t = character_table(lbl, dim)
        reg = t.regular_values()
        mults = t.decompose(reg)
        want = {row.name: int(row.values[0]) for row in t.rows}
        if mults != want:
            bad.append((lbl, dim, mults, want))
            continue
        recomposed = [
            sum(mults[row.name] / (2 if row.paired else 1) * row.values[c] for row in t.rows)
            for c in range(len(t.class_keys))
        ]
        residual = max(abs(a - b) for a, b in zip(recomposed, reg))
        if residual >= 1e-6:
            bad.append((lbl, dim, "residual", residual))

    ok = not bad
    record_acceptance(
        8,
        ok,
        f"Burnside on {len(zoo)} fixtures; regular rep = irrep dims on "
        f"{len(tables)} tables, residual < 1e-6",
    )
    assert ok, bad
