"""Symmetry detection: group labels, class tables, permutation algebra."""

from __future__ import annotations

import functools
import importlib.util
import json
import math
import random
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isoframe.chartables import CATALOG_2D, CATALOG_3D, _rotation_about, reference_group
from isoframe.constructgen import counterexample_2d, double_banana, fig2_examples, platonic
from isoframe.core import new_framework
from isoframe import symdetect
from isoframe.errors import (
    ContinuousSymmetry,
    InternalInconsistency,
    NotAGroup,
    ToleranceAmbiguity,
)
from isoframe.maxwell import isostatic_necessary, maxwell_trace
from isoframe.symdetect import (
    _key_order,
    classify_group,
    classify_matrix,
    detect_point_group,
    detect_symmetries,
    orbits,
    unshifted_counts,
)

from oracles import brute_fixed_counts, geometric_fixed_items, permutation_order_bruteforce
from oracles import cayley_table, inverses, merged_conjugacy_classes
from oracles import canonical_sort_key, shells_by_chaining
from oracles import find_joint_permutation as _find_joint_permutation

# Per-class (label, joints unshifted, bars unshifted), in detected class
# order.  Frozen from an independent brute-force pass: apply each class
# representative's matrix to the coordinates and count nearest-image
# fixed points directly.
TETRA_TABLE = [
    ("E", 4, 6),
    ("8C3", 1, 0),
    ("3C2", 0, 2),
    ("6S4", 0, 0),
    ("6sigma_d", 2, 2),
]

OCTA_TABLE = [
    ("E", 6, 12),
    ("6C4", 2, 0),
    ("8C3", 0, 0),
    ("3C2", 2, 0),
    ("6C2'", 0, 2),
    ("i", 0, 0),
    ("8S6", 0, 0),
    ("6S4", 0, 0),
    ("3sigma_h", 4, 4),
    ("6sigma_d", 2, 2),
]

ICOSA_TABLE = [
    ("E", 12, 30),
    ("12C5", 2, 0),
    ("12C5^2", 2, 0),
    ("20C3", 0, 0),
    ("15C2", 0, 2),
    ("i", 0, 0),
    ("12S10", 0, 0),
    ("12S10^3", 0, 0),
    ("20S6", 0, 0),
    ("15sigma", 4, 4),
]


def _counts(f, group, x):
    """unshifted_counts of element x of the group."""
    return unshifted_counts(f, group.elements[x], group.joint_perms[x], group.bar_perms[x])


def _class_table(f, group):
    rows = []
    for cls in group.classes:
        uc = _counts(f, group, cls.rep_id)
        rows.append((cls.label, uc.joints_unshifted, uc.bars_unshifted))
    return rows


@pytest.mark.parametrize(
    "name,label,order",
    [
        ("tetrahedron", "Td", 24),
        ("octahedron", "Oh", 48),
        ("icosahedron", "Ih", 120),
    ],
)
def test_platonic_group_labels(name, label, order):
    g = detect_point_group(platonic(name))
    assert g.schoenflies == label
    assert g.order == order
    assert len(g.elements) == order
    assert sum(c.size for c in g.classes) == order
    # identity is element 0 and forms its own class labeled E
    assert g.elements[0].kind == "E"
    e_cls = next(cls for cls in g.classes if 0 in cls.member_ids)
    assert e_cls.label == "E" and e_cls.size == 1


@pytest.mark.parametrize(
    "name,table",
    [
        ("tetrahedron", TETRA_TABLE),
        ("octahedron", OCTA_TABLE),
        ("icosahedron", ICOSA_TABLE),
    ],
)
def test_platonic_unshifted_tables(name, table):
    f = platonic(name)
    g = detect_point_group(f)
    assert _class_table(f, g) == table


@pytest.mark.parametrize(
    "name,table",
    [("tetrahedron", TETRA_TABLE), ("octahedron", OCTA_TABLE)],
)
def test_unshifted_counts_match_bruteforce(name, table):
    # every element, not just class reps, against the nearest-image oracle
    f = platonic(name)
    g = detect_point_group(f)
    coords = f.coordinates - f.centroid()
    edges = f.ends.tolist()
    for x, op in enumerate(g.elements):
        ref_j, ref_b = brute_fixed_counts(coords, edges, op.matrix)
        uc = _counts(f, g, x)
        assert (uc.joints_unshifted, uc.bars_unshifted) == (ref_j, ref_b)


@pytest.mark.parametrize(
    "key,label,order",
    [
        ("C1", "C1", 1),
        ("C2", "C2", 2),
        ("C3", "C3", 3),
        ("Cs_perp", "Cs", 2),
        ("Cs_in", "Cs", 2),
        ("C2v", "C2v", 4),
        ("C3v_perp", "C3v", 6),
        ("C3v_in", "C3v", 6),
    ],
)
def test_plane_fixture_groups(key, label, order):
    g = detect_point_group(fig2_examples(key))
    assert g.schoenflies == label
    assert g.order == order


def test_classify_matrix_3d_kinds():
    ident = classify_matrix(np.eye(3), 3, 1)
    assert ident.kind == "E"

    th = 2 * math.pi / 5
    rot = np.array(
        [
            [math.cos(th), -math.sin(th), 0.0],
            [math.sin(th), math.cos(th), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    c5 = classify_matrix(rot, 3, 5)
    assert (c5.kind, c5.n, c5.k) == ("C", 5, 1)
    assert c5.axis is not None
    assert np.allclose(np.abs(c5.axis), [0, 0, 1])

    s4 = classify_matrix(
        np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]), 3, 4
    )
    assert (s4.kind, s4.n) == ("S", 4)

    mirror = classify_matrix(np.diag([1.0, 1.0, -1.0]), 3, 2)
    assert mirror.kind == "sigma"
    assert np.allclose(np.abs(mirror.axis), [0, 0, 1])  # plane normal

    inv = classify_matrix(-np.eye(3), 3, 2)
    assert inv.kind == "i"

    # a half turn is no primitive multiple of a quarter turn
    with pytest.raises(ToleranceAmbiguity):
        classify_matrix(np.diag([-1.0, -1.0, 1.0]), 3, 4)


@given(
    st.tuples(*(st.floats(-1.0, 1.0) for _ in range(3))),
    st.integers(2, 60),
    st.integers(0, 59),
    st.booleans(),
)
@example((0.0, 0.0, 1.0), 3, 0, False)  # S3, order 6
@example((0.0, 0.0, 1.0), 6, 0, False)  # S6, order 6
@example((0.3, 0.1, 0.9), 2, 0, False)  # i
@example((0.3, 0.1, 0.9), 1, 0, False)  # sigma
@settings(max_examples=200, deadline=None)
def test_classify_matrix_reads_kind_and_fraction_from_the_order(axis, n, pick, proper):
    assume(np.linalg.norm(axis) > 0.1)
    a = np.asarray(axis) / np.linalg.norm(axis)
    coprime = [k for k in range(n) if math.gcd(k, n) == 1]
    k = coprime[pick % len(coprime)]
    M = _rotation_about(a, 2 * math.pi * k / n)
    if not proper:
        M = M @ (np.eye(3) - 2 * np.outer(a, a))
    order = n if proper or n % 2 == 0 else 2 * n
    op = classify_matrix(M, 3, order)
    if proper:
        want = ("C", n, k)
    else:
        want = {1: ("sigma", 0, 0), 2: ("i", 0, 0)}.get(n, ("S", n, k))
    if op.kind in ("C", "S") and float(np.dot(op.axis, a)) < 0:
        want = (want[0], n, n - k)  # the axis was turned round
    assert (op.kind, op.n, op.k) == want
    if op.kind != "i":
        assert abs(abs(float(np.dot(op.axis, a))) - 1) < 1e-9


def test_classify_matrix_2d_kinds():
    th = 2 * math.pi / 3
    rot = np.array(
        [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
    )
    c3 = classify_matrix(rot, 2, 3)
    assert (c3.kind, c3.n, c3.k) == ("C", 3, 1)

    flip_y = classify_matrix(np.diag([1.0, -1.0]), 2, 2)
    assert flip_y.kind == "sigma"
    assert np.allclose(np.abs(flip_y.axis), [1, 0])  # mirror line direction

    half_turn = classify_matrix(-np.eye(2), 2, 2)
    assert (half_turn.kind, half_turn.n) == ("C", 2)

    with pytest.raises(ValueError):
        classify_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]), 2, 1)  # not orthogonal
    with pytest.raises(ValueError):
        classify_matrix(np.eye(3), 2, 1)  # wrong shape


def _group_under_test(name):
    """A detected group by solid name, or a reference group by "label/dD"."""
    if "/" in name:
        label, dim = name.split("/")
        return reference_group(label, int(dim[0]))
    return detect_point_group(platonic(name))


@pytest.mark.parametrize(
    "name",
    ["tetrahedron", "octahedron", "icosahedron"]
    + [f"{label}/2D" for label in CATALOG_2D]
    + [f"{label}/3D" for label in CATALOG_3D],
)
def test_multiplication_table_consistency(name):
    # the table must agree with both matrix products and permutation
    # composition, of joints and, where there are bars, of bars:
    # table[x, y] represents "apply y, then x"
    g = _group_under_test(name)
    mats = [op.matrix for op in g.elements]
    stacks = [g.joint_perms] if g.bar_perms is None else [g.joint_perms, g.bar_perms]
    if "/" not in name:
        f = platonic(name)
        assert [p.shape for p in stacks] == [(g.order, f.joint_count), (g.order, f.bar_count)]
    for perms in stacks:
        assert perms.dtype == np.int64 and not perms.flags.writeable
        assert perms.shape[0] == g.order
    for x in range(g.order):
        for y in range(g.order):
            t = int(g.mult_table[x, y])
            assert np.abs(mats[x] @ mats[y] - mats[t]).max() < 1e-8
            for perms in stacks:
                assert (perms[x][perms[y]] == perms[t]).all()


def test_flat_square_with_diagonal_is_d2h():
    # in the plane z = 0, each element and its product with the mirror in
    # that plane permute the joints alike; the determinant sign keeps
    # the two apart
    f = new_framework(
        3,
        [(1.0, 1.0, 0.0), (-1.0, 1.0, 0.0), (-1.0, -1.0, 0.0), (1.0, -1.0, 0.0)],
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
    )
    g = detect_point_group(f)
    assert (g.schoenflies, g.order) == ("D2h", 8)
    assert len({tuple(row) for row in g.joint_perms.tolist()}) == 4
    still = [i for i, row in enumerate(g.joint_perms.tolist()) if row == [0, 1, 2, 3]]
    e, sigma_h = still
    assert (g.elements[e].kind, g.elements[sigma_h].kind) == ("E", "sigma")
    assert np.allclose(np.abs(g.elements[sigma_h].axis), [0.0, 0.0, 1.0])
    assert int(g.mult_table[sigma_h, sigma_h]) == e


def test_inverse_table(octahedron):
    g = detect_point_group(octahedron)
    for x in range(g.order):
        inv = int(g.inverse[x])
        assert int(g.mult_table[x, inv]) == 0
        assert int(g.mult_table[inv, x]) == 0
        M = g.elements[x].matrix @ g.elements[inv].matrix
        assert np.abs(M - np.eye(3)).max() < 1e-8


@pytest.mark.parametrize(
    "name,n_joint_orbits,n_bar_orbits",
    [
        ("tetrahedron", 1, 1),
        ("octahedron", 1, 1),
        ("icosahedron", 1, 1),
    ],
)
def test_platonic_orbits_are_transitive(name, n_joint_orbits, n_bar_orbits):
    f = platonic(name)
    g = detect_point_group(f)
    part = orbits(f, g)
    assert len(part.joint_orbits) == n_joint_orbits
    assert len(part.bar_orbits) == n_bar_orbits
    assert sorted(i for orb in part.joint_orbits for i in orb) == list(
        range(f.joint_count)
    )
    assert sorted(i for orb in part.bar_orbits for i in orb) == list(
        range(f.bar_count)
    )


@pytest.mark.parametrize(
    "key",
    ["C2", "C3", "Cs_in", "C2v", "C3v_in", "C3v_perp"],
)
def test_burnside_orbit_counts(key):
    # averaging fixed-point counts over the group must give the orbit
    # counts exactly (Burnside)
    f = fig2_examples(key)
    g = detect_point_group(f)
    part = orbits(f, g)
    fixed_j = sum(_counts(f, g, x).joints_unshifted for x in range(g.order))
    fixed_b = sum(_counts(f, g, x).bars_unshifted for x in range(g.order))
    assert fixed_j == g.order * len(part.joint_orbits)
    assert fixed_b == g.order * len(part.bar_orbits)


def test_detection_is_rotation_and_translation_invariant(octahedron):
    rng = np.random.default_rng(20260816)
    A = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(A)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    shift = rng.normal(size=3) * 5.0
    moved = new_framework(
        3,
        (octahedron.coordinates @ Q.T) + shift,
        octahedron.ends.tolist(),
    )
    g = detect_point_group(moved)
    assert g.schoenflies == "Oh"
    assert g.order == 48
    assert _class_table(moved, g) == OCTA_TABLE


def test_detection_survives_tiny_jitter(octahedron):
    rng = np.random.default_rng(7)
    bumped = new_framework(
        3,
        octahedron.coordinates + rng.normal(size=(6, 3)) * 1e-10,
        octahedron.ends.tolist(),
    )
    g = detect_point_group(bumped)
    assert g.schoenflies == "Oh" and g.order == 48


def test_moderate_jitter_breaks_symmetry_at_default_tolerance(octahedron):
    rng = np.random.default_rng(8)
    noise = rng.normal(size=(6, 3)) * 1e-4
    bumped = new_framework(
        3, octahedron.coordinates + noise, octahedron.ends.tolist()
    )
    g = detect_point_group(bumped)
    assert g.schoenflies == "C1" and g.order == 1
    # the same frame recovers full symmetry under a looser tolerance
    loose = detect_point_group(bumped, geom_tol=1e-3)
    assert loose.schoenflies == "Oh" and loose.order == 48


def test_necessary_counts_pass_on_a_loosely_detected_group(octahedron):
    # the counts come from the permutations, which hold although the
    # jittered joints sit off the invariant sets at the default tolerance
    rng = np.random.default_rng(8)
    noise = rng.normal(size=(6, 3)) * 1e-4
    bumped = new_framework(
        3, octahedron.coordinates + noise, octahedron.ends.tolist()
    )
    loose = detect_point_group(bumped, geom_tol=1e-3)
    assert isostatic_necessary(bumped, loose).passed


@pytest.mark.parametrize("seed", [0, 1])
def test_unclosed_symmetries_blame_the_tolerance(tetrahedron, seed):
    # noise the size of geom_tol lets some symmetries through and not
    # others, so the set found is not closed: the tolerance is to blame
    noise = np.random.default_rng(seed).normal(size=(4, 3)) * 1e-3
    bumped = new_framework(
        3,
        tetrahedron.coordinates + noise * tetrahedron.diameter(),
        tetrahedron.ends.tolist(),
    )
    with pytest.raises(ToleranceAmbiguity, match=r"geom_tol 0\.001 .*not in the set"):
        detect_point_group(bumped, geom_tol=1e-3)


def test_continuous_symmetry_rejected():
    lonely = new_framework(2, [(0.0, 0.0)], [])
    with pytest.raises(ContinuousSymmetry):
        detect_symmetries(lonely)
    collinear = new_framework(
        3, [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)], [(0, 1), (1, 2)]
    )
    with pytest.raises(ContinuousSymmetry):
        detect_point_group(collinear)


def test_close_joints_trip_ambiguity_guard():
    f = new_framework(
        2,
        [(0.0, 0.0), (1.0, 0.0), (1.0 + 1e-4, 1e-4), (0.0, 1.0)],
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
    )
    with pytest.raises(ToleranceAmbiguity):
        detect_symmetries(f, geom_tol=1e-2)


# Joints on the x axis, mapped by the point reflection x -> -x.  Among
# a, b, c, t: the images of a and b land 0.08 from t and of c nowhere;
# the image of q lands 0 and 0.05 from s1 and s2, so it matches both.
_a, _b, _c, _t = (-0.92, 0.0), (-1.08, 0.0), (5.0, 0.0), (1.0, 0.0)
_q, _s1, _s2 = (-2.0, 0.0), (2.0, 0.0), (2.05, 0.0)
_NONE = None
_MANY = r"^the image of joint 1 matches 2 joints within tolerance 0\.1; "
_TWICE = r"^two joints map onto joint 3 within tolerance 0\.1$"


@pytest.mark.parametrize(
    "points, outcome",
    [
        ([(0.0, 0.0), (-1.0, 0.0), (1.0, 0.0)], (0, 2, 1)),
        # the first joint in id order with a problem decides the outcome
        ([(0.0, 0.0), _c, _q, _s1, _s2], _NONE),
        ([(0.0, 0.0), _q, _c, _s1, _s2], _MANY),
        ([(0.0, 0.0), _q, _s1, _s2, _a, _b, _t], _MANY),
        ([_a, _b, _c, _t, _q, _s1, _s2], _TWICE),
        ([_c, _a, _b, _t], _NONE),
    ],
)
def test_find_joint_permutation_outcomes(points, outcome):
    P = np.array(points)
    M = -np.eye(2)
    if isinstance(outcome, str):
        with pytest.raises(ToleranceAmbiguity, match=outcome):
            _find_joint_permutation(P, M, 0.1)
    else:
        assert _find_joint_permutation(P, M, 0.1) == outcome


def test_matched_permutations_stop_before_the_first_ambiguous_matrix(monkeypatch):
    # E, then the point reflection, whose image of joint 1 lands 0.07
    # from joints 2 and 3, then E again: one matrix per block
    P = np.array([(0.0, 0.0), (-2.0, 0.0), (1.93, 0.0), (2.07, 0.0)])
    monkeypatch.setattr(symdetect, "_BLOCK", len(P))
    Ms = np.stack([np.eye(2), -np.eye(2), np.eye(2)])
    ids, perms, bar_perms, error = symdetect._matched_permutations(P, Ms, 0.1)
    assert ids.tolist() == [0] and perms.tolist() == [[0, 1, 2, 3]]
    assert bar_perms.shape == (1, 0)
    assert isinstance(error, ToleranceAmbiguity) and re.match(_MANY, str(error))


@given(
    perm=st.integers(1, 40).flatmap(lambda j: st.permutations(range(j))),
    proper=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_key_order_matches_powering(perm, proper):
    m = permutation_order_bruteforce(perm)
    want = m if proper or m % 2 == 0 else 2 * m
    assert _key_order(tuple(perm), proper) == want


def test_key_order_takes_one_lcm(monkeypatch):
    # 30 cycles of lengths 1..6, five of each: one lcm over the six lengths
    perm, start = [], 0
    for length in [1, 2, 3, 4, 5, 6] * 5:
        perm += [start + (k + 1) % length for k in range(length)]
        start += length
    calls = []

    def lcm(*lengths):
        calls.append(lengths)
        return math.lcm(*lengths)

    monkeypatch.setattr(symdetect, "math", SimpleNamespace(lcm=lcm))
    assert _key_order(tuple(perm), True) == permutation_order_bruteforce(perm) == 60
    assert len(calls) == 1 and sorted(calls[0]) == [1, 2, 3, 4, 5, 6]


def _ring(n):
    """n joints evenly on the unit circle, each tied to the next: C_nv."""
    points = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)]
    return new_framework(2, points, [(k, (k + 1) % n) for k in range(n)])


def test_square_without_bars_has_empty_bar_permutations():
    f = new_framework(2, [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)], [])
    g = detect_point_group(f)
    assert (g.schoenflies, g.order) == ("C4v", 8)
    assert g.bar_perms.shape == (8, 0)
    assert sorted(g.joint_perms.tolist()) == sorted(
        [(s * i + t) % 4 for i in range(4)] for s in (1, -1) for t in range(4)
    )


def test_ring_of_200_is_c200v_across_two_matching_blocks():
    # 2 x 200 candidates x 200 joints = 80,000 images, more than one block
    g = detect_point_group(_ring(200))
    assert (g.schoenflies, g.order) == ("C200v", 400)
    rotations = []
    for n in sorted({200 // math.gcd(k, 200) for k in range(1, 100)}, reverse=True):
        rotations += [f"2C{n}" + (f"^{k}" if k > 1 else "")
                      for k in range(1, n // 2 + (n % 2)) if math.gcd(k, n) == 1]
    assert [c.label for c in g.classes] == (
        ["E"] + rotations + ["C2", "100sigma_v", "100sigma_v'"]
    )
    assert (np.sort(g.bar_perms, axis=1) == np.arange(200)).all()


def _not_a_group(matrices, joint_perms):
    with pytest.raises(NotAGroup) as caught:
        classify_group(matrices, joint_perms)
    return str(caught.value)


def _matrices(g):
    """The (g, d, d) stack of the group's element matrices, in element order."""
    return np.array([op.matrix for op in g.elements])


def test_cayley_table_does_not_trust_the_row_hash(octahedron):
    # swapping two entries of one element's permutation leaves the images
    # of some base alone, whichever base is picked, so the table is found
    # from base images and only the full check on generators can refuse it
    g = detect_point_group(octahedron)
    elements, matrices, perms = g.elements, _matrices(g), g.joint_perms
    table = classify_group(matrices, perms).mult_table
    kept = [x for x, op in enumerate(elements) if (op.kind, op.n) != ("C", 4)]
    unclosed = matrices[kept], perms[kept]
    message = _not_a_group(*unclosed)
    keys = {(tuple(row), op.kind in ("E", "C")) for row, op in zip(perms.tolist(), elements)}
    x = elements[1]
    for p in range(octahedron.joint_count):
        for q in range(p):
            perm = perms[1].tolist()
            perm[p], perm[q] = perm[q], perm[p]
            edited = perms.copy()
            edited[1] = perm
            twin = (tuple(perm), x.kind in ("E", "C")) in keys
            with pytest.raises(ToleranceAmbiguity if twin else NotAGroup):
                classify_group(matrices, edited)
    assert np.array_equal(classify_group(matrices, perms).mult_table, table)
    assert _not_a_group(*unclosed) == message
    with pytest.raises(ToleranceAmbiguity, match="permute the joints alike"):
        classify_group(
            np.concatenate([matrices, matrices[1:2]]), np.concatenate([perms, perms[1:2]])
        )


def test_ring_of_500_is_c500v():
    g = detect_point_group(_ring(500))
    assert (g.schoenflies, g.order) == ("C500v", 1000)
    rotations = []
    for n in sorted({500 // math.gcd(k, 500) for k in range(1, 250)}, reverse=True):
        rotations += [f"2C{n}" + (f"^{k}" if k > 1 else "")
                      for k in range(1, n // 2 + (n % 2)) if math.gcd(k, n) == 1]
    assert [c.label for c in g.classes] == (
        ["E"] + rotations + ["C2", "250sigma_v", "250sigma_v'"]
    )


def _keyed(matrices, joint_perms):
    return [tuple(row) for row in joint_perms.tolist()], [
        1 if det > 0 else -1 for det in np.linalg.det(matrices).tolist()
    ]


@functools.lru_cache(maxsize=None)
def _oracle_groups():
    """The snapshot shapes' groups and every reference group, by name."""
    groups = {name: detect_point_group(f) for name, f in _snapshot_shapes().items()}
    for dimension, catalog in ((2, CATALOG_2D), (3, CATALOG_3D)):
        groups.update({f"{label} ({dimension}D)": reference_group(label, dimension)
                       for label in catalog})
    return groups


def test_group_structure_matches_full_composition():
    groups = _oracle_groups()
    assert len(groups) == 49 + len(CATALOG_2D) + len(CATALOG_3D)
    for name, g in groups.items():
        table = cayley_table(*_keyed(_matrices(g), g.joint_perms))
        assert g.mult_table.tolist() == table, name
        assert g.inverse.tolist() == inverses(table), name
        assert {c.member_ids for c in g.classes} == merged_conjugacy_classes(table), name


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unclosed_subsets_name_the_first_missing_product(data):
    groups = _oracle_groups()
    g = groups[data.draw(st.sampled_from(sorted(groups)))]
    keep = data.draw(st.lists(st.booleans(), min_size=g.order - 1, max_size=g.order - 1))
    ids = [0] + [x for x, k in enumerate(keep, 1) if k]
    subset = _matrices(g)[ids], g.joint_perms[ids]
    table = cayley_table(*_keyed(*subset))
    missing = next(((x, y) for x, row in enumerate(table)
                    for y, z in enumerate(row) if z is None), None)
    assume(missing is not None)
    assert _not_a_group(*subset) == "the product of elements %d and %d is not in the set" % missing


def _digest(g):
    """Everything a group reports about its elements and their structure."""
    return (
        g.schoenflies,
        [(op.kind, op.n, op.k, op.axis) for op in g.elements],
        g.joint_perms.tolist(),
        None if g.bar_perms is None else g.bar_perms.tolist(),
        g.mult_table.tolist(),
        g.inverse.tolist(),
        g.classes,
        g.principal_axis,
    )


def test_row_order_does_not_matter():
    # classify_group takes the stacks in any row order and sorts them once
    stacks = {name: detect_symmetries(f) for name, f in _snapshot_shapes().items()}
    for dimension, catalog in ((2, CATALOG_2D), (3, CATALOG_3D)):
        for label in catalog:
            g = reference_group(label, dimension)
            stacks[f"{label} ({dimension}D)"] = (_matrices(g), g.joint_perms)
    groups = _oracle_groups()
    assert sorted(stacks) == sorted(groups) and len(stacks) == 49 + 54
    for seed, (name, stack) in enumerate(stacks.items()):
        want = _digest(groups[name])
        for shuffle in range(2):
            rows = np.random.default_rng([seed, shuffle]).permutation(len(stack[0]))
            assert _digest(classify_group(*(s[rows] for s in stack))) == want, name


def test_detection_sorts_the_elements_once(octahedron, monkeypatch):
    calls = []
    canonical_order = symdetect._canonical_order

    def counted(*args):
        calls.append(args)
        return canonical_order(*args)

    monkeypatch.setattr(symdetect, "_canonical_order", counted)
    detect_point_group(octahedron)
    assert len(calls) == 1


def test_detection_takes_the_determinants_once(octahedron, monkeypatch):
    # detection keys a symmetry by the side of a hyperplane span it sends
    # the normal to, not by its determinant; classify_group takes the signs
    calls = []
    det = np.linalg.det

    def counted(M):
        calls.append(np.shape(M))
        return det(M)

    monkeypatch.setattr(np.linalg, "det", counted)
    planar = fig2_examples("C3v_perp")
    flat = np.column_stack([planar.coordinates, np.zeros(planar.joint_count)])
    shapes = {
        "octahedron": octahedron,
        "planar": planar,
        "flat3d": new_framework(3, flat, planar.ends.tolist()),
    }
    for name, f in shapes.items():
        calls.clear()
        group = detect_point_group(f)
        assert calls == [(group.order, f.dimension, f.dimension)], name
    assert group.schoenflies == "D3h"  # the plane of the joints is a mirror


def test_classify_group_refuses_a_matrix_stack_of_the_wrong_shape(octahedron):
    matrices, perms, _ = detect_symmetries(octahedron)
    for bad in (matrices[0], matrices[:, :2], np.zeros((len(perms), 4, 4))):
        with pytest.raises(ValueError, match=r"^matrices must have shape \(g, d, d\)"):
            classify_group(bad, perms)


def test_classify_group_refuses_joint_perms_of_the_wrong_shape(octahedron):
    matrices, perms, _ = detect_symmetries(octahedron)
    for bad in (perms[:-1], perms[:, :, None], perms.astype(float)):
        with pytest.raises(ValueError, match=r"^joint_perms must be an integer array of shape"):
            classify_group(matrices, bad)


def test_classify_group_refuses_bar_perms_of_the_wrong_shape(octahedron):
    matrices, perms, bar_perms = detect_symmetries(octahedron)
    with pytest.raises(ValueError, match=r"^bar_perms must be an integer array of shape \(48,"):
        classify_group(matrices, perms, bar_perms[:-1])


def test_classify_group_refuses_entries_out_of_range(octahedron):
    matrices, perms, bar_perms = detect_symmetries(octahedron)
    wide, low = perms.copy(), bar_perms.copy()
    wide[3, 2], low[5, 7] = 6, -1
    with pytest.raises(ValueError, match=r"^joint_perms has an entry outside \[0, 6\)$"):
        classify_group(matrices, wide, bar_perms)
    with pytest.raises(ValueError, match=r"^bar_perms has an entry outside \[0, 12\)$"):
        classify_group(matrices, perms, low)


def test_close_symmetries_are_ambiguous_in_candidate_order(octahedron, monkeypatch):
    # a new key whose matrix lies within 1e-4 of a kept one is ambiguous,
    # unless a candidate reached before it landed ambiguously
    matrices, perms, bar_perms = detect_symmetries(octahedron)
    first = (matrices[0], True, perms[0], bar_perms[0])
    twin = (matrices[0] + 5e-5, True, perms[1], bar_perms[1])
    late = ToleranceAmbiguity("a later candidate lands on two joints")

    def candidates(*items):
        # the stacks stop before the candidate that lands ambiguously
        stop = next(x for x, item in enumerate(items) if isinstance(item, Exception))
        stacks = [np.array(column) for column in zip(*items[:stop])]
        monkeypatch.setattr(symdetect, "_isometries", lambda *args: (*stacks, items[stop]))

    candidates(first, twin, late)
    with pytest.raises(ToleranceAmbiguity, match="differ by only 5e-05"):
        detect_symmetries(octahedron)
    candidates(first, late, twin)
    with pytest.raises(ToleranceAmbiguity, match="a later candidate"):
        detect_symmetries(octahedron)


@pytest.mark.parametrize("seed", range(6))
def test_close_matrices_are_found_block_by_block(seed, monkeypatch):
    # the first matrix near an earlier one, and the gap to the first such,
    # as a loop over the matrices in order finds them
    rng = np.random.default_rng(seed)
    kept = rng.normal(size=(40, 3, 3))
    for a in rng.choice(np.arange(5, 40), size=3, replace=False):
        scale = rng.choice([6e-5, 1.5e-4])
        kept[a] = kept[rng.integers(a)] + rng.uniform(-scale, scale, size=(3, 3))
    want = None
    for a in range(1, len(kept)):
        gaps = np.abs(kept[:a] - kept[a]).max(axis=(1, 2))
        if gaps.min() < 1e-4:
            want = f"differ by only {gaps[np.argmax(gaps < 1e-4)]:g}"
            break
    monkeypatch.setattr(symdetect, "_BLOCK", 40 * 3)
    if want is None:
        symdetect._raise_if_close(kept)
    else:
        with pytest.raises(ToleranceAmbiguity, match=want):
            symdetect._raise_if_close(kept)


def test_unshifted_counts_needs_permutations(octahedron):
    # an operation without its permutations is refused, as in classify_group
    g = detect_point_group(octahedron)
    x = next(x for x, op in enumerate(g.elements) if op.n == 4)
    with pytest.raises(ValueError):
        unshifted_counts(octahedron, g.elements[x], None, None)
    with pytest.raises(ValueError):
        unshifted_counts(octahedron, g.elements[x], g.joint_perms[x], None)


def test_fixed_bar_tags_octahedron(octahedron):
    g = detect_point_group(octahedron)
    by_label = {c.label: c.rep_id for c in g.classes}

    uc = _counts(octahedron, g, by_label["6C2'"])
    assert sorted(uc.bar_tags.values()) == ["perpendicular_to_axis"] * 2

    uc = _counts(octahedron, g, by_label["3sigma_h"])
    assert sorted(uc.bar_tags.values()) == ["in_plane"] * 4

    uc = _counts(octahedron, g, by_label["6sigma_d"])
    assert sorted(uc.bar_tags.values()) == ["perpendicular_to_plane"] * 2


def test_fixed_bar_tags_plane_fixtures():
    f = fig2_examples("C2")
    g = detect_point_group(f)
    half_turn = next(x for x, op in enumerate(g.elements) if op.kind == "C")
    uc = _counts(f, g, half_turn)
    assert list(uc.bar_tags.values()) == ["centered_at_origin"]
    assert (uc.joints_unshifted, uc.bars_unshifted) == (0, 1)

    f = fig2_examples("Cs_in")
    g = detect_point_group(f)
    mirror = next(x for x, op in enumerate(g.elements) if op.kind == "sigma")
    uc = _counts(f, g, mirror)
    assert uc.joints_unshifted == 2
    assert list(uc.bar_tags.values()) == ["in_plane"]


_Z = (0.0, 0.0, 1.0)
_MIRROR_2D, _MIRROR_3D = np.diag([1.0, -1.0]), np.diag([1.0, 1.0, -1.0])
_HALF_TURN_3D = np.diag([-1.0, -1.0, 1.0])
_QUARTER_TURN_2D = np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "matrix, order, swapped, tag",
    [
        pytest.param(_MIRROR_2D, 2, False, "in_plane", id="sigma-2D-kept"),
        pytest.param(_MIRROR_3D, 2, False, "in_plane", id="sigma-3D-kept"),
        pytest.param(_rotation_about(_Z, math.pi / 2), 4, False, "along_axis", id="C4-3D-kept"),
        pytest.param(_HALF_TURN_3D, 2, False, "along_axis", id="C2-3D-kept"),
        pytest.param(_MIRROR_2D, 2, True, "perpendicular_to_plane", id="sigma-2D-swapped"),
        pytest.param(_MIRROR_3D, 2, True, "perpendicular_to_plane", id="sigma-3D-swapped"),
        pytest.param(_rotation_about(_Z, math.pi / 2) @ _MIRROR_3D, 4, True, "along_axis",
                     id="S4-3D-swapped"),
        pytest.param(-np.eye(3), 2, True, "centered_at_origin", id="i-3D-swapped"),
        pytest.param(-np.eye(2), 2, True, "centered_at_origin", id="C2-2D-swapped"),
        pytest.param(_HALF_TURN_3D, 2, True, "perpendicular_to_axis", id="C2-3D-swapped"),
        # no isometry fixes a bar these ways
        pytest.param(_rotation_about(_Z, 2 * math.pi / 3), 3, True, None, id="C3-3D-swapped"),
        pytest.param(_QUARTER_TURN_2D, 4, False, None, id="C4-2D-kept"),
        pytest.param(-np.eye(2), 2, False, None, id="C2-2D-kept"),
        pytest.param(_QUARTER_TURN_2D, 4, True, None, id="C4-2D-swapped"),
        pytest.param(-np.eye(3), 2, False, None, id="i-3D-kept"),
        pytest.param(_rotation_about(_Z, math.pi / 2) @ _MIRROR_3D, 4, False, None,
                     id="S4-3D-kept"),
    ],
)
def test_fixed_bar_tag_table(matrix, order, swapped, tag):
    # unshifted_counts reads the permutations only, so two joints and a
    # bar anywhere stand for any bar that the operation maps onto itself
    d = matrix.shape[0]
    f = new_framework(d, np.eye(d)[:2], [(0, 1)])
    a = (classify_matrix(matrix, d, order), (1, 0) if swapped else (0, 1), (0,))
    if tag is None:
        with pytest.raises(InternalInconsistency):
            unshifted_counts(f, *a)
    else:
        uc = unshifted_counts(f, *a)
        assert (uc.bar_tags, uc.joints_unshifted) == ({0: tag}, 0 if swapped else 2)


def _assert_counts_match_geometry(f, group, tol, name):
    edges = f.ends.tolist()
    for x, op in enumerate(group.elements):
        uc = _counts(f, group, x)
        joints, tags = geometric_fixed_items(f.coordinates, edges, op.matrix, tol)
        assert (uc.fixed_joint_ids, uc.bar_tags) == (joints, tags), (name, x)


def test_unshifted_counts_match_the_geometry_on_snapshot_shapes():
    for name, f in _snapshot_shapes().items():
        _assert_counts_match_geometry(f, detect_point_group(f), 1e-6 * f.diameter(), name)


def _jittered(f, jitter):
    noise = np.random.default_rng(0).normal(scale=jitter, size=f.coordinates.shape)
    return new_framework(
        f.dimension, f.coordinates + noise * f.diameter(), f.ends.tolist()
    )


def _prism(n, antiprism=False):
    """Two unit n-gons at z = -0.7 and 0.7, the top one turned by pi/n for
    an antiprism, with their rims and the bars between them."""
    turn = math.pi / n if antiprism else 0.0
    points = [
        (math.cos(2 * math.pi * k / n + t), math.sin(2 * math.pi * k / n + t), z)
        for z, t in ((-0.7, 0.0), (0.7, turn))
        for k in range(n)
    ]
    bars = [(r + k, r + (k + 1) % n) for r in (0, n) for k in range(n)]
    bars += [(k, n + k) for k in range(n)]
    if antiprism:
        bars += [((k + 1) % n, n + k) for k in range(n)]
    return new_framework(3, points, bars)


def _snapshot_shapes():
    """The gallery, its planar fixtures in the plane z = 0 of space, and
    prisms and antiprisms: every axial family with and without mirrors."""
    path = Path(__file__).parents[1] / "scripts" / "build_gallery.py"
    spec = importlib.util.spec_from_file_location("build_gallery", path)
    gallery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gallery)
    shapes = dict(gallery._gallery())
    planar = {n: fig2_examples(n) for n in ("C1", "C2", "C3", "Cs_perp", "Cs_in",
                                            "C2v", "C3v_perp", "C3v_in")}
    planar.update({n: counterexample_2d(n) for n in ("C4", "C5", "C6", "C4v")})
    for name, f in planar.items():
        flat = np.column_stack([f.coordinates, np.zeros(f.joint_count)])
        shapes[f"flat3d_{name}"] = new_framework(3, flat, f.ends.tolist())
    for n in range(3, 7):
        shapes[f"prism_{n}"] = _prism(n)
        shapes[f"antiprism_{n}"] = _prism(n, antiprism=True)
    return shapes


def _detected_summary(f):
    g = detect_point_group(f)
    return {
        "schoenflies": g.schoenflies,
        "order": g.order,
        "principal_axis": None if g.principal_axis is None else list(g.principal_axis),
        "classes": [[c.label, list(c.key)] for c in g.classes],
    }


def test_loose_tolerance_keeps_the_sixfold_rotation():
    # at 0.09 a sixfold turn differs from E by 0.87, once inside the merge
    # of candidates with close matrices that made this C3
    g = detect_point_group(counterexample_2d("C6"), geom_tol=0.09)
    assert (g.schoenflies, g.order) == ("C6", 6)


_LOOSE_SHAPES = {
    "prism_6": (lambda: _prism(6), "D6h", 24),
    "antiprism_6": (lambda: _prism(6, antiprism=True), "D6d", 24),
    "icosahedron": (lambda: platonic("icosahedron"), "Ih", 120),
}


@pytest.mark.parametrize("jitter", [0.0, 1e-4])
@pytest.mark.parametrize("shape", sorted(_LOOSE_SHAPES))
def test_loose_tolerance_names_the_group(shape, jitter):
    # a merge of close matrices made the clean prism D3h and dropped the
    # identity of the jittered one (InternalInconsistency); angles snapped
    # within 0.9 rad made the antiprism's S12 an i and an icosahedral
    # C5^2 a C2 (UnrecognizedGroup)
    build, label, order = _LOOSE_SHAPES[shape]
    g = detect_point_group(_jittered(build(), jitter), geom_tol=0.09)
    assert (g.schoenflies, g.order) == (label, order)


@pytest.mark.parametrize(
    "build, jitter, geom_tol",
    [pytest.param(lambda: platonic("octahedron"), 1e-4, 1e-3, id="octahedron-0.0001")]
    + [
        pytest.param(_LOOSE_SHAPES[shape][0], jitter, 0.09, id=f"{shape}-{jitter}")
        for shape in sorted(_LOOSE_SHAPES)
        for jitter in (0.0, 1e-4)
    ],
)
def test_unshifted_counts_match_the_geometry_at_loose_tolerance(build, jitter, geom_tol):
    f = _jittered(build(), jitter)
    g = detect_point_group(f, geom_tol=geom_tol)
    assert g.order > 1
    _assert_counts_match_geometry(f, g, geom_tol * f.diameter(), f"jitter {jitter}")


def _relabelled(f, rng):
    """f with its joints renumbered, its bars shuffled and their ends swapped."""
    perm = list(range(f.joint_count))
    rng.shuffle(perm)
    coords = [None] * f.joint_count
    for i, p in enumerate(perm):
        coords[p] = f.coordinates[i]
    bars = [(perm[v], perm[u]) if rng.random() < 0.5 else (perm[u], perm[v])
            for u, v in f.ends.tolist()]
    rng.shuffle(bars)
    return new_framework(f.dimension, coords, bars)


_RELABEL_SHAPES = {
    "icosahedron": lambda: platonic("icosahedron"),
    "antiprism_5": lambda: _prism(5, antiprism=True),
    "C3v_in": lambda: fig2_examples("C3v_in"),
    "C2v": lambda: fig2_examples("C2v"),
    "double_banana": double_banana,
}


def _symmetric_summary(f):
    g = detect_point_group(f)
    return (
        g.schoenflies,
        [(c.key, c.size) for c in g.classes],
        maxwell_trace(f, g).values,
        isostatic_necessary(f, g).passed,
    )


@pytest.mark.parametrize("shape", sorted(_RELABEL_SHAPES))
@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=8, deadline=None)
def test_relabelling_keeps_group_classes_and_traces(shape, rng):
    f = _RELABEL_SHAPES[shape]()
    label, classes, trace, necessary = _symmetric_summary(f)
    got = _symmetric_summary(_relabelled(f, rng))
    assert got[:2] == (label, classes)
    assert got[2] == pytest.approx(trace, abs=1e-9)
    assert got[3] == necessary


def test_elements_come_in_canonical_sort_key_order():
    # one np.lexsort puts the elements in this order; Python's round
    # guards it against rounding drift of the axes
    groups = [detect_point_group(f) for f in _snapshot_shapes().values()]
    groups += [reference_group(label, 2) for label in CATALOG_2D]
    groups += [reference_group(label, 3) for label in CATALOG_3D]
    assert len(groups) == 49 + 54
    for g in groups:
        keys = [canonical_sort_key(op) for op in g.elements]
        assert keys == sorted(keys), g.schoenflies


# gaps between neighbouring norms, in units of tol: ties, and runs just
# under, at and just over the 2 tol that chains two joints into a shell
_GAPS = st.sampled_from([0.0, 0.5, 2.0 * (1 - 1e-9), 2.0, 2.0 * (1 + 1e-9), 7.0])


@settings(max_examples=200, deadline=None)
@given(
    gaps=st.lists(_GAPS | st.floats(0.0, 10.0), min_size=1, max_size=30),
    start=st.sampled_from([0.0, 1.0, 3.7]),
    tol=st.sampled_from([1e-6, 1e-3, 0.25]),
    rng=st.randoms(use_true_random=False),
)
def test_shells_chain_as_the_joint_loop_does(gaps, start, tol, rng):
    # same shells, and within each shell the members in the order
    # _candidate_images takes them, on which the candidate order rests
    norms = start + np.cumsum(np.array(gaps) * tol)
    rng.shuffle(norms)
    shell = symdetect._shells(norms, tol)
    got = []
    for s in range(shell.max() + 1):
        members = np.flatnonzero(shell == s)
        got.append(members[np.argsort(norms[members], kind="stable")].tolist())
    assert got == shells_by_chaining(norms, tol)


# what detect_point_group reported on each snapshot shape; regenerate
# with `python tests/test_symdetect.py` only for an intended change
_DETECTED = Path(__file__).parent / "data" / "detected_groups.json"


def test_detected_groups_match_snapshot():
    want = json.loads(_DETECTED.read_text())
    shapes = _snapshot_shapes()
    assert sorted(shapes) == sorted(want)
    for name, f in shapes.items():
        got, exp = _detected_summary(f), want[name]
        axis = got.pop("principal_axis")
        exp_axis = exp.pop("principal_axis")
        assert got == exp, name
        if exp_axis is None:
            assert axis is None, name
        else:
            assert axis == pytest.approx(exp_axis, abs=1e-9), name


if __name__ == "__main__":
    _DETECTED.write_text(
        json.dumps(
            {name: _detected_summary(f) for name, f in _snapshot_shapes().items()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
