"""Numeric rank, mobility counts, and nullspace extraction.

The strongest checks compare the SVD rank against exact rational
Gaussian elimination on the same rigidity matrix: every float
coordinate is an exact rational, so the oracle rank is the true rank
of the matrix actually analysed.
"""

from __future__ import annotations

import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoframe as iso
from isoframe import core, numrank
from isoframe.errors import InternalInconsistency
from isoframe.numrank import (
    DEFAULT_RANK_TOL,
    build_system,
    mobility,
    nullspace_bases,
    numeric_rank,
    rigid_body_basis,
    rigid_body_dimension,
)
from oracles import (
    dense_reference,
    exact_rigidity_rank,
    henneberg_graph,
    kernel_per_joint,
    largest_singular_value_per_coordinate,
    peel_per_joint,
    rigid_body_basis_per_field,
)


def to_fractions(f):
    return [tuple(Fraction(float(x)) for x in row) for row in f.coordinates]


def square_with_diagonal():
    return iso.new_framework(
        2,
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
    )


def square_open():
    return iso.new_framework(
        2,
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
        [(0, 1), (1, 2), (2, 3), (0, 3)],
    )


def test_rigid_body_dimension(octahedron):
    assert rigid_body_dimension(square_open()) == 3
    assert rigid_body_dimension(octahedron) == 6


def test_rigid_body_basis_is_orthonormal_and_annihilated(octahedron):
    B = rigid_body_basis(octahedron)
    assert B.shape == (6, 18)
    assert np.allclose(B @ B.T, np.eye(6), atol=1e-12)
    sys_ = build_system(octahedron)
    assert np.max(np.abs(sys_.C @ B.T)) < 1e-12


def test_system_shapes(octahedron):
    sys_ = build_system(octahedron)
    assert sys_.C.shape == (12, 18)
    assert np.allclose(sys_.lengths, np.sqrt(2.0))


def test_numeric_rank_matches_exact_on_fixtures(
    octahedron, banana, fig2_zoo
):
    for f in [octahedron, banana, *fig2_zoo.values()]:
        ks = mobility(f)
        exact = exact_rigidity_rank(
            to_fractions(f), f.ends.tolist()
        )
        assert ks.rank == exact


def test_triangle_isostatic():
    f = iso.new_framework(
        2, [(0.0, 0.0), (2.0, 0.0), (0.7, 1.5)], [(0, 1), (1, 2), (0, 2)]
    )
    ks = mobility(f)
    assert (ks.m, ks.s) == (0, 0)
    assert ks.is_isostatic


def test_open_square_has_one_mechanism():
    ks = mobility(square_open())
    assert (ks.m, ks.s) == (1, 0)


def test_braced_square_isostatic():
    ks = mobility(square_with_diagonal())
    assert (ks.m, ks.s) == (0, 0)


def test_double_braced_square_has_self_stress():
    f = iso.new_framework(
        2,
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)],
    )
    ks = mobility(f)
    assert (ks.m, ks.s) == (0, 1)


def test_mobility_identity(banana, octahedron):
    for f in (banana, octahedron):
        ks = mobility(f)
        assert ks.m - ks.s == iso.maxwell_count(f)
        assert ks.m == f.dimension * f.joint_count - ks.rank - ks.rigid_body_dim
        assert ks.s == f.bar_count - ks.rank


def test_summary_fields(octahedron):
    ks = mobility(octahedron, tol=1e-9)
    assert ks.tolerance_used == 1e-9
    assert ks.dimension == 3
    assert ks.joint_count == 6
    assert ks.bar_count == 12
    assert len(ks.singular_values) == 12


def test_nullspace_bases_residuals(banana):
    stress, mech = nullspace_bases(banana)
    assert stress.shape == (1, 18)
    assert mech.shape == (1, 24)
    sys_ = build_system(banana)
    assert np.max(np.abs(sys_.C.T @ stress.T)) < 1e-8
    assert np.max(np.abs(sys_.C @ mech.T)) < 1e-8
    # mechanisms are orthogonal to every rigid-body motion
    B = rigid_body_basis(banana)
    assert np.max(np.abs(B @ mech.T)) < 1e-8


def test_rank_stable_under_tiny_perturbation(octahedron):
    rng = np.random.default_rng(7)
    base = mobility(octahedron).rank
    for _ in range(5):
        noisy = iso.new_framework(
            3,
            [
                tuple(p + rng.normal(0, 1e-13, 3))
                for p in octahedron.coordinates
            ],
            octahedron.ends.tolist(),
        )
        assert mobility(noisy).rank == base


def test_rank_deficiency_never_grows_at_generic_displacement(octahedron):
    # rank is maximal on an open dense set, so a 1e-3 generic kick keeps it
    rng = np.random.default_rng(11)
    base = mobility(octahedron).rank
    for _ in range(5):
        noisy = iso.new_framework(
            3,
            [
                tuple(p + rng.uniform(-1e-3, 1e-3, 3))
                for p in octahedron.coordinates
            ],
            octahedron.ends.tolist(),
        )
        assert mobility(noisy).rank >= base


def test_nullspace_bases_row_counts_match_mobility(octahedron, banana, fig2_zoo):
    for f in (octahedron, banana, *fig2_zoo.values()):
        ks = mobility(f)
        stress, mech = nullspace_bases(f)
        assert (mech.shape[0], stress.shape[0]) == (ks.m, ks.s)


def spread_lengths_framework():
    # isostatic in the plane; the longest bar is 1e10 times the shortest
    return iso.new_framework(
        2,
        [(0.0, 0.0), (1e5, 0.0), (3e4, 9e4), (5e-6, 8e-6), (9e-6, 1e-6)],
        [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (0, 4), (3, 4)],
    )


def test_rank_does_not_depend_on_bar_length_spread():
    f = spread_lengths_framework()
    lengths = build_system(f).lengths
    assert lengths.max() / lengths.min() > 1e9
    exact = exact_rigidity_rank(to_fractions(f), f.ends.tolist())
    assert exact == 7
    ks = mobility(f)
    assert ks.rank == exact
    assert (ks.m, ks.s) == (0, 0)
    stress, mech = nullspace_bases(f)
    assert stress.shape == (0, 7)
    assert mech.shape == (0, 10)


@pytest.mark.parametrize("scale", [1e13, 1e20])
def test_rigid_body_dimension_does_not_depend_on_scale(octahedron, scale):
    # rotation fields grow with the coordinates and translations do not;
    # ranked together under one relative cutoff, the translations dropped
    big = iso.new_framework(
        3, octahedron.coordinates * scale, octahedron.ends.tolist()
    )
    ks = mobility(big)
    assert (ks.rigid_body_dim, ks.m, ks.s) == (6, 0, 0)
    sq = square_with_diagonal()
    ks = mobility(iso.new_framework(2, sq.coordinates * scale, sq.ends.tolist()))
    assert (ks.rigid_body_dim, ks.m, ks.s) == (3, 0, 0)


@st.composite
def placements(draw):
    """Frameworks of 2 to 12 joints in 2D or 3D, half of them with every
    joint on one line, at scales from 1e-8 to 1e8, with any bars."""
    d = draw(st.sampled_from([2, 3]))
    j = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        steps = rng.permutation(j) + rng.uniform(0.0, 0.5, j)
        coords = np.outer(steps, rng.normal(size=d)) + rng.normal(size=d)
    else:
        coords = rng.normal(size=(j, d))
    coords *= 10.0 ** draw(st.integers(-8, 8))
    pairs = [(a, b) for a in range(j) for b in range(a + 1, j)]
    keep = rng.random(len(pairs)) < draw(st.floats(0.0, 1.0))
    return iso.new_framework(d, coords.tolist(), [p for p, k in zip(pairs, keep) if k])


@given(placements())
@settings(max_examples=150, deadline=None)
def test_stacked_rigid_body_fields_match_the_fields_built_one_by_one(f):
    got, want = rigid_body_basis(f), rigid_body_basis_per_field(f)
    assert rigid_body_dimension(f) == len(got) == len(want)
    assert np.abs(got.T @ got - want.T @ want).max() < 1e-9  # one span


@given(placements())
@settings(max_examples=150, deadline=None)
def test_fused_power_iteration_matches_the_per_coordinate_one(f):
    system = build_system(f)
    start = core.unit_scaled(f.coordinates)[0]
    got = numrank._largest_singular_value(system, start)
    want = largest_singular_value_per_coordinate(system, start)
    assert abs(got - want) <= 1e-12 * want


def test_nullspace_bases_without_bars():
    f = iso.new_framework(2, [(0.0, 0.0), (1.0, 0.0)], [])
    stress, mech = nullspace_bases(f)
    assert stress.shape == (0, 0)
    assert mech.shape == (1, 4)
    assert mobility(f).m == 1


@pytest.mark.parametrize("d", [2, 3])
def test_a_framework_with_no_joints_has_empty_bases(d):
    f = iso.new_framework(d, [], [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = mobility(f)
        stress, mech = nullspace_bases(f)
        rb = rigid_body_basis(f)
    assert (summary.m, summary.s, summary.rigid_body_dim) == (0, 0, 0)
    assert stress.shape == mech.shape == rb.shape == (0, 0)


def test_numeric_rank_empty_and_zero():
    rank, sv = numeric_rank(np.zeros((3, 4)), DEFAULT_RANK_TOL)
    assert rank == 0
    rank, _ = numeric_rank(np.eye(4), DEFAULT_RANK_TOL)
    assert rank == 4


def test_random_generic_agreement_with_exact_oracle():
    rng = random.Random(123)
    for _ in range(25):
        j = rng.randrange(4, 9)
        pairs = [
            (u, v) for u in range(j) for v in range(u + 1, j)
        ]
        b = rng.randrange(1, min(len(pairs), 2 * j))
        edges = sorted(rng.sample(pairs, b))
        coords = [
            (
                Fraction(rng.randrange(-9999, 9999), 1009),
                Fraction(rng.randrange(-9999, 9999), 1009),
            )
            for _ in range(j)
        ]
        f = iso.new_framework(
            2, [(float(x), float(y)) for x, y in coords], edges
        )
        assert mobility(f).rank == exact_rigidity_rank(coords, edges)


@pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, 2.0, float("nan"), float("inf")])
def test_rank_tolerance_outside_unit_interval_refused(octahedron, tol):
    with pytest.raises(ValueError, match="rank tolerance"):
        mobility(octahedron, tol)
    with pytest.raises(ValueError, match="rank tolerance"):
        nullspace_bases(octahedron, tol)
    # a framework without bars has nothing to rank, and is refused too
    with pytest.raises(ValueError, match="rank tolerance"):
        mobility(iso.new_framework(2, [(0.0, 0.0), (1.0, 0.0)], []), tol)


def planar_chain(j, seed=0):
    """Joint k joins k-1 and k-2, zigzagging along a jittered strip."""
    rng = np.random.default_rng(seed)
    k = np.arange(j)
    coords = np.stack([k / 2.0, (k % 2).astype(float)], axis=1)
    coords += rng.uniform(-0.15, 0.15, (j, 2))
    bars = [(0, 1), (0, 2), (1, 2)]
    bars += [(k - 2, k) for k in range(3, j)] + [(k - 1, k) for k in range(3, j)]
    return iso.new_framework(2, coords.tolist(), bars)


def test_long_chain_peels_every_joint():
    # each joint of a vertex-addition chain has two well-conditioned
    # bars once the joints after it are gone, so no SVD of C is needed
    f = planar_chain(2000)
    ks = mobility(f)
    assert ks.peeled_joints == 2000
    assert ks.singular_values.size == 0
    assert (ks.rank, ks.m, ks.s) == (2 * 2000 - 3, 0, 0)


def edge_split(d, j, seed, split_share=1.0, added=0, removed=0):
    """henneberg_graph at random coordinates, less `removed` bars, plus
    `added` bars (as many as fit) between joints not yet joined."""
    rng = random.Random(seed)
    edges = henneberg_graph(rng, d, j, split_share)
    for _ in range(removed):
        edges.pop(rng.randrange(len(edges)))
    free = sorted({(u, v) for v in range(j) for u in range(v)} - set(edges))
    edges += rng.sample(free, min(added, len(free)))
    coords = np.random.default_rng(seed).uniform(-1.0, 1.0, (j, d))
    return iso.new_framework(d, coords.tolist(), edges)


def test_edge_split_graph_peels_none():
    f = edge_split(2, 200, 5)
    degree = np.bincount(f.ends.ravel(), minlength=200)
    assert degree.min() == 3
    system = build_system(f)
    assert numrank._peel(f, system, 1e-3)[0] == ()
    # the core is all of C, and elimination sets most of its joints
    # aside: the SVD ranks a remainder, not C
    ks = mobility(f)
    rank, sv = numeric_rank(system.C)
    assert 0 < ks.singular_values.size < sv.size / 2
    assert 0 < ks.peeled_joints < 200
    assert (ks.rank, ks.m, ks.s) == (rank, 0, 0) == (2 * 200 - 3, 0, 0)
    stress, mech = nullspace_bases(f)
    assert (stress.shape[0], mech.shape[0]) == (0, 0)


@pytest.mark.parametrize("j", [150, 300, 500])
@pytest.mark.parametrize("added, removed", [(0, 0), (1, 0), (0, 1), (3, 2)])
def test_edge_split_graphs_rank_as_the_dense_svd(j, added, removed):
    f = edge_split(2, j, j + added, added=added, removed=removed)
    rank = numeric_rank(build_system(f).C)[0]
    ks = mobility(f)
    assert ks.singular_values.size < f.bar_count
    assert ks.rank == rank
    assert (ks.m, ks.s) == (2 * j - rank - 3, f.bar_count - rank)
    stress, mech = nullspace_bases(f)
    assert (stress.shape[0], mech.shape[0]) == (ks.s, ks.m)


@given(
    d=st.sampled_from([2, 3]),
    j=st.integers(5, 40),
    seed=st.integers(0, 2**32 - 1),
    split_share=st.floats(0.0, 1.0),
    added=st.integers(0, 3),
    removed=st.integers(0, 2),
    share=st.sampled_from([numrank._DENSE_SHARE, 1.0]),
)
@settings(max_examples=150, deadline=None)
def test_elimination_matches_the_dense_reference(d, j, seed, split_share, added, removed, share):
    # with no dense cutoff every core, however small, is eliminated; at
    # share 1.0 no density stops it, so it runs down to the last joint
    f = edge_split(d, j, seed, split_share, added, removed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numrank, "_DENSE_ROWS", 0)
        mp.setattr(numrank, "_DENSE_SHARE", share)
        assert_matches_the_dense_reference(f)


def assert_matches_the_dense_reference(f):
    """mobility's rank and both bases of nullspace_bases equal those of
    oracles.dense_reference, the bases as projectors."""
    rank, stress_ref, mech_ref = dense_reference(f)
    ks = mobility(f)
    stress, mech = nullspace_bases(f)
    assert ks.rank == rank
    assert (ks.s, ks.m) == (len(stress), len(mech)) == (len(stress_ref), len(mech_ref))
    # rounding moves a null space by about 1e-15 over the smallest kept
    # singular value of C; above 1e-6 that is the 1e-9 asked for
    gap = np.linalg.svd(build_system(f).C, compute_uv=False)[rank - 1] if rank else 1.0
    tol = max(1e-9, 1e-15 / gap)
    assert np.abs(stress.T @ stress - stress_ref.T @ stress_ref).max(initial=0.0) < tol
    assert np.abs(mech.T @ mech - mech_ref.T @ mech_ref).max(initial=0.0) < tol
    return ks


@pytest.mark.parametrize("added, removed", [(0, 0), (1, 0), (0, 1)])
@pytest.mark.parametrize("d, j, split_share", [(2, 400, 0.5), (3, 200, 0.8)])
def test_peeled_and_eliminated_joints_together_match_the_dense_reference(
    d, j, split_share, added, removed
):
    # at the default cutoffs the peel sets a few joints aside and the
    # elimination most of the core, and the back-substitution crosses
    # both; a bar added makes a self-stress, a bar removed a mechanism,
    # so that the bases compared are not empty
    f = edge_split(d, j, 7, split_share, added, removed)
    floor = max(1e-3, DEFAULT_RANK_TOL**0.5)
    peeled = len(numrank._peel(f, build_system(f), floor)[0])
    ks = assert_matches_the_dense_reference(f)
    assert peeled >= 1
    assert ks.peeled_joints - peeled >= 1


def test_a_refused_joint_stays_in_the_remainder(monkeypatch):
    # joint v and its three neighbours sit on one line: v's 3 x 2 block
    # has rank 1, so elimination, run to the end, leaves v to the SVD
    f = edge_split(2, 60, 3)
    degree = np.bincount(f.ends.ravel())
    v = int(np.argmin(degree))
    ends = f.ends[(f.ends == v).any(axis=1)]
    assert degree[v] == len(ends) == 3
    coords = f.coordinates.copy()
    for t, w in zip((-1.3, 0.7, 1.9), ends.sum(axis=1) - v):
        coords[w] = coords[v] + t * np.array([0.6, 0.8])
    f = iso.new_framework(2, coords.tolist(), f.ends.tolist())
    monkeypatch.setattr(numrank, "_DENSE_ROWS", 0)
    monkeypatch.setattr(numrank, "_DENSE_SHARE", 1.0)
    system = build_system(f)
    elim = numrank._Elimination(system, numrank._peel(f, system, 1e-3), 1e-3, keep=False)
    assert v in elim.joints
    rank, stress_ref, mech_ref = dense_reference(f)
    ks = mobility(f)
    stress, mech = nullspace_bases(f)
    assert ks.rank == rank
    assert (len(stress), len(mech)) == (len(stress_ref), len(mech_ref))


def test_elimination_sets_aside_joints_without_rows(monkeypatch):
    # joint 2 has no row, and joint 1 has none left once joint 0 has
    # taken the one bar: each adds nothing to the rank, d directions to
    # the kernel.  The peel handed in sets nothing aside, and neither the
    # dense cutoff nor density stops this elimination.
    monkeypatch.setattr(numrank, "_DENSE_ROWS", 0)
    monkeypatch.setattr(numrank, "_DENSE_SHARE", 1.0)
    ends, units = np.array([[0, 1]]), np.array([[0.6, 0.8]])
    system = numrank.EquilibriumSystem(ends, units, np.ones(1), 3)
    elim = numrank._Elimination(system, ((), (), (True,)), 1e-3, keep=True)
    assert (elim.set_aside, elim.pivots, elim.rows.tolist()) == (3, 1, [])
    assert [step[0] for step in elim.steps] == [2, 0, 1]
    assert [len(step[3]) for step in elim.steps] == [2, 1, 2]
    kernel = elim.kernel(np.zeros((0, 0)), 5)
    C = system.C
    assert np.linalg.matrix_rank(kernel) == 5
    assert np.abs(C @ kernel.T).max() < 1e-15
    assert elim.stresses(np.zeros((0, 0))).shape == (0, 1)


def test_a_wrong_kernel_is_refused_when_no_mechanism_is_left(monkeypatch):
    # the peeled steps' back-substitution with the wrong sign extends the
    # kernel wrongly over the 3 peeled joints; m = 0, so no mechanism row
    # is left to show it, and only the whole kernel's residual can
    back = numrank._back

    def flipped(R, X):
        W, new = back(R, X)
        return (-W if R.ndim == 3 else W), new  # the stacked peeled steps only

    f = edge_split(2, 400, 7, 0.5)
    assert mobility(f).m == 0
    monkeypatch.setattr(numrank, "_back", flipped)
    with pytest.raises(InternalInconsistency, match="kernel residual"):
        nullspace_bases(f)


def test_no_large_svd_and_no_dense_c_on_the_twisted_icosahedron(monkeypatch):
    # nothing peels (210 bars on 72 joints): the parent ranked all of C by
    # one full SVD, and the elimination leaves it a small remainder
    def refuse(system):
        raise AssertionError("the dense compatibility matrix was formed")

    f = iso.twisted_cap_all_faces(iso.platonic("icosahedron"))
    monkeypatch.setattr(numrank.EquilibriumSystem, "C", property(refuse))
    shapes = _count_calls(monkeypatch, "svd", np.linalg)
    ks = mobility(f)
    stress, mech = nullspace_bases(f)
    assert (f.joint_count, f.bar_count, ks.m, ks.s) == (72, 210, 0, 0)
    assert (stress.shape, mech.shape) == ((0, 210), (0, 216))
    assert 0 < ks.peeled_joints < 72
    assert shapes and max(np.shape(args[0])[0] for args in shapes) <= 64


def test_collinear_degree_two_joint_is_not_peeled():
    # a braced quadrilateral (every joint of degree 3) and joint 4, hung on
    # joints 0 and 1 by two bars: it is the only joint that could peel
    quad = [(0.0, 0.0), (2.0, 0.0), (2.2, 1.7), (-0.1, 1.5)]
    bars = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3), (0, 4), (1, 4)]
    for apex, peeled, counts in (((1.0, 0.0), 0, (6, 1, 2)), ((0.9, -1.3), 1, (7, 0, 1))):
        f = iso.new_framework(2, quad + [apex], bars)
        ks = mobility(f)
        assert ks.peeled_joints == peeled
        # on the line through 0 and 1 the two bars are parallel, and the
        # SVD of the core sees the rank drop that a dense SVD sees
        exact = exact_rigidity_rank(to_fractions(f), f.ends.tolist())
        assert ks.rank == numeric_rank(build_system(f).C)[0] == exact
        assert (ks.rank, ks.m, ks.s) == counts
        stress, mech = nullspace_bases(f)
        assert (mech.shape[0], stress.shape[0]) == (ks.m, ks.s)


def flat_henneberg(d, j, seed, flat_share, extra):
    """Vertex additions from a d-simplex: each new joint joins d earlier
    ones, and with probability flat_share sits on the line (d = 2) or
    plane (d = 3) through them, so its bars cannot all peel with it.
    Then `extra` further bars between random joints."""
    rng = np.random.default_rng(seed)
    coords = list(rng.uniform(-1.0, 1.0, (d + 1, d)))
    bars = {(u, v) for v in range(d + 1) for u in range(v)}
    for w in range(d + 1, j):
        parents = sorted(rng.choice(w, d, replace=False).tolist())
        if rng.random() < flat_share:
            base = coords[parents[0]]
            t = rng.uniform(-1.5, 2.5, d - 1)
            coords.append(base + sum(t[i] * (coords[p] - base) for i, p in enumerate(parents[1:])))
        else:
            coords.append(rng.uniform(-1.0, 1.0, d))
        bars.update((p, w) for p in parents)
    for _ in range(extra):
        u, v = sorted(rng.choice(j, 2, replace=False).tolist())
        bars.add((u, v))
    return iso.new_framework(d, np.array(coords).tolist(), sorted(bars))


@given(
    d=st.sampled_from([2, 3]),
    j=st.integers(5, 40),
    seed=st.integers(0, 2**32 - 1),
    flat_share=st.sampled_from([0.0, 0.3, 1.0]),
    extra=st.integers(0, 4),
    floor=st.sampled_from([max(1e-3, DEFAULT_RANK_TOL**0.5), 0.3]),
)
@settings(max_examples=150, deadline=None)
def test_batched_peel_matches_the_per_joint_peel(d, j, seed, flat_share, extra, floor):
    f = flat_henneberg(d, j, seed, flat_share, extra)
    system = build_system(f)
    assert numrank._peel(f, system, floor) == peel_per_joint(system, d, floor)


def _count_calls(monkeypatch, name, *owners):
    """Calls of the function `name`, through any of the owners' references."""
    calls = []
    for owner in owners:
        real = getattr(owner, name)

        def counted(*args, real=real, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_conditioning_is_tested_once_per_block_size(monkeypatch):
    # every joint of the chain peels: one peel, one test per size k = 2..d
    f = planar_chain(2000)
    system = build_system(f)
    eig = _count_calls(monkeypatch, "eigvalsh", np.linalg)
    peels = _count_calls(monkeypatch, "peel_low_degree", core, numrank)
    order, _, _ = numrank._peel(f, system, 1e-3)
    assert len(order) == 2000
    assert len(eig) <= 1  # d - 1, with d = 2
    assert len(peels) == 1


def test_refused_joint_reruns_the_peel_joint_by_joint(monkeypatch):
    # joint 5 sits on the line through its two neighbours: the first
    # peel's blocks fail, and the rerun tries each joint as it comes
    f = planar_chain(10)
    coords = f.coordinates.copy()
    coords[5] = 2 * coords[4] - coords[3]
    f = iso.new_framework(2, coords.tolist(), f.ends.tolist())
    system = build_system(f)
    peels = _count_calls(monkeypatch, "peel_low_degree", core, numrank)
    got = numrank._peel(f, system, 1e-3)
    assert len(peels) == 2
    assert got == peel_per_joint(system, 2, 1e-3)
    assert got[0] != numrank.peel_low_degree(system.joint_count, *system.ends.T.tolist(), 2)[0]


def test_loose_tolerance_keeps_the_exact_rank_of_a_chain():
    # the chain's smallest singular value is ~1e-3 of its largest: an SVD
    # of all of C at 1e-2 drops three, the peel counts every joint exactly
    f = planar_chain(120)
    ks = mobility(f, tol=1e-2)
    assert ks.peeled_joints == 120
    assert (ks.rank, ks.m, ks.s) == (237, 0, 0)
    assert numeric_rank(build_system(f).C, 1e-2)[0] < 237
    # at 1e-3 and below the two agree
    for tol in (1e-3, 1e-6, DEFAULT_RANK_TOL):
        assert mobility(f, tol).rank == numeric_rank(build_system(f).C, tol)[0] == 237
    stress, mech = nullspace_bases(f, tol=1e-2)
    assert (stress.shape[0], mech.shape[0]) == (0, 0)


def test_build_system_matches_the_row_definition(banana):
    sys_ = build_system(banana)
    coords = banana.coordinates
    for k, (u, v) in enumerate(banana.ends.tolist()):
        diff = coords[u] - coords[v]
        row = np.zeros(3 * banana.joint_count)
        row[3 * u : 3 * u + 3] = diff / np.linalg.norm(diff)
        row[3 * v : 3 * v + 3] = -diff / np.linalg.norm(diff)
        assert np.allclose(sys_.C[k], row, atol=1e-15)
        assert sys_.lengths[k] == pytest.approx(np.linalg.norm(diff))


def test_the_peel_runs_once_per_framework(monkeypatch):
    # mobility, the basis path and the pebble game all read f.peel(2)
    peels = _count_calls(monkeypatch, "peel_low_degree", core, numrank)
    f = flat_henneberg(2, 40, 1, 0.0, 1)
    ks = mobility(f)
    stress, mech = nullspace_bases(f)
    iso.pebble_game_2_3(f)
    assert (stress.shape[0], mech.shape[0]) == (ks.s, ks.m)
    assert len(peels) == 1


def test_an_empty_core_skips_the_power_iteration(monkeypatch):
    # with every joint peeled no singular value is left to rank
    calls = _count_calls(monkeypatch, "_largest_singular_value", numrank)
    ks = mobility(planar_chain(200))
    assert (ks.peeled_joints, ks.rank) == (200, 2 * 200 - 3)
    assert calls == []
    ks = mobility(flat_henneberg(2, 40, 1, 0.0, 1))
    assert 0 < ks.peeled_joints < 40
    assert len(calls) == 1


def test_no_dense_compatibility_matrix_on_a_peeled_input(monkeypatch):
    def refuse(system):
        raise AssertionError("the dense compatibility matrix was formed")

    f = flat_henneberg(3, 30, 3, 0.0, 2)
    monkeypatch.setattr(numrank.EquilibriumSystem, "C", property(refuse))
    ks = mobility(f)
    assert ks.peeled_joints > 0
    stress, mech = nullspace_bases(f)
    assert (stress.shape[0], mech.shape[0]) == (ks.s, ks.m) == (2, 0)


def test_nullspace_bases_memory_is_linear_in_the_bars():
    # a j=2000 vertex-addition framework plus one bar: its dense C alone
    # would take 3998 x 4000 floats, 122 MiB
    f = flat_henneberg(2, 2000, 7, 0.0, 1)
    tracemalloc.start()
    try:
        stress, mech = nullspace_bases(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (f.bar_count, stress.shape[0], mech.shape[0]) == (3998, 1, 0)
    assert peak < 8 * 2**20


def peelable(d, j, seed, removed, extra, isolated):
    """A vertex-addition framework in general position, less `removed`
    bars, plus `extra` bars and `isolated` joints with no bars."""
    f = flat_henneberg(d, j, seed, 0.0, extra)
    rng = np.random.default_rng([seed, 1])
    bars = f.ends.tolist()
    for _ in range(removed):
        bars.pop(int(rng.integers(len(bars))))
    coords = np.vstack([f.coordinates, rng.uniform(-1.0, 1.0, (isolated, d))])
    return iso.new_framework(d, coords.tolist(), bars)


@given(
    d=st.sampled_from([2, 3]),
    j=st.integers(4, 30),
    seed=st.integers(0, 2**32 - 1),
    removed=st.integers(0, 2),
    extra=st.integers(0, 3),
    isolated=st.integers(0, 2),
)
@settings(max_examples=100, deadline=None)
def test_stacked_kernel_matches_the_per_joint_kernel(d, j, seed, removed, extra, isolated):
    # no core here has more than _DENSE_ROWS bars: every joint set aside
    # is peeled, and the remainder is the core
    f = peelable(d, j, seed, removed, extra, isolated)
    system = build_system(f)
    floor = max(1e-3, DEFAULT_RANK_TOL**0.5)
    peel = numrank._peel(f, system, floor)
    elim = numrank._Elimination(system, peel, floor, keep=True)
    rank = mobility(f).rank
    core_null = np.linalg.svd(elim.remainder(), full_matrices=True)[2][rank - elim.pivots :]
    got = elim.kernel(core_null, d * f.joint_count - rank)
    want = kernel_per_joint(system, peel, core_null)
    assert got.shape == want.shape == (d * f.joint_count - rank, d * f.joint_count)
    assert np.abs(got.T @ got - want.T @ want).max() < 1e-9
