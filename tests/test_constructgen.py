"""Fixture builders and symmetric capping constructions."""

from __future__ import annotations

import itertools
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import isoframe
from isoframe.constructgen import (
    _faces,
    _stellation_height,
    all_faces,
    cap_all_faces_symmetric,
    cap_face,
    counterexample_2d,
    double_banana,
    fig2_examples,
    hat_stack,
    platonic,
    twisted_cap_all_faces,
)
from isoframe.core import maxwell_count, new_framework
from isoframe.errors import DegenerateFace, DegenerateTwist, NotOnThreefoldAxis
from isoframe.numrank import mobility
from isoframe.symdetect import detect_point_group


@pytest.mark.parametrize(
    "name,j,b,faces,label",
    [
        ("tetrahedron", 4, 6, 4, "Td"),
        ("octahedron", 6, 12, 8, "Oh"),
        ("icosahedron", 12, 30, 20, "Ih"),
    ],
)
def test_platonic_solids(name, j, b, faces, label):
    f = platonic(name)
    assert (f.joint_count, f.bar_count) == (j, b)
    assert maxwell_count(f) == 0
    assert len(all_faces(f)) == faces
    assert detect_point_group(f).schoenflies == label
    lengths = {
        round(float(np.linalg.norm(f.coordinates[u] - f.coordinates[v])), 9)
        for u, v in f.ends.tolist()
    }
    assert len(lengths) == 1  # every edge of a platonic solid is congruent


def test_platonic_unknown_name():
    with pytest.raises(ValueError):
        platonic("cube")


def test_all_faces_are_3_cliques(octahedron):
    faces = all_faces(octahedron)
    have = set(map(tuple, octahedron.ends.tolist()))
    for fa in faces:
        i, j, k = fa
        assert i < j < k
        assert {(i, j), (i, k), (j, k)} <= have
    assert len(set(faces)) == len(faces)


def test_cap_face_is_a_vertex_addition(tetrahedron):
    capped = cap_face(tetrahedron, (0, 1, 2), 0.9)
    assert (capped.joint_count, capped.bar_count) == (5, 9)
    assert maxwell_count(capped) == 0
    summary = mobility(capped)
    assert (summary.mechanisms, summary.self_stresses) == (0, 0)
    assert detect_point_group(capped).schoenflies == "C3v"
    # original joints and bars are untouched
    assert np.allclose(capped.coordinates[:4], tetrahedron.coordinates)
    assert capped.ends.tolist()[:6] == tetrahedron.ends.tolist()


def test_cap_face_rejects_bad_input(octahedron, tetrahedron):
    non_face = next(
        trio
        for trio in itertools.combinations(range(6), 3)
        if trio not in set(all_faces(octahedron))
    )
    with pytest.raises(DegenerateFace):
        cap_face(octahedron, non_face, 0.5)
    with pytest.raises(DegenerateFace):
        cap_face(tetrahedron, (0, 0, 1), 0.5)
    with pytest.raises(DegenerateFace):
        cap_face(tetrahedron, (0, 1, 9), 0.5)
    with pytest.raises(DegenerateFace):
        cap_face(tetrahedron, (0, 1, 2), 0.0)


def test_stellation_heights_frozen(tetrahedron, octahedron, icosahedron):
    # octahedron: adjacent planes meet at 2/sqrt(3) above each face,
    # the stella octangula apex; icosahedron: a shallow spike; the
    # tetrahedron has no usable meeting point (the planes meet behind
    # the face, at the opposite vertex).  _stellation_height answers in
    # unit_scaled units; height() turns that back into model units
    def height(f):
        t = _faces(f, all_faces(f))
        h = _stellation_height(t)
        return None if h is None else math.ldexp(h, t.exp)

    assert height(tetrahedron) is None
    assert height(octahedron) == pytest.approx(2 / math.sqrt(3), abs=1e-12)
    assert height(icosahedron) == pytest.approx(0.2714863789094012, abs=1e-12)


def test_capping_and_ranking_do_not_import_numpy_ma():
    # numpy.ma costs a fresh process tens of milliseconds to import, and
    # np.median, np.setdiff1d and a bare np.unique import it when called
    src = str(pathlib.Path(isoframe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import sys\n"
        "from isoframe.constructgen import cap_all_faces_symmetric, platonic\n"
        "from isoframe.numrank import mobility\n"
        "f = cap_all_faces_symmetric(platonic('icosahedron'))\n"
        "print(f.joint_count, mobility(f).mechanisms, 'numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["32", "0", "False"]


def test_stellated_apexes_sit_on_adjacent_planes(octahedron):
    faces = all_faces(octahedron)
    st = cap_all_faces_symmetric(octahedron)
    t = _faces(octahedron, faces)
    assert t.across is not None
    for idx in range(len(faces)):
        apex = st.coordinates[octahedron.joint_count + idx]
        for g in t.across[idx]:
            normal, offset = t.normal[g], math.ldexp(float(t.normal[g] @ t.centre[g]), t.exp)
            assert abs(float(normal @ apex) - offset) < 1e-9


@pytest.mark.parametrize(
    "name,j,b,label,order",
    [
        ("tetrahedron", 8, 18, "Td", 24),
        ("octahedron", 14, 36, "Oh", 48),
        ("icosahedron", 32, 90, "Ih", 120),
    ],
)
def test_cap_all_faces_preserves_group(name, j, b, label, order):
    f = platonic(name)
    st = cap_all_faces_symmetric(f)
    assert (st.joint_count, st.bar_count) == (j, b)
    assert maxwell_count(st) == 0
    g = detect_point_group(st)
    assert (g.schoenflies, g.order) == (label, order)
    summary = mobility(st)
    assert (summary.mechanisms, summary.self_stresses) == (0, 0)


def test_cap_all_faces_explicit_height(octahedron):
    st = cap_all_faces_symmetric(octahedron, height=0.45)
    assert st.joint_count == 14
    g = detect_point_group(st)
    assert (g.schoenflies, g.order) == ("Oh", 48)
    summary = mobility(st)
    assert (summary.mechanisms, summary.self_stresses) == (0, 0)


def test_cap_all_faces_refuses_a_flat_height(octahedron):
    # a height within 1e-9 of the diameter puts every apex in its face
    # plane: flat caps (octahedron: m = s = 8), refused as cap_face does
    for h in (0.0, 1e-10, -1e-10):
        with pytest.raises(DegenerateFace, match="in the plane of face"):
            cap_all_faces_symmetric(octahedron, height=h)


def test_cap_all_faces_needs_faces():
    square = fig2_examples("C1")
    with pytest.raises(ValueError):
        cap_all_faces_symmetric(square)  # 2D input has no 3D faces


@pytest.mark.parametrize(
    "name,j,b,label,order",
    [
        ("tetrahedron", 16, 42, "T", 12),
        ("octahedron", 30, 84, "O", 24),
        ("icosahedron", 72, 210, "I", 60),
    ],
)
def test_twisted_caps_keep_rotations_only(name, j, b, label, order):
    f = platonic(name)
    tw = twisted_cap_all_faces(f)
    assert (tw.joint_count, tw.bar_count) == (j, b)
    assert maxwell_count(tw) == 0
    g = detect_point_group(tw)
    assert (g.schoenflies, g.order) == (label, order)
    # the twist is chiral: every surviving operation is a rotation
    assert {op.kind for op in g.elements} == {"E", "C"}


def test_twisted_octahedron_is_isostatic(octahedron):
    tw = twisted_cap_all_faces(octahedron)
    summary = mobility(tw)
    assert (summary.mechanisms, summary.self_stresses) == (0, 0)


def test_twist_angle_wraps_mod_120_degrees(octahedron):
    # a full extra 120 degrees relabels each lifted triangle cyclically
    # but the geometric result is the same point set and bar lengths
    a = twisted_cap_all_faces(octahedron, twist_angle=math.radians(25.0))
    b = twisted_cap_all_faces(
        octahedron, twist_angle=math.radians(25.0) + 2 * math.pi / 3
    )

    def point_set(f):
        return sorted(tuple(round(float(x), 9) for x in p) for p in f.coordinates)

    def length_multiset(f):
        return sorted(
            round(float(np.linalg.norm(f.coordinates[u] - f.coordinates[v])), 9)
            for u, v in f.ends.tolist()
        )

    assert point_set(a) == point_set(b)
    assert length_multiset(a) == length_multiset(b)


@pytest.mark.parametrize(
    "angle", [0.0, math.pi / 3, 2 * math.pi / 3, -math.pi / 3, math.pi]
)
def test_degenerate_twists_rejected(octahedron, angle):
    with pytest.raises(DegenerateTwist):
        twisted_cap_all_faces(octahedron, twist_angle=angle)


def test_hat_stack_zero_is_identity(tetrahedron):
    assert hat_stack(tetrahedron, (0, 1, 2), 0) is tetrahedron


def test_hat_stack_grows_along_the_axis(tetrahedron):
    stacked = hat_stack(tetrahedron, (0, 1, 2), 3)
    assert (stacked.joint_count, stacked.bar_count) == (7, 15)
    assert maxwell_count(stacked) == 0
    g = detect_point_group(stacked)
    assert (g.schoenflies, g.order) == ("C3v", 6)
    summary = mobility(stacked)
    assert (summary.mechanisms, summary.self_stresses) == (0, 0)
    # each new joint ties to the three original corners at strictly
    # increasing distance from the face
    base = tetrahedron.coordinates[[0, 1, 2]]
    centroid = base.mean(axis=0)
    normal = np.cross(base[1] - base[0], base[2] - base[0])
    normal /= np.linalg.norm(normal)
    heights = [
        abs(float((stacked.coordinates[4 + i] - centroid) @ normal))
        for i in range(3)
    ]
    assert heights == sorted(heights)
    assert len(set(round(h, 9) for h in heights)) == 3
    new_bars = list(map(tuple, stacked.ends.tolist()))[6:]
    assert new_bars == [(i, 4 + s) for s in range(3) for i in (0, 1, 2)]


def test_hat_stack_requires_threefold_axis(tetrahedron):
    capped = cap_face(tetrahedron, (0, 1, 2), 0.9)
    side = next(fa for fa in all_faces(capped) if 4 in fa)
    with pytest.raises(NotOnThreefoldAxis):
        hat_stack(capped, side, 1)


def test_hat_stack_refuses_face_centred_on_axis_but_not_turned_onto_itself():
    # three C3 orbits in z = 0; the triangle (0, 3, 6) has its centroid on
    # the axis and its normal along it, but the C3 turns it onto (1, 4, 7)
    rot = np.array([[-0.5, -math.sqrt(3) / 2], [math.sqrt(3) / 2, -0.5]])
    points = []
    for seed in ((1.0, 0.0), (-0.2, 1.3), (-0.8, -1.3)):
        p = np.array(seed)
        for _ in range(3):
            points.append((float(p[0]), float(p[1]), 0.0))
            p = rot @ p
    points.append((0.0, 0.0, 1.5))
    bars = [(i, i + 3) for i in range(3)] + [(i + 3, i + 6) for i in range(3)]
    bars += [(i, i + 6) for i in range(3)] + [(i, 9) for i in range(9)]
    f = new_framework(3, points, bars)
    assert detect_point_group(f).schoenflies == "C3"
    assert (f.joint_count, f.bar_count) == (10, 18)
    with pytest.raises(NotOnThreefoldAxis):
        hat_stack(f, (0, 3, 6), 2)


def test_hat_stack_parameter_validation(tetrahedron):
    with pytest.raises(ValueError):
        hat_stack(tetrahedron, (0, 1, 2), -1)
    with pytest.raises(ValueError):
        hat_stack(tetrahedron, (0, 1, 2), 2, first_height=0.0)
    with pytest.raises(ValueError):
        hat_stack(tetrahedron, (0, 1, 2), 2, step=-0.5)


_FIG2_COUNTS = {
    "C1": (5, 7),
    "C2": (6, 9),
    "C3": (6, 9),
    "Cs_perp": (6, 9),
    "Cs_in": (6, 9),
    "C2v": (8, 13),
    "C3v_perp": (6, 9),
    "C3v_in": (12, 21),
}


@pytest.mark.parametrize("key", sorted(_FIG2_COUNTS))
def test_fig2_fixture_counts(key):
    f = fig2_examples(key)
    assert (f.joint_count, f.bar_count) == _FIG2_COUNTS[key]
    assert maxwell_count(f) == 0
    summary = mobility(f)
    assert (summary.mechanisms, summary.self_stresses) == (0, 0)


_COUNTEREXAMPLE_OFFSETS = {
    # bars minus the tight count 2j - 3: only C6 can sit exactly on it
    "C4": (8, 14, 1),
    "C5": (10, 15, -2),
    "C6": (12, 21, 0),
    "C4v": (8, 12, -1),
}


@pytest.mark.parametrize("key", sorted(_COUNTEREXAMPLE_OFFSETS))
def test_counterexample_counts(key):
    j, b, offset = _COUNTEREXAMPLE_OFFSETS[key]
    f = counterexample_2d(key)
    assert (f.joint_count, f.bar_count) == (j, b)
    assert b - (2 * j - 3) == offset
    assert detect_point_group(f).schoenflies == key


def test_double_banana_fixture(banana):
    assert (banana.joint_count, banana.bar_count) == (8, 18)
    assert maxwell_count(banana) == 0
    assert detect_point_group(banana).schoenflies == "C1"


def test_unknown_fixture_keys():
    with pytest.raises(ValueError, match="C3v_in"):
        fig2_examples("C7")
    with pytest.raises(ValueError, match="C4v"):
        counterexample_2d("C3")


@pytest.mark.parametrize("scale", [1e-160, 1e-7, 1e7, 1e160, 1e300])
def test_constructions_do_not_depend_on_scale(octahedron, scale):
    scaled = new_framework(
        3, octahedron.coordinates * scale, octahedron.ends.tolist()
    )
    builds = [
        lambda f, s: cap_face(f, (0, 2, 4), 0.5 * s),
        lambda f, s: cap_all_faces_symmetric(f),
        lambda f, s: twisted_cap_all_faces(f),
        lambda f, s: hat_stack(f, (0, 2, 4), 2),
    ]
    for build in builds:
        a, b = build(octahedron, 1.0), build(scaled, scale)
        ga, gb = detect_point_group(a), detect_point_group(b)
        assert (b.joint_count, b.bar_count, gb.schoenflies, gb.order) == (
            a.joint_count,
            a.bar_count,
            ga.schoenflies,
            ga.order,
        )


@pytest.mark.parametrize(
    "build,name",
    [
        (lambda f: cap_face(f, (0, 2, 4), 1e150), "apex height"),
        (lambda f: cap_all_faces_symmetric(f, height=1e150), "cap height"),
        (lambda f: twisted_cap_all_faces(f, height=1e150), "cap height"),
        (lambda f: hat_stack(f, (0, 2, 4), 2, first_height=1e150), "first height"),
        (lambda f: hat_stack(f, (0, 2, 4), 2, step=1e150), "step"),
    ],
    ids=["cap_face", "cap_all_faces_symmetric", "twisted_cap_all_faces", "hat_first", "hat_step"],
)
def test_a_height_past_float_range_is_refused_without_a_warning(octahedron, build, name):
    # 1e150 over coordinates of 1e-160 does not fit a float in the face
    # table's units
    tiny = new_framework(3, octahedron.coordinates * 1e-160, octahedron.ends.tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFace, match=f"^{name} 1e\\+150 is too large for a framework"):
            build(tiny)
