"""Generators for isostatic fixtures and count-preserving constructions.

Seeds: the triangulated platonic solids and a gallery of small 2D
frameworks, one per admissible plane symmetry group, plus near-miss
fixtures for the inadmissible groups.  Constructions: capping a
triangular face with one apex (a vertex addition), capping every face
at a common height (preserves the full group), capping every face with
a twisted triangle (preserves only the rotations), and stacking joints
along a threefold axis.  Each construction adds three bars per new
joint, so the scalar count is preserved exactly; that is asserted on
every call.
"""

from __future__ import annotations

import itertools
import math
import statistics

import numpy as np

from .chartables import _rot2
from .core import Framework, maxwell_count, new_framework
from .errors import (
    DegenerateFace,
    DegenerateTwist,
    InternalInconsistency,
    NotOnThreefoldAxis,
)
from .symdetect import detect_point_group

DEFAULT_TWIST = math.radians(20.0)
HEIGHT_FACTOR = 0.8

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


Face = tuple[int, int, int]  # an ordered triple of joint ids whose three edges are bars


def _as_face(f: Framework, face: Face) -> Face:
    """face as a tuple, once it is checked to be a triangle of f with area."""
    if f.dimension != 3:
        raise ValueError("face constructions apply to 3D frameworks only")
    ids = tuple(face)
    if len(ids) != 3 or len(set(ids)) != 3:
        raise DegenerateFace(f"face {ids} is not three distinct joints")
    for i in ids:
        if not (0 <= i < f.joint_count):
            raise DegenerateFace(f"face joint {i} does not exist")
    for u, v in itertools.combinations(ids, 2):
        if not f.has_bar(u, v):
            raise DegenerateFace(f"face edge ({u}, {v}) is not a bar")
    p = f.coordinates[list(ids)]
    area2 = float(np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0])))
    if area2 <= 1e-12 * f.diameter() ** 2:
        raise DegenerateFace(f"face {ids} has no area")
    return ids


def _face_frame(
    f: Framework, face: Face
) -> tuple[np.ndarray, np.ndarray, float]:
    """Centroid, outward unit normal and circumradius of a face."""
    p = f.coordinates[list(face)]
    fc = p.mean(axis=0)
    n = np.cross(p[1] - p[0], p[2] - p[0])
    n = n / np.linalg.norm(n)
    outward = fc - f.centroid()
    side = float(n @ outward)
    if abs(side) > 1e-9 * f.diameter():
        if side < 0:
            n = -n
    else:
        # face plane passes through the centre; fix the sign by the
        # first nonzero component so repeated runs agree
        for comp in n:
            if abs(comp) > 1e-7:
                if comp < 0:
                    n = -n
                break
    a = float(np.linalg.norm(p[1] - p[2]))
    b = float(np.linalg.norm(p[0] - p[2]))
    c = float(np.linalg.norm(p[0] - p[1]))
    area = float(np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]))) / 2.0
    circum = a * b * c / (4.0 * area)
    return fc, n, circum


def all_faces(f: Framework) -> tuple[Face, ...]:
    """Every triangle of the framework, as sorted id triples."""
    if f.dimension != 3:
        raise ValueError("face constructions apply to 3D frameworks only")
    ends = f.ends.tolist()
    adj: list[set[int]] = [set() for _ in range(f.joint_count)]
    for u, v in ends:
        adj[u].add(v)
        adj[v].add(u)
    faces = []
    for u, v in ends:
        for w in sorted(adj[u] & adj[v]):
            if w > v:
                faces.append((u, v, w))
    return tuple(sorted(faces))


def _append(
    f: Framework,
    new_positions: list[np.ndarray],
    new_pairs: list[tuple[int, int]],
) -> Framework:
    """f with the new joints and bars after its own, checked by new_framework."""
    positions = np.concatenate((f.coordinates, np.reshape(new_positions, (-1, f.dimension))))
    ends = np.concatenate((f.ends, np.array(new_pairs, dtype=np.int64).reshape(-1, 2)))
    result = new_framework(f.dimension, positions, ends)
    if maxwell_count(result) != maxwell_count(f):
        raise InternalInconsistency(
            "a construction changed the scalar count from "
            f"{maxwell_count(f)} to {maxwell_count(result)}"
        )
    return result


def platonic(name: str) -> Framework:
    """Tetrahedron, octahedron or icosahedron with standard coordinates."""
    key = name.strip().lower()
    if key == "tetrahedron":
        pts = [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)]
        expect = (4, 6)
    elif key == "octahedron":
        pts = [
            (1.0, 0.0, 0.0),
            (-1.0, 0.0, 0.0),
            (0.0, 1.0, 0.0),
            (0.0, -1.0, 0.0),
            (0.0, 0.0, 1.0),
            (0.0, 0.0, -1.0),
        ]
        expect = (6, 12)
    elif key == "icosahedron":
        s = 1.0 / math.sqrt(1.0 + _GOLDEN * _GOLDEN)
        pts = []
        for a, b in itertools.product((1.0, -1.0), repeat=2):
            pts.append((0.0, a * s, b * _GOLDEN * s))
            pts.append((a * s, b * _GOLDEN * s, 0.0))
            pts.append((a * _GOLDEN * s, 0.0, b * s))
        expect = (12, 30)
    else:
        raise ValueError(
            f"unknown solid {name!r}; choose tetrahedron, octahedron "
            "or icosahedron"
        )
    arr = np.asarray(pts)
    d2 = ((arr[:, None, :] - arr[None, :, :]) ** 2).sum(axis=2)
    off = d2[d2 > 0.0]
    edge2 = off.min()
    pairs = [
        (i, j)
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
        if d2[i, j] <= edge2 * (1.0 + 1e-9)
    ]
    f = new_framework(3, pts, pairs)
    if (f.joint_count, f.bar_count) != expect:
        raise InternalInconsistency(
            f"{key} came out with {f.joint_count} joints and "
            f"{f.bar_count} bars instead of {expect}"
        )
    return f


def cap_face(
    f: Framework, face: Face, apex_height: float
) -> Framework:
    """Add one joint above a face, tied to its three corners.

    A vertex addition: one joint, three bars, count unchanged.  The
    apex sits on the outward normal through the face centroid; zero
    height would put it in the face plane, which destroys the move.
    """
    fa = _as_face(f, face)
    fc, n, _ = _face_frame(f, fa)
    h = float(apex_height)
    if abs(h) <= 1e-9 * f.diameter():
        raise DegenerateFace(
            f"apex height {h} places the new joint in the plane of "
            f"face {fa}"
        )
    return _append(f, [fc + h * n], [(i, f.joint_count) for i in fa])


def _adjacent_face_planes(
    f: Framework, faces: tuple[Face, ...]
) -> dict[Face, list[tuple[np.ndarray, float]]] | None:
    by_edge: dict[tuple[int, int], list[Face]] = {}
    for fa in faces:
        i, j, k = fa
        for e in ((i, j), (i, k), (j, k)):
            by_edge.setdefault(e, []).append(fa)
    planes: dict[Face, tuple[np.ndarray, float]] = {}
    for fa in faces:
        fc, n, _ = _face_frame(f, fa)
        planes[fa] = (n, float(n @ fc))
    out: dict[Face, list[tuple[np.ndarray, float]]] = {}
    for fa in faces:
        i, j, k = fa
        neighbors = []
        for e in ((i, j), (i, k), (j, k)):
            others = [g for g in by_edge[e] if g != fa]
            if len(others) != 1:
                return None
            neighbors.append(planes[others[0]])
        out[fa] = neighbors
    return out


def _stellation_height(f: Framework, faces: tuple[Face, ...]) -> float | None:
    """Common apex height putting each apex on its neighbors' planes.

    Returns None when the construction degenerates: open boundary, apex
    off the face axis, apex not strictly outward, apex colliding with a
    joint, or unequal heights across faces.
    """
    neighbor_planes = _adjacent_face_planes(f, faces)
    if neighbor_planes is None:
        return None
    diam = f.diameter()
    heights = []
    for fa in faces:
        fc, n, _ = _face_frame(f, fa)
        A = np.array([pl[0] for pl in neighbor_planes[fa]])
        d = np.array([pl[1] for pl in neighbor_planes[fa]])
        if abs(np.linalg.det(A)) < 1e-12:
            return None
        s = np.linalg.solve(A, d)
        rel = s - fc
        h = float(rel @ n)
        lateral = float(np.linalg.norm(rel - h * n))
        if lateral > 1e-8 * diam or h <= 1e-6 * diam:
            return None
        apex = fc + h * n
        gap = np.linalg.norm(f.coordinates - apex, axis=1).min()
        if gap <= 1e-6 * diam:
            return None
        heights.append(h)
    if max(heights) - min(heights) > 1e-8 * diam:
        return None
    # the same float np.median gives, without importing numpy.ma
    return statistics.median(heights)


def cap_all_faces_symmetric(
    f: Framework, height: float | None = None
) -> Framework:
    """Cap every triangular face at one common height.

    Equal heights keep the whole point group; that is re-detected on
    the result and checked.  With no height given, the apexes go to the
    meeting point of the adjacent face planes (the stellation position)
    when that is well defined, else to 0.8 of the face circumradius.
    """
    faces = all_faces(f)
    if not faces:
        raise DegenerateFace("the framework has no triangular faces to cap")
    if height is None:
        h = _stellation_height(f, faces)
        if h is None:
            h = HEIGHT_FACTOR * float(
                np.mean([_face_frame(f, fa)[2] for fa in faces])
            )
    else:
        h = float(height)
    new_positions = []
    new_pairs = []
    base = f.joint_count
    for idx, fa in enumerate(faces):
        fc, n, _ = _face_frame(f, fa)
        new_positions.append(fc + h * n)
        new_pairs.extend((i, base + idx) for i in fa)
    result = _append(f, new_positions, new_pairs)
    before = detect_point_group(f)
    after = detect_point_group(result)
    if (before.schoenflies, before.order) != (after.schoenflies, after.order):
        raise InternalInconsistency(
            f"capping every face changed the group from "
            f"{before.schoenflies} (order {before.order}) to "
            f"{after.schoenflies} (order {after.order})"
        )
    return result


def twisted_cap_all_faces(
    f: Framework,
    twist_angle: float = DEFAULT_TWIST,
    height: float | None = None,
) -> Framework:
    """Replace each face cap with a twisted triangle, killing mirrors.

    Per face: the face triangle is rotated by twist_angle about its
    outward normal, raised by the cap height, and joined to the face in
    the antiprism pattern, i.e. each new joint to its two nearest old
    corners.  That completes a triangular antiprism (an octahedron)
    over every face: 3 joints and 9 bars, count preserved.  A proper
    rotation of the seed commutes with the construction; a reflection
    would flip the twist sign, so only the rotation subgroup survives.
    """
    theta = float(twist_angle)
    period = 2.0 * math.pi / 3.0
    r = theta % period
    if min(r, period - r) < 1e-9 or abs(r - period / 2.0) < 1e-9:
        raise DegenerateTwist(
            f"twist angle {theta} restores mirror symmetry (multiples "
            "of 60 degrees do)"
        )
    faces = all_faces(f)
    if not faces:
        raise DegenerateFace("the framework has no triangular faces to cap")
    diam = f.diameter()
    if height is None:
        h = HEIGHT_FACTOR * float(
            np.mean([_face_frame(f, fa)[2] for fa in faces])
        )
    else:
        h = float(height)
        if h <= 1e-9 * diam:
            raise DegenerateTwist(
                f"cap height {h} places the twisted triangle in the "
                "face plane"
            )
    new_positions: list[np.ndarray] = []
    new_pairs: list[tuple[int, int]] = []
    base = f.joint_count
    for fa in faces:
        fc, n, _ = _face_frame(f, fa)
        K = np.array(
            [
                [0.0, -n[2], n[1]],
                [n[2], 0.0, -n[0]],
                [-n[1], n[0], 0.0],
            ]
        )
        R = np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)
        corners = f.coordinates[list(fa)]
        lifted = [(fc + R @ (p - fc) + h * n) for p in corners]
        first = base + len(new_positions)
        new_positions.extend(lifted)
        trio = [first, first + 1, first + 2]
        new_pairs.extend(
            [(trio[0], trio[1]), (trio[1], trio[2]), (trio[0], trio[2])]
        )
        touch: dict[int, int] = {i: 0 for i in fa}
        for local, q in enumerate(lifted):
            dists = sorted(
                (float(np.linalg.norm(q - corners[c])), fa[c])
                for c in range(3)
            )
            if dists[1][0] > dists[2][0] - 1e-9 * diam:
                raise DegenerateTwist(
                    f"twist angle {theta} leaves the cap over face "
                    f"{fa} without two nearest corners"
                )
            for _, joint in dists[:2]:
                new_pairs.append((joint, trio[local]))
                touch[joint] += 1
        if sorted(touch.values()) != [2, 2, 2]:
            raise DegenerateTwist(
                f"cap over face {fa} does not close into an "
                "antiprism; adjust the twist angle"
            )
    return _append(f, new_positions, new_pairs)


def hat_stack(
    f: Framework,
    axis_face: Face,
    k: int,
    first_height: float | None = None,
    step: float | None = None,
) -> Framework:
    """Stack k joints along the threefold axis through a face.

    Every stacked joint ties to the three corners of the original face,
    at strictly increasing heights, so each is a vertex addition and
    the axis keeps its threefold rotation.
    """
    if k < 0:
        raise ValueError(f"cannot stack {k} hats")
    if k == 0:
        return f
    fa = _as_face(f, axis_face)
    fc, n, circum = _face_frame(f, fa)
    diam = f.diameter()
    # a threefold rotation that turns the face onto itself has its axis
    # through the face's centroid, along its normal
    group = detect_point_group(f)
    if not any(
        op.kind == "C" and op.n == 3 and set(group.joint_perms[x, fa].tolist()) == set(fa)
        for x, op in enumerate(group.elements)
    ):
        raise NotOnThreefoldAxis(
            f"face {fa} is not centred on a threefold axis of the "
            "framework"
        )
    h0 = HEIGHT_FACTOR * circum if first_height is None else float(first_height)
    dh = 0.5 * circum if step is None else float(step)
    if h0 <= 1e-9 * diam or dh <= 1e-9 * diam:
        raise ValueError("hat heights must be positive and increasing")
    base = f.joint_count
    new_positions = [fc + (h0 + i * dh) * n for i in range(k)]
    new_pairs = [(c, base + i) for i in range(k) for c in fa]
    return _append(f, new_positions, new_pairs)


def _orbit2(seed: tuple[float, float], mats: list[np.ndarray]) -> list[tuple[float, float]]:
    p = np.asarray(seed)
    return [tuple(M @ p) for M in mats]


def _build2(points, pairs) -> Framework:
    return new_framework(2, [tuple(map(float, p)) for p in points], pairs)


def _fig2_c1() -> Framework:
    pts = [(0.0, 0.0), (3.1, 0.2), (1.3, 2.7), (4.0, 2.1), (2.2, -1.4)]
    pairs = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)]
    return _build2(pts, pairs)


def _fig2_c2() -> Framework:
    seeds = [(1.0, 0.3), (2.2, 1.1), (0.8, 1.9)]
    pts = seeds + [(-x, -y) for x, y in seeds]
    pairs = [
        (0, 1), (1, 2), (0, 2),
        (3, 4), (4, 5), (3, 5),
        (0, 3),
        (1, 5), (2, 4),
    ]
    return _build2(pts, pairs)


def _fig2_c3() -> Framework:
    mats = [_rot2(2.0 * math.pi * i / 3.0) for i in range(3)]
    pts = _orbit2((2.0, 0.1), mats) + _orbit2((0.9, 0.8), mats)
    pairs = [
        (0, 1), (1, 2), (0, 2),
        (3, 4), (4, 5), (3, 5),
        (0, 3), (1, 4), (2, 5),
    ]
    return _build2(pts, pairs)


def _fig2_cs_perp() -> Framework:
    pts = [
        (1.1, 0.4), (-1.1, 0.4),
        (1.8, 1.7), (-1.8, 1.7),
        (0.6, 2.3), (-0.6, 2.3),
    ]
    pairs = [
        (0, 1),
        (0, 2), (1, 3),
        (2, 4), (3, 5),
        (0, 4), (1, 5),
        (2, 5), (3, 4),
    ]
    return _build2(pts, pairs)


def _fig2_cs_in() -> Framework:
    pts = [
        (0.0, 0.3), (0.0, 1.9),
        (1.2, 0.1), (-1.2, 0.1),
        (0.9, 2.2), (-0.9, 2.2),
    ]
    pairs = [
        (0, 1),
        (0, 2), (0, 3),
        (1, 4), (1, 5),
        (2, 4), (3, 5),
        (2, 5), (3, 4),
    ]
    return _build2(pts, pairs)


def _fig2_c2v() -> Framework:
    pts = [
        (1.4, 0.0), (-1.4, 0.0),
        (0.7, 1.1), (-0.7, 1.1), (0.7, -1.1), (-0.7, -1.1),
        (0.0, 1.9), (0.0, -1.9),
    ]
    pairs = [
        (0, 1),
        (0, 2), (0, 4), (1, 3), (1, 5),
        (2, 6), (3, 6), (4, 7), (5, 7),
        (0, 6), (0, 7), (1, 6), (1, 7),
    ]
    return _build2(pts, pairs)


def _fig2_c3v_perp() -> Framework:
    mats = [_rot2(2.0 * math.pi * i / 3.0) for i in range(3)]
    a = (0.5, 1.6)
    pts = _orbit2(a, mats) + _orbit2((-a[0], a[1]), mats)
    pairs = [
        (0, 1), (1, 2), (0, 2),
        (3, 4), (4, 5), (3, 5),
        (0, 3), (1, 4), (2, 5),
    ]
    return _build2(pts, pairs)


def _fig2_c3v_in() -> Framework:
    mats = [_rot2(2.0 * math.pi * i / 3.0) for i in range(3)]
    g = (0.9, 0.35)
    pts = (
        _orbit2((0.0, 1.0), mats)
        + _orbit2((0.0, 2.1), mats)
        + _orbit2(g, mats)
        + _orbit2((-g[0], g[1]), mats)
    )
    pairs = [
        (0, 3), (1, 4), (2, 5),
        (6, 7), (7, 8), (6, 8),
        (9, 10), (10, 11), (9, 11),
        (0, 6), (1, 7), (2, 8), (0, 9), (1, 10), (2, 11),
        (3, 6), (4, 7), (5, 8), (3, 9), (4, 10), (5, 11),
    ]
    return _build2(pts, pairs)


_FIG2_BUILDERS = {
    "C1": _fig2_c1,
    "C2": _fig2_c2,
    "C3": _fig2_c3,
    "Cs_perp": _fig2_cs_perp,
    "Cs_in": _fig2_cs_in,
    "C2v": _fig2_c2v,
    "C3v_perp": _fig2_c3v_perp,
    "C3v_in": _fig2_c3v_in,
}


def fig2_examples(group: str) -> Framework:
    """A small 2D isostatic framework for each admissible plane group.

    The mirror groups come in two variants: one with a bar centred at
    and perpendicular to each mirror line (suffix _perp), one with a
    bar lying in each mirror line (suffix _in).
    """
    try:
        builder = _FIG2_BUILDERS[group]
    except KeyError:
        raise ValueError(
            f"no fixture named {group!r}; choose one of "
            + ", ".join(sorted(_FIG2_BUILDERS))
        ) from None
    f = builder()
    if maxwell_count(f) != 0:
        raise InternalInconsistency(
            f"fixture {group} has scalar count {maxwell_count(f)}"
        )
    return f


def _ring_pairs(order: list[int]) -> list[tuple[int, int]]:
    return [
        (min(a, b), max(a, b))
        for a, b in zip(order, order[1:] + order[:1])
    ]


def _counterexample_c4() -> Framework:
    mats = [_rot2(math.pi * i / 2.0) for i in range(4)]
    pts = _orbit2((1.9, 0.4), mats) + _orbit2((0.7, 1.2), mats)
    pairs = (
        _ring_pairs([0, 1, 2, 3])
        + _ring_pairs([4, 5, 6, 7])
        + [(0, 4), (1, 5), (2, 6), (3, 7)]
        + [(0, 2), (1, 3)]
    )
    return _build2(pts, pairs)


def _counterexample_c5() -> Framework:
    mats = [_rot2(2.0 * math.pi * i / 5.0) for i in range(5)]
    pts = _orbit2((2.0, 0.3), mats) + _orbit2((0.9, 1.0), mats)
    pairs = (
        _ring_pairs([0, 1, 2, 3, 4])
        + _ring_pairs([5, 6, 7, 8, 9])
        + [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    )
    return _build2(pts, pairs)


def _counterexample_c6() -> Framework:
    mats = [_rot2(math.pi * i / 3.0) for i in range(6)]
    pts = _orbit2((1.7, 0.2), mats) + _orbit2((0.8, 0.55), mats)
    pairs = (
        _ring_pairs([0, 1, 2, 3, 4, 5])
        + _ring_pairs([6, 7, 8, 9, 10, 11])
        + [(i, 6 + i) for i in range(6)]
        + [(0, 3), (1, 4), (2, 5)]
    )
    return _build2(pts, pairs)


def _counterexample_c4v() -> Framework:
    mats = [_rot2(math.pi * i / 2.0) for i in range(4)]
    g = (1.9, 0.4)
    pts = _orbit2(g, mats) + _orbit2((g[0], -g[1]), mats)
    angles = [math.atan2(y, x) % (2 * math.pi) for x, y in pts]
    ring = sorted(range(8), key=lambda i: angles[i])
    pairs = _ring_pairs(ring) + [(0, 2), (1, 3), (4, 6), (5, 7)]
    return _build2(pts, pairs)


_COUNTEREXAMPLE_BUILDERS = {
    "C4": _counterexample_c4,
    "C5": _counterexample_c5,
    "C6": _counterexample_c6,
    "C4v": _counterexample_c4v,
}


def counterexample_2d(group: str) -> Framework:
    """A 2D framework with an inadmissible group, as balanced as parity allows.

    Only the C6 fixture can reach b = 2j - 3: a fourfold or fivefold
    rotation (and the C4v mirrors) force bar orbit sizes whose sum can
    never hit the odd target, so those fixtures land at the nearest
    admissible bar count instead.
    """
    try:
        builder = _COUNTEREXAMPLE_BUILDERS[group]
    except KeyError:
        raise ValueError(
            f"no counterexample named {group!r}; choose one of "
            + ", ".join(sorted(_COUNTEREXAMPLE_BUILDERS))
        ) from None
    return builder()


def double_banana() -> Framework:
    """Two bipyramids sharing their two apex joints.

    The scalar count is zero and every small subgraph passes the count
    screen, yet the two halves spin independently about the shared
    axis: one mechanism, one self-stress.  The standard exhibit of why
    3D counting conditions are not sufficient.
    """
    pts = [
        (0.0, 0.0, 1.8),
        (0.0, 0.0, -1.8),
        (1.2, 0.3, 0.1), (0.7, -0.9, -0.2), (1.6, -0.4, 0.5),
        (-1.1, 0.4, 0.2), (-0.8, -0.7, -0.3), (-1.5, 0.1, 0.4),
    ]
    pairs = []
    for tri in ((2, 3, 4), (5, 6, 7)):
        pairs.extend(
            (min(a, b), max(a, b)) for a, b in itertools.combinations(tri, 2)
        )
        pairs.extend((0, i) for i in tri)
        pairs.extend((1, i) for i in tri)
    return new_framework(3, pts, pairs)
