"""Generators for isostatic fixtures and count-preserving constructions.

Seeds: the triangulated platonic solids and a gallery of small 2D
frameworks, one per admissible plane symmetry group, plus near-miss
fixtures for the inadmissible groups.  Constructions: capping a
triangular face with one apex (a vertex addition), capping every face
at a common height (preserves the full group), capping every face with
a twisted triangle (preserves only the rotations), and stacking joints
along a threefold axis.  Each construction adds three bars per new
joint, so the scalar count is preserved exactly; that is asserted on
every call.  Each construction reads its faces from one table, built in
`core.unit_scaled` coordinates, and the caps and hats take their apexes
from one routine, so no result depends on the framework's scale.
"""

from __future__ import annotations

import itertools
import math
import statistics
from typing import NamedTuple

import numpy as np

from .chartables import _rot2
from .core import Framework, maxwell_count, new_framework, unit_scaled
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
    """face as a tuple, once it is checked to be a triangle of f."""
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
    return ids


class _Faces(NamedTuple):
    """Faces in f's unit_scaled coordinates: a length l here is l * 2**exp
    in model units.  The scaling is exact, so positions and relative
    tests read as in model units, and no product of coordinates
    overflows or underflows at any scale."""

    coords: np.ndarray  # the joints
    exp: int
    diam: float
    faces: tuple[Face, ...]
    centre: np.ndarray  # (F, 3) centroids
    normal: np.ndarray  # (F, 3) outward unit normals
    circum: np.ndarray  # (F,) circumradii
    across: np.ndarray | None  # (F, 3) the face across edge ij, ik, jk; None if open


def _faces(f: Framework, faces: tuple[Face, ...]) -> _Faces:
    """The frame of each face, and its neighbour across each edge."""
    if not faces:
        raise DegenerateFace("the framework has no triangular faces to cap")
    coords, exp = unit_scaled(f.coordinates)
    diam = f.scaled_diameter()[0]  # measured on coords, with the same exp
    ids = np.array(faces, dtype=np.int64)
    p = coords[ids]
    centre = p.mean(axis=1)
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    area2 = np.linalg.norm(n, axis=1)
    flat = area2 <= 1e-12 * diam**2
    if flat.any():
        raise DegenerateFace(f"face {faces[flat.argmax()]} has no area")
    n /= area2[:, None]
    side = ((centre - coords.mean(axis=0)) * n).sum(axis=1)
    # a face plane through the centre takes the sign of its normal's
    # first nonzero component, so repeated runs agree
    lead = n[np.arange(len(n)), (np.abs(n) > 1e-7).argmax(axis=1)]
    n[np.where(np.abs(side) > 1e-9 * diam, side, lead) < 0] *= -1.0
    a, b, c = (np.linalg.norm(p[:, u] - p[:, v], axis=1) for u, v in ((1, 2), (0, 2), (0, 1)))
    circum = a * b * c / (2.0 * area2)
    # each edge of a closed surface lies on two faces, so its codes pair up
    edges = np.sort(ids[:, [[0, 1], [0, 2], [1, 2]]], axis=2)
    codes = (edges[..., 0] * f.joint_count + edges[..., 1]).ravel()
    order = np.argsort(codes, kind="stable")
    s = codes[order]
    across = None
    if len(s) % 2 == 0 and (s[::2] == s[1::2]).all() and (s[1:-1:2] < s[2::2]).all():
        across = np.empty(len(s), dtype=np.int64)
        across[order[::2]], across[order[1::2]] = order[1::2] // 3, order[::2] // 3
        across = across.reshape(-1, 3)
    return _Faces(coords, exp, diam, faces, centre, n, circum, across)


def _in_units(t: _Faces, name: str, length: float | None, default=None):
    """length in t's units, or default if None: math.ldexp raises where np.ldexp warns."""
    if length is None:
        return default
    try:
        return math.ldexp(length, -t.exp)
    except OverflowError:
        raise DegenerateFace(f"{name} {length} is too large for a framework this small") from None


def _add_apexes(f: Framework, t: _Faces, rows, heights) -> Framework:
    """f with a joint at centre + height * normal of face t.faces[row],
    for each row and height, tied to that face's three corners."""
    rows, h = np.asarray(rows), np.asarray(heights, dtype=float)
    flat = np.abs(h) <= 1e-9 * t.diam
    if flat.any():
        x = int(flat.argmax())
        raise DegenerateFace(
            f"apex height {np.ldexp(h[x], t.exp)} places the new joint in "
            f"the plane of face {t.faces[rows[x]]}"
        )
    apex = t.centre[rows] + h[:, None] * t.normal[rows]
    pairs = [(i, f.joint_count + x) for x, r in enumerate(rows) for i in t.faces[r]]
    return _append(f, np.ldexp(apex, t.exp), pairs)


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


def _append(f: Framework, new_positions, new_pairs) -> Framework:
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


def cap_face(f: Framework, face: Face, apex_height: float) -> Framework:
    """Add one joint above a face, tied to its three corners.

    A vertex addition: one joint, three bars, count unchanged.  The
    apex sits on the outward normal through the face centroid; zero
    height would put it in the face plane, which destroys the move.
    """
    t = _faces(f, (_as_face(f, face),))
    return _add_apexes(f, t, [0], [_in_units(t, "apex height", apex_height)])


def _stellation_height(t: _Faces) -> float | None:
    """Common apex height putting each apex on its neighbors' planes.

    Returns None when the construction degenerates: open boundary, apex
    off the face axis, apex not strictly outward, apex colliding with a
    joint, or unequal heights across faces.
    """
    if t.across is None:
        return None
    A = t.normal[t.across]
    if (np.abs(np.linalg.det(A)) < 1e-12).any():
        return None
    # dot products through matmul, which rounds each row as a @ b does;
    # (a * b).sum(axis=1) can differ in the last bit
    offset = (t.normal[:, None] @ t.centre[..., None])[:, 0]
    rel = np.linalg.solve(A, offset[t.across])[..., 0] - t.centre
    h = (rel[:, None] @ t.normal[..., None])[:, 0, 0]
    lateral = np.linalg.norm(rel - h[:, None] * t.normal, axis=1)
    apex = t.centre + h[:, None] * t.normal
    gap = np.linalg.norm(t.coords - apex[:, None], axis=2).min()
    if (
        lateral.max() > 1e-8 * t.diam
        or h.min() <= 1e-6 * t.diam
        or gap <= 1e-6 * t.diam
        or h.max() - h.min() > 1e-8 * t.diam
    ):
        return None
    # the same float np.median gives, without importing numpy.ma
    return statistics.median(h.tolist())


def cap_all_faces_symmetric(f: Framework, height: float | None = None) -> Framework:
    """Cap every triangular face at one common height.

    Equal heights keep the whole point group; that is re-detected on
    the result and checked.  With no height given, the apexes go to the
    meeting point of the adjacent face planes (the stellation position)
    when that is well defined, else to 0.8 of the face circumradius.
    """
    t = _faces(f, all_faces(f))
    h = _stellation_height(t) if height is None else _in_units(t, "cap height", height)
    if h is None:
        h = HEIGHT_FACTOR * float(np.mean(t.circum))
    result = _add_apexes(f, t, range(len(t.faces)), [h] * len(t.faces))
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
    t = _faces(f, all_faces(f))
    h = _in_units(t, "cap height", height, HEIGHT_FACTOR * float(np.mean(t.circum)))
    if h <= 1e-9 * t.diam:
        raise DegenerateTwist(
            f"cap height {np.ldexp(h, t.exp)} places the twisted triangle in the face plane"
        )
    K = np.cross(np.eye(3), t.normal[:, None])  # K[x] @ v is normal[x] x v
    R = np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)
    lifted = np.empty((len(t.faces), 3, 3))
    new_pairs: list[tuple[int, int]] = []
    for x, fa in enumerate(t.faces):
        fc, corners = t.centre[x], t.coords[list(fa)]
        lifted[x] = [fc + R[x] @ (p - fc) + h * t.normal[x] for p in corners]
        dist = np.linalg.norm(lifted[x][:, None] - corners, axis=2)
        near = np.argsort(dist, axis=1, kind="stable")[:, :2]
        d = np.sort(dist, axis=1)
        if (d[:, 1] > d[:, 2] - 1e-9 * t.diam).any():
            raise DegenerateTwist(
                f"twist angle {theta} leaves the cap over face "
                f"{fa} without two nearest corners"
            )
        if (np.bincount(near.ravel(), minlength=3) != 2).any():
            raise DegenerateTwist(
                f"cap over face {fa} does not close into an "
                "antiprism; adjust the twist angle"
            )
        trio = [f.joint_count + 3 * x + i for i in range(3)]
        new_pairs += [(trio[0], trio[1]), (trio[1], trio[2]), (trio[0], trio[2])]
        new_pairs += [(fa[c], trio[i]) for i in range(3) for c in near[i]]
    return _append(f, np.ldexp(lifted, t.exp), new_pairs)


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
    t = _faces(f, (fa,))
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
    h0 = _in_units(t, "first height", first_height, HEIGHT_FACTOR * t.circum[0])
    dh = _in_units(t, "step", step, 0.5 * t.circum[0])
    if h0 <= 1e-9 * t.diam or dh <= 1e-9 * t.diam:
        raise ValueError("hat heights must be positive and increasing")
    return _add_apexes(f, t, [0] * k, h0 + np.arange(k) * dh)


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
