"""Detection and classification of point symmetries of a framework.

The pipeline:

1. Center coordinates on the centroid (every symmetry of a finite
   joint set fixes it) and sort joints into shells of equal distance
   from the center.
2. Pick a well-conditioned spanning basis of joint positions, greedily
   preferring joints whose shells are small.
3. Enumerate candidate images of the basis (same shell, matching
   pairwise inner products), all partial images a level at a time.
   Then, in blocks of at most core._BLOCK joint images, solve every
   candidate's matrix against the basis, inverted once, keep the
   near-orthogonal ones, snap them to the nearest orthogonal matrices
   by one batched SVD, land all their joint images through one
   core.pairs_within call, and look every bar permutation up in the
   sorted bar-end codes.  The candidates are then taken in order.  A
   symmetry is its joint permutation and the sign of its determinant;
   one candidate is kept per such key, and a new key whose matrix lies
   within _AMBIGUITY_GATE of a kept one is ambiguous.
4. Read each symmetry's order from its key: the smallest power of the
   joint permutation that is the identity, doubled when it is odd and
   the symmetry improper.  Classify the matrix into E / C_n^k / S_n^k /
   sigma / i from that order and the determinant sign; only k, the
   nearest multiple of 2*pi/n, is read from the measured angle.  Build
   the multiplication table by composing the joint permutations,
   compute conjugacy classes, merge inverse-paired classes, and name the
   group and its classes on the Schoenflies flowchart from the element
   kinds and that table alone.  Axes are read only to order two classes
   that no product tells apart.
5. Count the joints and bars each operation leaves in place, and tag
   how each fixed bar sits, from the permutations alone: detection is
   the last step that reads coordinates.

All geometric tolerances are relative to the framework diameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .core import _BLOCK, Framework, pairs_within, unit_scaled
from .errors import (
    ContinuousSymmetry,
    InternalInconsistency,
    NotAGroup,
    ToleranceAmbiguity,
    UnrecognizedGroup,
)

# Relative geometric tolerance: coordinates agree when they differ by
# less than this fraction of the framework diameter.
DEFAULT_GEOM_TOL = 1e-6

# Two symmetries with different keys (joint permutation, determinant
# sign) whose matrices agree to better than this (max-abs difference)
# are reported as ambiguous rather than kept apart.
_AMBIGUITY_GATE = 1e-4

_KIND_RANK = {"E": 0, "C": 1, "i": 2, "S": 3, "sigma": 4}
_ROLE_RANK = {"": 0, "h": 1, "v": 2, "v2": 3, "d": 4, "alt": 5, "alt2": 6}


@dataclass(frozen=True)
class IsometryOp:
    """One orthogonal map about the centroid, classified by type.

    kind is "E", "C", "S", "sigma", or "i".  For C and S the rotation
    angle is 2*pi*k/n with 1 <= k < n and gcd(k, n) = 1.  axis holds the
    rotation axis for 3D C and S, the unit plane normal for a 3D
    mirror, the unit mirror line direction for a 2D mirror, and None
    otherwise.  Axes are sign-canonicalized: the first component larger
    than 1e-7 in magnitude is positive.
    """

    kind: str
    matrix: np.ndarray = field(repr=False, compare=False)
    n: int = 0
    k: int = 0
    axis: tuple[float, ...] | None = None


@dataclass(frozen=True)
class SymmetryAssignment:
    """An isometry together with the joint and bar permutations it induces.

    Permutations map ids to image ids.  A reference group
    (chartables.reference_group) permutes the points of a free orbit and
    has no bars.
    """

    op: IsometryOp
    joint_perm: tuple[int, ...] | None
    bar_perm: tuple[int, ...] | None


class ClassKey(NamedTuple):
    """Stable identifier of a merged conjugacy class across groups.

    kind and rotation fraction plus a role string that separates
    geometrically distinct classes of the same type, e.g. the two
    mirror families of C4v.  k is stored as min(k, n - k) because a
    class is merged with its inverse class.
    """

    kind: str
    n: int
    k: int
    role: str


@dataclass(frozen=True)
class ConjugacyClass:
    key: ClassKey
    label: str
    size: int
    member_ids: tuple[int, ...]
    rep_id: int


@dataclass(eq=False)
class PointGroupInfo:
    """A finite point group realized on concrete elements.

    elements are sorted canonically with the identity first;
    mult_table[x, y] is the index of element x composed after y, and
    inverse[x] the index of the inverse.  classes are merged with their
    inverse classes so they align one-to-one with real character table
    columns.  Nothing downstream of the group reads coordinates again,
    so it carries no tolerance.
    """

    schoenflies: str
    dimension: int
    order: int
    elements: list[SymmetryAssignment]
    classes: list[ConjugacyClass]
    principal_axis: tuple[float, ...] | None
    mult_table: np.ndarray = field(repr=False)
    inverse: np.ndarray = field(repr=False)

    def class_of_element(self, element_id: int) -> ConjugacyClass:
        for cls in self.classes:
            if element_id in cls.member_ids:
                return cls
        raise InternalInconsistency(f"element {element_id} is in no class")


@dataclass(frozen=True)
class UnshiftedCounts:
    """Joints and bars left in place by one symmetry operation.

    bar_tags records, for each fixed bar of an operation other than E,
    how it sits relative to the operation's invariant set.
    """

    kind: str
    n: int
    k: int
    joints_unshifted: int
    bars_unshifted: int
    fixed_joint_ids: tuple[int, ...]
    fixed_bar_ids: tuple[int, ...]
    bar_tags: dict[int, str]


@dataclass(frozen=True)
class OrbitPartition:
    joint_orbits: tuple[tuple[int, ...], ...]
    bar_orbits: tuple[tuple[int, ...], ...]


def _canon_sign(v: np.ndarray) -> tuple[np.ndarray, bool]:
    """Flip v so its first significantly nonzero component is positive."""
    for c in v:
        if abs(c) > 1e-7:
            if c < 0:
                return -v, True
            return v, False
    return v, False


def _key_order(perm: Sequence[int], proper: bool) -> int:
    """The order of the symmetry keyed by perm and its determinant sign.

    The smallest power of perm that is the identity, the lcm of its
    cycle lengths, doubled when it is odd and the symmetry improper: that
    power then fixes every joint yet has determinant -1, so it is the
    mirror in the joints' hyperplane.
    """
    order, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x], x, length = True, perm[x], length + 1
        order = math.lcm(order, length)
    return order if proper or order % 2 == 0 else 2 * order


def _rotation_multiple(angle: float, n: int) -> int:
    """k, the multiple of 2*pi/n nearest to angle, when it is coprime to n."""
    k = round(angle * n / (2 * math.pi)) % n
    if math.gcd(k, n) != 1:
        raise ToleranceAmbiguity(
            f"a symmetry of order {n} turns by {angle:.9f}, nearest to "
            f"{k} * 2*pi/{n}, which has a smaller order"
        )
    return k


def _null_axis(M: np.ndarray) -> np.ndarray:
    """Unit vector spanning the fixed space of M, for M with a 1-eigenvalue."""
    _, sv, vt = np.linalg.svd(M - np.eye(M.shape[0]))
    if sv[-1] > 1e-4:
        raise InternalInconsistency("expected a fixed direction, found none")
    return vt[-1]


def _frozen(M: np.ndarray) -> np.ndarray:
    out = np.array(M, dtype=float)
    out.setflags(write=False)
    return out


def classify_matrix(M: np.ndarray, dimension: int, order: int) -> IsometryOp:
    """Classify an orthogonal matrix of the given order as E, C, S, sigma or i.

    The kind follows from the order and the determinant sign: order 1 is
    E; an improper order 2 is i when the trace is near -3 and sigma
    otherwise; any other order m is C_m when proper and S_m when
    improper, except that an improper m = 2 mod 4 is S_(m/2) when the
    nearest multiple of 2*pi/m to its rotation angle is even.  k is the
    nearest multiple of 2*pi/n to the angle; ToleranceAmbiguity when it
    is not coprime to n.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (dimension, dimension):
        raise ValueError(f"expected a {dimension}x{dimension} matrix, got {M.shape}")
    if dimension not in (2, 3):
        raise ValueError("only 2D and 3D isometries are supported")
    if np.abs(M.T @ M - np.eye(dimension)).max() > 1e-6:
        raise ValueError("matrix is not orthogonal")
    det = float(np.linalg.det(M))
    proper = det > 0
    if order < 1 or (not proper and order % 2):
        raise ValueError(f"no isometry of determinant {det:+.0f} has order {order}")
    return _classify_isometry(M, dimension, order, proper)


def _classify_isometry(M: np.ndarray, dimension: int, order: int, proper: bool) -> IsometryOp:
    """classify_matrix for an orthogonal M whose order and determinant
    sign are known to agree, as they do for a detected symmetry."""
    Mf = _frozen(M)
    if order == 1:
        return IsometryOp("E", Mf)

    if dimension == 2:
        if not proper:
            # reflection across the line at angle a: entries are cos 2a, sin 2a
            half = math.atan2(M[1, 0], M[0, 0]) / 2
            line, _ = _canon_sign(np.array([math.cos(half), math.sin(half)]))
            return IsometryOp("sigma", Mf, 0, 0, tuple(float(c) for c in line))
        theta = math.atan2(M[1, 0], M[0, 0])
        return IsometryOp("C", Mf, order, _rotation_multiple(theta, order), None)

    # an improper M is -R for a proper R: R = E gives i, a half turn R a
    # mirror (plane normal = axis), any other R an S with angle phi - pi
    R = M if proper else -M
    if order == 2:
        if not proper and float(np.trace(M)) < -1:
            return IsometryOp("i", Mf)
        axis = tuple(float(c) for c in _canon_sign(_null_axis(R))[0])
        if proper:
            return IsometryOp("C", Mf, 2, 1, axis)
        return IsometryOp("sigma", Mf, 0, 0, axis)
    cos_a = min(1.0, max(-1.0, (float(np.trace(R)) - 1) / 2))
    skew = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]) / 2
    sin_a = float(np.linalg.norm(skew))
    phi = math.atan2(sin_a, cos_a) - (0 if proper else math.pi)
    n = order
    if not proper and order % 4 == 2 and round(phi * order / (2 * math.pi)) % 2 == 0:
        n = order // 2
    k = _rotation_multiple(phi, n)
    axis, flipped = _canon_sign(skew / sin_a)
    if flipped:
        k = n - k
    return IsometryOp("C" if proper else "S", Mf, n, k, tuple(float(c) for c in axis))


def _op_sort_key(op: IsometryOp):
    return (_KIND_RANK[op.kind], -op.n, op.k, _axis_tuple(op.axis))


def _shells(norms: np.ndarray, tol: float) -> list[list[int]]:
    order = np.argsort(norms, kind="stable")
    shells: list[list[int]] = [[int(order[0])]]
    for prev, cur in zip(order[:-1], order[1:]):
        if norms[cur] - norms[prev] <= 2 * tol:
            shells[-1].append(int(cur))
        else:
            shells.append([int(cur)])
    return shells


def _greedy_basis(
    P: np.ndarray, shell_size: dict[int, int], spanrank: int, tol: float
) -> list[int]:
    """Spanning joints, max-residual greedy with a small-shell preference."""
    j = P.shape[0]
    basis: list[int] = []
    Q = np.zeros((0, P.shape[1]))
    while len(basis) < spanrank:
        resid = P - (P @ Q.T) @ Q if Q.shape[0] else P
        rnorm = np.linalg.norm(resid, axis=1)
        rmax = float(rnorm.max())
        if rmax <= tol:
            raise ToleranceAmbiguity(
                "joint positions span a space whose dimension is unclear "
                "at the current geometric tolerance"
            )
        candidates = [i for i in range(j) if rnorm[i] >= 0.5 * rmax and i not in basis]
        pick = min(candidates, key=lambda i: (shell_size[i], i))
        basis.append(pick)
        newdir = resid[pick] / rnorm[pick]
        Q = np.vstack([Q, newdir])
    return basis


def _candidate_images(
    P: np.ndarray,
    basis: list[int],
    shell_of: dict[int, list[int]],
    dot_tol: float,
) -> np.ndarray:
    """Every image of the basis that keeps each basis joint in its shell
    and each inner product within dot_tol, one row of joint ids each.

    Rows grow a level at a time, all partial rows at once (in chunks of
    at most _BLOCK inner products), and come in the lexicographic order
    of their joints' places in the shells.
    """
    gram = P[basis] @ P[basis].T
    rows = np.zeros((1, 0), dtype=np.intp)
    for level, b in enumerate(basis):
        shell = np.array(shell_of[b], dtype=np.intp)
        Q = P[shell]
        fits = np.abs((Q * Q).sum(axis=1) - gram[level, level]) <= dot_tol
        step = max(1, _BLOCK // (len(shell) * max(level, 1)))
        grown = []
        for lo in range(0, max(len(rows), 1), step):
            part = rows[lo : lo + step]
            dots = np.abs(P[part] @ Q.T - gram[:level, level, None]) <= dot_tol
            ok = fits & dots.all(axis=1) & (part[:, :, None] != shell).all(axis=1)
            k, m = np.nonzero(ok)
            grown.append(np.column_stack([part[k], shell[m]]))
        rows = np.concatenate(grown)
    return rows


def _isometries(
    P: np.ndarray,
    basis: list[int],
    images: np.ndarray,
    tol: float,
    exp: int,
    ends: np.ndarray,
) -> Iterator[tuple[np.ndarray, bool, tuple[int, ...] | None, tuple[int, ...] | None]]:
    """Yield each candidate's matrix, whether it is proper, and its joint
    and bar permutations (_matched_permutations), in candidate order.

    The basis matrix B is the same for every candidate, so it is
    inverted once.  When the basis spans only a hyperplane, it is
    extended by its unit normal and each image of the basis gives two
    candidates in turn, sending the normal to +normal and to -normal.
    Candidates go in blocks of at most _BLOCK // j images of the basis:
    each block is solved, kept where near-orthogonal, snapped to the
    nearest orthogonal matrices by one batched SVD, and matched.
    """
    j, d = P.shape
    B = P[basis].T
    normal = None
    if len(basis) < d:
        # rank-deficient span: extend with the normal direction, both signs
        normal = np.cross(B[:, 0], B[:, 1]) if d == 3 else np.array([-B[1, 0], B[0, 0]])
        nn = float(np.linalg.norm(normal))
        if nn == 0.0:
            return
        normal = normal / nn
        B = np.column_stack([B, normal])
    try:
        inv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return
    step = max(1, _BLOCK // j)
    for lo in range(0, len(images), step):
        Bp = np.ascontiguousarray(P[images[lo : lo + step]].transpose(0, 2, 1))
        if normal is not None:
            signed = np.tile(np.stack([normal, -normal]), (len(Bp), 1))[:, :, None]
            Bp = np.concatenate([np.repeat(Bp, 2, axis=0), signed], axis=2)
        Ms = Bp @ inv
        Ms = Ms[np.abs(Ms.transpose(0, 2, 1) @ Ms - np.eye(d)).max(axis=(1, 2)) <= 0.05]
        u, _, vt = np.linalg.svd(Ms)
        Ms = u @ vt
        proper = np.linalg.det(Ms) > 0
        for M, sign, perms in zip(Ms, proper, _matched_permutations(P, Ms, tol, exp, ends)):
            yield M, bool(sign), *perms


def _raise_if_ambiguous(hits: np.ndarray, landed: np.ndarray, tol: float, exp: int) -> None:
    """Check one matrix whose joint images do not land one to one.

    hits[q] counts the joints that the image of joint q lands on, and
    landed[q] is one of them.  Joints are taken in id order up to the
    first whose image does not land on exactly one joint that no earlier
    image took.  The matrix is no symmetry when that image lands on no
    joint; ToleranceAmbiguity is raised when it lands on several or on a
    taken one.  Its message states tol * 2**exp, in model units when the
    points were scaled by core.unit_scaled.
    """
    bad = np.flatnonzero(hits != 1)
    stop = int(bad[0]) if bad.size else len(hits)
    order = np.argsort(landed[:stop], kind="stable")
    ranked = landed[order]
    taken = order[1:][ranked[1:] == ranked[:-1]]
    shown = float(np.ldexp(tol, exp))
    if taken.size:
        raise ToleranceAmbiguity(
            f"two joints map onto joint {landed[taken.min()]} within tolerance {shown:g}"
        )
    if hits[stop] > 1:
        raise ToleranceAmbiguity(
            f"the image of joint {stop} matches {hits[stop]} joints within "
            f"tolerance {shown:g}; joints are too close together for this "
            "tolerance"
        )


def _matched_permutations(
    P: np.ndarray,
    Ms: np.ndarray,
    tol: float,
    exp: int = 0,
    ends: np.ndarray | None = None,
) -> Iterator[tuple[tuple[int, ...] | None, tuple[int, ...] | None]]:
    """Yield the joint and bar permutation of each matrix of the stack Ms.

    The joints' images are matched in blocks of matrices, at most
    _BLOCK images to a block and one pairs_within call per block, so
    memory does not grow with the number of matrices.  A matrix whose
    images land one to one on the joints gets that permutation; any
    other gets None.  When an image of it lands on several joints, or
    two on one joint, _raise_if_ambiguous checks it as it is reached.
    ends holds each bar's sorted ends; a bar permutation sends each bar
    to the bar between its ends' images, and is None when one of those
    is no bar, or when no ends are given.
    """
    j, d = P.shape
    if ends is not None:
        codes = ends[:, 0] * j + ends[:, 1]
        by_code = np.argsort(codes)
        codes = codes[by_code]
    # one int object per id, shared by every permutation
    ids = list(range(max(j, 0 if ends is None else len(ends))))
    step = max(1, _BLOCK // j)
    for lo in range(0, len(Ms), step):
        block = Ms[lo : lo + step]
        n = len(block) * j
        hits = np.zeros(n, dtype=np.intp)
        # an image that lands on no joint keeps an id of its own, below 0
        landed = -1 - np.arange(n)
        for q, p in pairs_within(P, (P @ block.transpose(0, 2, 1)).reshape(n, d), tol):
            hits += np.bincount(q, minlength=n)
            landed[q] = p
        hits, landed = hits.reshape(-1, j), landed.reshape(-1, j)
        ranked = np.sort(landed, axis=1)
        twice = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1) | (hits > 1).any(axis=1)
        clean = (hits == 1).all(axis=1) & ~twice
        bars_ok = np.zeros(len(block), dtype=bool)
        if ends is not None:
            u, v = landed[:, ends[:, 0]], landed[:, ends[:, 1]]
            image = np.minimum(u, v) * j + np.maximum(u, v)
            at = np.minimum(np.searchsorted(codes, image), max(len(codes) - 1, 0))
            bars_ok = (codes[at] == image).all(axis=1)
            bar_rows = by_code[at]
        for i in range(len(block)):
            if not clean[i]:
                if twice[i]:
                    _raise_if_ambiguous(hits[i], landed[i], tol, exp)
                yield None, None
            else:
                bar_perm = None
                if bars_ok[i]:
                    bar_perm = tuple(map(ids.__getitem__, bar_rows[i].tolist()))
                yield tuple(map(ids.__getitem__, landed[i].tolist())), bar_perm


def detect_symmetries(
    f: Framework, geom_tol: float | None = None
) -> list[SymmetryAssignment]:
    """All point symmetries of the framework, identity included.

    geom_tol is relative to the framework diameter; positions matching
    to better than geom_tol * diameter are considered equal.  Raises
    ContinuousSymmetry when the joint set has infinitely many
    symmetries (a single joint, or a collinear set in 3D) and
    ToleranceAmbiguity when distinct answers live inside the tolerance.
    """
    rel = DEFAULT_GEOM_TOL if geom_tol is None else float(geom_tol)
    if not 0 < rel < 0.1:
        raise ValueError("geom_tol must lie in (0, 0.1)")
    d, j = f.dimension, f.joint_count
    if j <= 1:
        raise ContinuousSymmetry(
            "a framework with at most one joint has continuous point symmetry"
        )
    coords, exp = unit_scaled(f.coordinates)
    P = coords - coords.mean(axis=0)
    scale = f.scaled_diameter()[0] or 1.0
    tol = rel * scale

    sv = np.linalg.svd(P, compute_uv=False)
    spanrank = int(np.sum(sv > tol * math.sqrt(j)))
    if d == 3 and spanrank <= 1:
        raise ContinuousSymmetry(
            "all joints are collinear; every rotation about that line is a symmetry"
        )
    if spanrank == 0:
        raise ContinuousSymmetry("all joints coincide at the centroid")

    norms = np.linalg.norm(P, axis=1)
    shells = _shells(norms, tol)
    shell_of: dict[int, list[int]] = {}
    for shell in shells:
        for i in shell:
            shell_of[i] = shell
    shell_size = {i: len(shell_of[i]) for i in range(j)}

    basis = _greedy_basis(P, shell_size, spanrank, tol)
    dot_tol = 4 * tol * scale

    images = _candidate_images(P, basis, shell_of, dot_tol)
    ends = np.array([bar.ends for bar in f.bars], dtype=np.intp).reshape(-1, 2)

    # a symmetry is its joint permutation and the sign of its determinant
    found: dict[tuple[tuple[int, ...], bool], tuple[np.ndarray, tuple[int, ...]]] = {}
    kept = np.empty((8, d, d))
    for M, proper, perm, bar_perm in _isometries(P, basis, images, tol, exp, ends):
        if perm is None:
            continue
        key = (perm, proper)
        if bar_perm is None or key in found:
            continue
        gaps = np.abs(kept[: len(found)] - M).max(axis=(1, 2))
        if found and gaps.min() < _AMBIGUITY_GATE:
            raise ToleranceAmbiguity(
                f"two candidate symmetries that move the joints differently "
                f"differ by only {gaps[np.argmax(gaps < _AMBIGUITY_GATE)]:g}"
            )
        if len(found) == len(kept):
            kept = np.concatenate([kept, kept])
        kept[len(found)] = M
        found[key] = (M, bar_perm)

    assignments = [
        SymmetryAssignment(
            _classify_isometry(M, d, _key_order(perm, proper), proper), perm, bar_perm
        )
        for (perm, proper), (M, bar_perm) in found.items()
    ]
    assignments.sort(key=lambda a: _op_sort_key(a.op))
    if not assignments or assignments[0].op.kind != "E":
        raise InternalInconsistency("the identity was not among the detected symmetries")
    return assignments


def _axis_tuple(axis: Sequence[float] | None) -> tuple[float, ...]:
    if axis is None:
        return ()
    return tuple(round(float(c), 9) for c in axis)


def _parse_label(label: str) -> tuple[str, int, str]:
    """Split an axial label into (head letter, n, suffix)."""
    head, rest = label[0], label[1:]
    digits = ""
    while rest and rest[0].isdigit():
        digits += rest[0]
        rest = rest[1:]
    if not digits:
        raise UnrecognizedGroup(f"cannot parse group label {label!r}")
    return head, int(digits), rest


def _expected_group_order(label: str, dimension: int) -> int:
    fixed = {
        "C1": 1, "Cs": 2, "Ci": 2,
        "T": 12, "Td": 24, "Th": 24,
        "O": 24, "Oh": 48, "I": 60, "Ih": 120,
    }
    if label in fixed:
        return fixed[label]
    head, n, suffix = _parse_label(label)
    if head == "C":
        return n if suffix == "" else 2 * n
    if head == "S":
        return n
    if head == "D":
        return 2 * n if suffix == "" else 4 * n
    raise UnrecognizedGroup(f"no expected order for label {label!r}")


def _schoenflies_2d(ops: list[IsometryOp]) -> tuple[str, None]:
    rotations = sum(1 for op in ops if op.kind in ("E", "C"))
    mirrors = sum(1 for op in ops if op.kind == "sigma")
    if mirrors == 0:
        return ("C1" if rotations == 1 else f"C{rotations}"), None
    if rotations == 1:
        return "Cs", None
    if mirrors != rotations:
        raise UnrecognizedGroup(
            f"{rotations} rotations with {mirrors} mirrors is not a 2D point group"
        )
    return f"C{rotations}v", None


def _powers(table: np.ndarray, x: int) -> set[int]:
    """The elements x, x^2, ..., E of the cyclic group x generates."""
    powers, cur = {0}, x
    while cur != 0:
        powers.add(cur)
        cur = int(table[cur, x])
    return powers


def _principal_rotation(ops: list[IsometryOp], table: np.ndarray) -> int | None:
    """r: the first proper rotation of the highest order, or None.

    Among several half turns, r is the square of an S4 when there is one,
    and otherwise the half turn with the largest axis tuple.
    """
    rotations = [x for x, op in enumerate(ops) if op.kind == "C"]
    if not rotations:
        return None
    if ops[rotations[0]].n > 2 or len(rotations) == 1:
        return rotations[0]
    s4 = [x for x, op in enumerate(ops) if op.kind == "S" and op.n == 4]
    if s4:
        return int(table[s4[0], s4[0]])
    return max(rotations, key=lambda x: _axis_tuple(ops[x].axis))


def _schoenflies_3d(
    ops: list[IsometryOp], table: np.ndarray
) -> tuple[str, int | None]:
    """The label and the element whose axis is the principal axis.

    Read from the element kinds and the multiplication table alone: a
    half turn crosses the principal axis when it is no power of the
    principal rotation r, and a mirror s is horizontal when s r is no
    mirror.
    """
    rotations = lambda n: sum(1 for op in ops if op.kind == "C" and op.n == n)
    mirrors = [x for x, op in enumerate(ops) if op.kind == "sigma"]
    has_i = any(op.kind == "i" for op in ops)
    has_improper = any(op.kind in ("i", "S", "sigma") for op in ops)

    if rotations(5) >= 24:
        if has_improper and not has_i:
            raise UnrecognizedGroup("icosahedral rotations with impropers but no inversion")
        return ("Ih" if has_i else "I"), None
    if rotations(4) >= 6:
        if has_improper and not has_i:
            raise UnrecognizedGroup("octahedral rotations with impropers but no inversion")
        return ("Oh" if has_i else "O"), None
    if rotations(3) >= 8:
        return ("Th" if has_i else "Td" if has_improper else "T"), None

    r = _principal_rotation(ops, table)
    if r is None:
        if has_i:
            return "Ci", None
        return ("Cs", mirrors[0]) if mirrors else ("C1", None)

    n, on_axis = ops[r].n, _powers(table, r)
    crossing = sum(
        1 for x, op in enumerate(ops) if op.kind == "C" and op.n == 2 and x not in on_axis
    )
    horizontal = [s for s in mirrors if ops[table[s, r]].kind != "sigma"]
    vertical = len(mirrors) - len(horizontal)

    if crossing == n:
        if horizontal:
            return f"D{n}h", r
        if vertical == n:
            return f"D{n}d", r
        if mirrors:
            raise UnrecognizedGroup("dihedral rotations with an unfamiliar mirror set")
        return f"D{n}", r
    if horizontal:
        return f"C{n}h", r
    if vertical == n:
        return f"C{n}v", r
    if mirrors:
        raise UnrecognizedGroup("rotations with an unfamiliar mirror set")
    if any(op.kind == "S" and op.n == 2 * n for op in ops):
        return f"S{2 * n}", r
    return f"C{n}", r


def _merged_classes(
    table: np.ndarray, inverse: np.ndarray
) -> list[list[int]]:
    g = table.shape[0]
    class_of = [-1] * g
    raw: list[list[int]] = []
    for i in range(g):
        if class_of[i] >= 0:
            continue
        members = {int(table[table[a, i], inverse[a]]) for a in range(g)}
        idx = len(raw)
        raw.append(sorted(members))
        for m in members:
            class_of[m] = idx
    merged: list[list[int]] = []
    seen: set[int] = set()
    for ci, members in enumerate(raw):
        if ci in seen:
            continue
        inv_ci = class_of[int(inverse[members[0]])]
        if inv_ci == ci:
            merged.append(members)
            seen.add(ci)
        else:
            merged.append(sorted(set(members) | set(raw[inv_ci])))
            seen.add(ci)
            seen.add(inv_ci)
    return merged


def _class_geometry_key(ops: list[IsometryOp]) -> tuple[str, int, int]:
    kinds = {op.kind for op in ops}
    if len(kinds) != 1:
        raise InternalInconsistency("mixed kinds inside one conjugacy class")
    kind = kinds.pop()
    if kind in ("E", "i", "sigma"):
        return kind, 0, 0
    ns = {op.n for op in ops}
    if len(ns) != 1:
        raise InternalInconsistency("mixed rotation orders inside one conjugacy class")
    n = ns.pop()
    ks = {min(op.k, n - op.k) for op in ops}
    if len(ks) != 1:
        raise InternalInconsistency("mixed rotation fractions inside one merged class")
    return kind, n, ks.pop()


def _assign_roles(
    label: str,
    dimension: int,
    ops: list[IsometryOp],
    table: np.ndarray,
    merged: list[list[int]],
    r: int | None,
) -> list[str]:
    """Class roles from the element kinds and the multiplication table.

    r is the principal rotation of an axial group.  Axes only order two
    classes that no product tells apart.
    """
    cubic = label in ("T", "Td", "Th", "O", "Oh", "I", "Ih")
    is_mirror = lambda x: ops[int(x)].kind == "sigma"
    c4_squares = {int(table[x, x]) for x, op in enumerate(ops) if op.kind == "C" and op.n == 4}
    inversion = next((x for x, op in enumerate(ops) if op.kind == "i"), None)
    on_axis = _powers(table, r) if r is not None else set()
    roles = [""] * len(merged)
    alt_classes: list[int] = []
    v_classes: list[int] = []

    for ci, members in enumerate(merged):
        x = members[0]
        kind, n, _ = _class_geometry_key([ops[m] for m in members])
        if kind in ("E", "i", "S"):
            continue
        if kind == "C":
            if cubic:
                if n == 2 and label in ("O", "Oh"):
                    roles[ci] = "" if x in c4_squares else "alt"
                continue
            if dimension == 2 or x in on_axis:
                continue
            if n == 2:
                alt_classes.append(ci)
                continue
            raise InternalInconsistency("rotation off the principal axis that is no half turn")
        # mirrors
        if label == "Cs" and dimension == 3:
            roles[ci] = "h"
        elif label == "Th":
            roles[ci] = "h"
        elif label == "Oh":
            roles[ci] = "h" if int(table[inversion, x]) in c4_squares else "d"
        elif label == "Td":
            roles[ci] = "d"
        elif label in ("I", "Ih"):
            roles[ci] = ""
        elif dimension == 2:
            if label == "Cs":
                roles[ci] = "v"
            else:
                v_classes.append(ci)
        elif not is_mirror(table[x, r]):
            roles[ci] = "h"
        elif label.endswith("d"):
            roles[ci] = "d"
        else:
            v_classes.append(ci)

    def class_max_axis(ci: int) -> tuple[float, ...]:
        return max(_axis_tuple(ops[m].axis) for m in merged[ci])

    if alt_classes:
        if len(alt_classes) > 2:
            raise InternalInconsistency("more than two classes of crossing twofold axes")
        for rank, ci in enumerate(
            sorted(alt_classes, key=class_max_axis, reverse=True)
        ):
            roles[ci] = "alt" if rank == 0 else "alt2"

    if v_classes:
        if len(v_classes) > 2:
            raise InternalInconsistency("more than two classes of vertical mirrors")
        if len(v_classes) == 1:
            roles[v_classes[0]] = "v"
        elif label.startswith("D") and alt_classes:
            # the "v" mirrors contain the first crossing axis: their
            # product with its half turn is a mirror
            c = merged[alt_classes[0]][0]
            first = v_classes[0]
            contains = any(is_mirror(table[m, c]) for m in merged[first])
            roles[first] = "v" if contains else "v2"
            roles[v_classes[1]] = "v2" if contains else "v"
        else:
            ordered = sorted(v_classes, key=class_max_axis, reverse=True)
            roles[ordered[0]] = "v"
            roles[ordered[1]] = "v2"
    return roles


def _class_label(key: ClassKey, size: int) -> str:
    if key.kind == "E":
        return "E"
    if key.kind == "i":
        return "i"
    if key.kind == "sigma":
        name = "sigma" + (f"_{key.role}" if key.role in ("h", "d") else "")
        if key.role == "v":
            name = "sigma_v"
        elif key.role == "v2":
            name = "sigma_v'"
    else:
        name = f"{key.kind}{key.n}"
        if key.k > 1:
            name += f"^{key.k}"
        if key.role == "alt":
            name += "'"
        elif key.role == "alt2":
            name += "''"
    return f"{size}{name}" if size > 1 else name


def _hash_weights(j: int) -> np.ndarray:
    """Fixed odd int64 weights of the j entries and the sign of a row:
    splitmix64 of 1..j+1, so that no linear pattern of the entries
    cancels."""
    z = np.arange(1, j + 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31)) | np.uint64(1)).view(np.int64)


def _row_hashes(perms: np.ndarray, signs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One int64 per (permutation, sign) row, wrapping on overflow."""
    return perms @ weights[:-1] + signs * weights[-1]


def classify_group(elements: Sequence[SymmetryAssignment]) -> PointGroupInfo:
    """Close, verify, and name a finite set of isometries as a point group.

    The multiplication table comes from composing the exact joint
    permutations, each keyed with the sign of its determinant: when the
    joints span only a hyperplane, an element and its product with the
    mirror in that hyperplane permute the joints alike.  The label, the
    principal axis and the class roles are read from the element kinds
    and that table: with r the principal rotation, a half turn crosses
    the principal axis when it is no power of r, and a mirror s is
    horizontal when s r is no mirror.  Raises NotAGroup when the set is
    not closed or lacks the identity, and UnrecognizedGroup when it
    does not match any supported type.
    """
    if not elements:
        raise NotAGroup("no elements supplied")
    assignments = sorted(elements, key=lambda a: _op_sort_key(a.op))
    dims = {a.op.matrix.shape[0] for a in assignments}
    if len(dims) != 1:
        raise ValueError("elements mix dimensions")
    dimension = dims.pop()
    ops = [a.op for a in assignments]
    if ops[0].kind != "E":
        raise NotAGroup("the identity is not among the elements")
    g = len(ops)
    if any(a.joint_perm is None for a in assignments):
        raise ValueError("every element needs its joint permutation")
    perms = np.array([a.joint_perm for a in assignments], dtype=np.int64)
    signs = np.array([1 if op.kind in ("E", "C") else -1 for op in ops], dtype=np.int64)
    weights = _hash_weights(perms.shape[1])
    hashes = _row_hashes(perms, signs, weights)
    by_hash = np.argsort(hashes, kind="stable")
    sorted_hashes = hashes[by_hash]
    tied = np.flatnonzero(sorted_hashes[1:] == sorted_hashes[:-1])
    if tied.size:
        rows = by_hash[np.union1d(tied, tied + 1)]
        if len({(perms[x].tobytes(), signs[x]) for x in rows}) < len(rows):
            raise ToleranceAmbiguity(
                "two elements with the same determinant sign permute the joints alike"
            )

    # each product row is looked up by its hash and confirmed in full,
    # so a hash collision can only send it to the slow scan of its ties
    table = np.zeros((g, g), dtype=int)
    for x in range(g):
        prods, prod_signs = perms[x][perms], signs[x] * signs
        h = _row_hashes(prods, prod_signs, weights)
        at = by_hash[np.minimum(np.searchsorted(sorted_hashes, h), g - 1)]
        ok = (hashes[at] == h) & (signs[at] == prod_signs) & (perms[at] == prods).all(axis=1)
        for y in np.flatnonzero(~ok):
            lo, hi = (np.searchsorted(sorted_hashes, h[y], side) for side in ("left", "right"))
            match = [
                t for t in by_hash[lo:hi]
                if signs[t] == prod_signs[y] and (perms[t] == prods[y]).all()
            ]
            if not match:
                raise NotAGroup(
                    f"the product of elements {x} and {y} is not in the set"
                )
            at[y] = match[0]
        table[x] = at
    if table[0].tolist() != list(range(g)):
        raise NotAGroup("the identity is not among the elements")
    # distinct invertible keys make every row a permutation of 0..g-1
    inverse = np.argmin(table, axis=1)

    if dimension == 2:
        label, axis_id = _schoenflies_2d(ops)
    else:
        label, axis_id = _schoenflies_3d(ops, table)
    expected_order = _expected_group_order(label, dimension)
    if expected_order != g:
        raise UnrecognizedGroup(
            f"classified as {label} but the element count is {g}, "
            f"expected {expected_order}"
        )

    merged = _merged_classes(table, inverse)
    roles = _assign_roles(label, dimension, ops, table, merged, axis_id)
    classes: list[ConjugacyClass] = []
    for members, role in zip(merged, roles):
        kind, n, k = _class_geometry_key([ops[m] for m in members])
        key = ClassKey(kind, n, k, role)
        classes.append(
            ConjugacyClass(
                key=key,
                label=_class_label(key, len(members)),
                size=len(members),
                member_ids=tuple(members),
                rep_id=min(members),
            )
        )
    classes.sort(
        key=lambda c: (_KIND_RANK[c.key.kind], -c.key.n, c.key.k, _ROLE_RANK[c.key.role])
    )
    keys = [c.key for c in classes]
    if len(set(keys)) != len(keys):
        raise InternalInconsistency(f"duplicate class keys in {label}: {keys}")

    return PointGroupInfo(
        schoenflies=label,
        dimension=dimension,
        order=g,
        elements=assignments,
        classes=classes,
        principal_axis=None if axis_id is None else ops[axis_id].axis,
        mult_table=table,
        inverse=inverse,
    )


def detect_point_group(
    f: Framework, geom_tol: float | None = None
) -> PointGroupInfo:
    """Detect all symmetries of f and classify them as a point group.

    A detected set that is not closed raises ToleranceAmbiguity, not
    NotAGroup: the tolerance let some symmetries through and not others.
    """
    elements = detect_symmetries(f, geom_tol)
    try:
        return classify_group(elements)
    except NotAGroup as exc:
        rel = DEFAULT_GEOM_TOL if geom_tol is None else float(geom_tol)
        raise ToleranceAmbiguity(
            f"the symmetries found at geom_tol {rel:g} do not form a group "
            f"({exc}); some land within that tolerance and others do not"
        ) from exc


# (kind, dimension, ends swapped) -> where a bar that the operation maps
# onto itself lies; a C swaps a bar's ends only as a half turn, keyed C2
_FIXED_BAR_TAGS = {
    ("sigma", 2, False): "in_plane",
    ("sigma", 3, False): "in_plane",
    ("C", 3, False): "along_axis",
    ("sigma", 2, True): "perpendicular_to_plane",
    ("sigma", 3, True): "perpendicular_to_plane",
    ("S", 3, True): "along_axis",
    ("i", 3, True): "centered_at_origin",
    ("C2", 2, True): "centered_at_origin",
    ("C2", 3, True): "perpendicular_to_axis",
}


def unshifted_counts(f: Framework, assignment: SymmetryAssignment) -> UnshiftedCounts:
    """Count and tag the joints and bars one operation leaves in place.

    Reads the assignment's joint and bar permutations, which detected
    ones carry, and no coordinates.  A fixed bar's tag follows from the
    operation's kind, the dimension and whether the bar's ends are
    swapped (_FIXED_BAR_TAGS).  A pair no isometry can produce, such as
    a rotation of order 3 swapping two joints, which would then fix
    both, raises InternalInconsistency: the permutation is wrong.
    """
    op, joint_perm, bar_perm = assignment.op, assignment.joint_perm, assignment.bar_perm
    if joint_perm is None or bar_perm is None:
        raise ValueError("the operation needs its joint and bar permutations")
    fixed_joints = tuple(i for i in range(f.joint_count) if joint_perm[i] == i)
    fixed_bars = tuple(b for b in range(f.bar_count) if bar_perm[b] == b)

    bar_tags: dict[int, str] = {}
    for b in fixed_bars if op.kind != "E" else ():
        u, v = f.bars[b].ends
        swapped = joint_perm[u] == v
        kind = f"C{op.n}" if op.kind == "C" and swapped else op.kind
        tag = _FIXED_BAR_TAGS.get((kind, f.dimension, swapped))
        if tag is None:
            raise InternalInconsistency(
                f"bar {b} is fixed by {kind} in {f.dimension}D with its ends "
                f"{'swapped' if swapped else 'in place'}, which no isometry does"
            )
        bar_tags[b] = tag

    return UnshiftedCounts(
        kind=op.kind,
        n=op.n,
        k=op.k,
        joints_unshifted=len(fixed_joints),
        bars_unshifted=len(fixed_bars),
        fixed_joint_ids=fixed_joints,
        fixed_bar_ids=fixed_bars,
        bar_tags=bar_tags,
    )


def orbits(f: Framework, group: PointGroupInfo) -> OrbitPartition:
    """Joint and bar orbits under the group action.

    The elements form a group, so the orbit of x is its image under every
    element.  Orbits come ordered by their smallest member.
    """
    if any(a.joint_perm is None or a.bar_perm is None for a in group.elements):
        raise ValueError("group elements lack permutations; detect them on a framework")

    def collect(perms: list[tuple[int, ...]], count: int) -> tuple[tuple[int, ...], ...]:
        out: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for x in range(count):
            if x not in seen:
                orbit = sorted({p[x] for p in perms})
                seen.update(orbit)
                out.append(tuple(orbit))
        return tuple(out)

    return OrbitPartition(
        joint_orbits=collect([a.joint_perm for a in group.elements], f.joint_count),
        bar_orbits=collect([a.bar_perm for a in group.elements], f.bar_count),
    )
