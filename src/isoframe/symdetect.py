"""Detection and classification of point symmetries of a framework.

The pipeline:

1. Center coordinates on the centroid (every symmetry of a finite
   joint set fixes it) and give each joint the id of its shell of
   equal distance from the center.
2. Pick a well-conditioned spanning basis of joint positions, greedily
   preferring joints whose shells are small.
3. Enumerate candidate images of the basis (same shell, matching
   pairwise inner products), all partial images a level at a time.
   Solve every candidate's matrix against the basis, inverted once,
   and snap the near-orthogonal ones to the nearest orthogonal
   matrices by one batched SVD.  Land their joint images, in blocks of
   at most core._BLOCK, through one core.pairs_within call each, and
   look every bar permutation up in the sorted bar-end codes; the
   stacks stop before the first candidate that lands ambiguously.  A
   symmetry is its joint permutation and its side of a hyperplane span;
   the first candidate of each such key is kept (one stable argsort),
   and a key whose matrix lies within _AMBIGUITY_GATE of an earlier one
   is ambiguous.  detect_symmetries hands over the keyed stacks.
4. classify_group reads each symmetry's order from its key: the least
   power of the joint permutation that is the identity, doubled when it
   is odd and the symmetry improper.  It classifies all matrices at once
   into E / C_n^k / S_n^k / sigma / i from that order and the sign of
   the determinant (only k, the nearest multiple of 2*pi/n, is read from
   the angle), sorts them by one np.lexsort, and builds the multiplication
   table from each element's images of a base, checking closure in full
   on generators only; takes every conjugate in one gather, merges
   inverse-paired classes, and names the group and its classes on the
   Schoenflies flowchart from the kinds and that table alone.  Two
   classes no product tells apart are ordered by element, so by axis.
5. Count the joints and bars each operation leaves in place, and tag
   how each fixed bar sits, from the permutations alone: detection is
   the last step that reads coordinates.

All geometric tolerances are relative to the framework diameter.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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
    than 1e-7 in magnitude is positive.  classify_group makes the ops of
    a group and lists them in canonical order (_canonical_order).
    """

    kind: str
    matrix: np.ndarray = field(repr=False, compare=False)
    n: int = 0
    k: int = 0
    axis: tuple[float, ...] | None = None


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

    elements are in canonical order, identity first; joint_perms[x] and
    bar_perms[x] send each joint and bar id to its image under element
    x, as read-only int64 copies (g, j) and (g, b) in that order, made
    once by classify_group.  A reference group
    (chartables.reference_group) permutes the points of a free orbit and
    has no bar_perms.  mult_table[x, y] is the index of element x
    composed after y, and inverse[x] the index of the inverse.  classes
    are merged with their inverse classes so they align one-to-one with
    real character table columns.  Nothing downstream of the group reads
    coordinates again, so it carries no tolerance.
    """

    schoenflies: str
    dimension: int
    order: int
    elements: list[IsometryOp]
    joint_perms: np.ndarray = field(repr=False)
    bar_perms: np.ndarray | None = field(repr=False)
    classes: list[ConjugacyClass]
    principal_axis: tuple[float, ...] | None
    mult_table: np.ndarray = field(repr=False)
    inverse: np.ndarray = field(repr=False)


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


def _canon_signs(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip each row of V so its first significantly nonzero entry is
    positive; also return which rows were flipped."""
    big = np.abs(V) > 1e-7
    lead = V[np.arange(len(V)), np.argmax(big, axis=1)]
    flipped = big.any(axis=1) & (lead < 0)
    return np.where(flipped[:, None], -V, V), flipped


def _key_order(perm: Sequence[int], proper: bool) -> int:
    """The order of the symmetry keyed by perm and its determinant sign.

    The smallest power of perm that is the identity, the lcm of its
    cycle lengths, doubled when it is odd and the symmetry improper: that
    power then fixes every joint yet has determinant -1, so it is the
    mirror in the joints' hyperplane.
    """
    lengths, seen = set(), [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x], x, length = True, perm[x], length + 1
        lengths.add(length)
    order = math.lcm(*lengths)
    return order if proper or order % 2 == 0 else 2 * order


def _atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """math.atan2 entry by entry: numpy's vectorized arctan2 may differ
    in the last bit, and axes are reported to full precision."""
    return np.array(list(map(math.atan2, y.tolist(), x.tolist())), dtype=float)


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
    return _classify_isometries(M[None], dimension, [order], np.array([proper]))[0]


def _classify_isometries(
    Ms: np.ndarray, dimension: int, orders: Sequence[int], proper: np.ndarray
) -> list[IsometryOp]:
    """classify_matrix, in one pass, for a stack of orthogonal matrices
    whose orders and determinant signs are known to agree, as they do
    for detected symmetries.

    The axes of all 3D half turns and mirrors come from one batched SVD.
    Each op holds a read-only view of the stack.  The first matrix, in
    stack order, that cannot be classified raises.
    """
    Ms = np.array(Ms, dtype=float)
    Ms.setflags(write=False)
    g, d = len(Ms), dimension
    order = np.array(orders, dtype=np.int64).reshape(g)
    proper = np.asarray(proper, dtype=bool).reshape(g)
    axes = np.full((g, d), np.nan)
    no_axis, flipped = np.zeros(g, dtype=bool), np.zeros(g, dtype=bool)
    if d == 2:
        angle = _atan2(Ms[:, 1, 0], Ms[:, 0, 0])
        mirror, inversion, turn = ~proper, np.zeros(g, dtype=bool), proper & (order > 1)
        # reflection across the line at angle a: entries are cos 2a, sin 2a
        half = (angle[mirror] / 2).tolist()
        line = np.array([list(map(math.cos, half)), list(map(math.sin, half))])
        axes[mirror] = _canon_signs(line.T.reshape(-1, 2))[0]
        has_axis = mirror
    else:
        # an improper M is -R for a proper R: R = E gives i, a half turn R
        # a mirror (plane normal = axis), any other R an S with angle phi - pi
        R = np.where(proper[:, None, None], Ms, -Ms)
        inversion = ~proper & (order == 2) & (np.trace(Ms, axis1=1, axis2=2) < -1)
        half_turn = (order == 2) & ~inversion
        mirror, turn = half_turn & ~proper, order > 2
        _, sv, vt = np.linalg.svd(R[half_turn] - np.eye(3))
        no_axis[half_turn] = sv[:, -1] > 1e-4
        axes[half_turn] = _canon_signs(vt[:, -1])[0]
        cos_a = np.clip((np.trace(R, axis1=1, axis2=2) - 1) / 2, -1.0, 1.0)
        skew = np.stack(
            [R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0], R[:, 1, 0] - R[:, 0, 1]], axis=1
        ) / 2
        # one dot product per row, as np.linalg.norm takes it for one vector
        sin_a = np.sqrt((skew[:, None, :] @ skew[:, :, None])[:, 0, 0])
        angle = _atan2(sin_a, cos_a) - np.where(proper, 0.0, math.pi)
        with np.errstate(invalid="ignore", divide="ignore"):  # raised below
            axes[turn], flipped[turn] = _canon_signs(skew[turn] / sin_a[turn, None])
        has_axis = half_turn | turn
    # an improper order m = 2 mod 4 is S_(m/2) when the nearest multiple of
    # 2*pi/m to its angle is even; k is the nearest multiple of 2*pi/n
    n = np.where(mirror | inversion | (order == 1), 0, order)
    whole = np.rint(angle * order / (2 * math.pi)).astype(np.int64)
    n[turn & ~proper & (order % 4 == 2) & (whole % 2 == 0)] //= 2
    k = np.rint(angle * n / (2 * math.pi)).astype(np.int64) % np.maximum(n, 1)
    bad = np.flatnonzero(turn & (np.gcd(k, n) != 1) | no_axis)
    if bad.size:
        x = int(bad[0])
        if no_axis[x]:
            raise InternalInconsistency("expected a fixed direction, found none")
        raise ToleranceAmbiguity(
            f"a symmetry of order {n[x]} turns by {angle[x]:.9f}, nearest to "
            f"{k[x]} * 2*pi/{n[x]}, which has a smaller order"
        )
    k = np.where(turn, np.where(flipped, n - k, k), n == 2)
    kinds = np.select([order == 1, inversion, mirror, proper], ["E", "i", "sigma", "C"], "S")
    return [
        IsometryOp(kind, M, nx, kx, tuple(axis) if on else None)
        for kind, M, nx, kx, axis, on in zip(
            kinds.tolist(), Ms, n.tolist(), k.tolist(), axes.tolist(), has_axis.tolist()
        )
    ]


def _canonical_order(ops: Sequence[IsometryOp], dimension: int) -> np.ndarray:
    """The canonical element order, a stable sort by kind (_KIND_RANK),
    higher n first, then k and the axis rounded to 9 decimals, an
    element with no axis before any with one."""
    unset = (0.0,) * dimension
    rows = [
        (_KIND_RANK[op.kind], -op.n, op.k, op.axis is not None, *(op.axis or unset))
        for op in ops
    ]
    keys = np.array(rows, dtype=float).reshape(len(ops), 4 + dimension)
    return np.lexsort(keys.round(9).T[::-1])


def _shells(norms: np.ndarray, tol: float) -> np.ndarray:
    """Each joint's shell id.  Joints sorted stably by distance from the
    center stay in one shell while each gap to the next is at most
    2 tol; shells are numbered in that order."""
    order = norms.argsort(kind="stable")
    ranked = norms[order]
    shell = np.zeros(len(norms), dtype=np.intp)
    shell[order[1:]] = (ranked[1:] - ranked[:-1] > 2 * tol).cumsum()
    return shell


def _greedy_basis(P: np.ndarray, shell: np.ndarray, spanrank: int, tol: float) -> list[int]:
    """Spanning joints, max-residual greedy with a small-shell preference:
    of the joints whose residual is at least half the largest, the one
    in the smallest shell, the lowest id on a tie."""
    size = np.bincount(shell)[shell]
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
        far = rnorm >= 0.5 * rmax
        far[basis] = False
        pick = int(np.where(far, size, len(P) + 1).argmin())
        basis.append(pick)
        Q = np.vstack([Q, resid[pick] / rnorm[pick]])
    return basis


def _candidate_images(
    P: np.ndarray, basis: list[int], shell: np.ndarray, norms: np.ndarray, dot_tol: float
) -> np.ndarray:
    """Every image of the basis that keeps each basis joint in its shell
    and each inner product within dot_tol, one row of joint ids each.

    Rows grow a level at a time, all partial rows at once (in chunks of
    at most _BLOCK inner products), and come in the lexicographic order
    of their joints' places in the shells, stably sorted by norm.
    """
    gram = P[basis] @ P[basis].T
    rows = np.zeros((1, 0), dtype=np.intp)
    for level, b in enumerate(basis):
        members = (shell == shell[b]).nonzero()[0]
        members = members[norms[members].argsort(kind="stable")]
        Q = P[members]
        fits = np.abs((Q * Q).sum(axis=1) - gram[level, level]) <= dot_tol
        step = max(1, _BLOCK // (len(members) * max(level, 1)))
        grown = []
        for lo in range(0, max(len(rows), 1), step):
            part = rows[lo : lo + step]
            dots = np.abs(P[part] @ Q.T - gram[:level, level, None]) <= dot_tol
            ok = fits & dots.all(axis=1) & (part[:, :, None] != members).all(axis=1)
            k, m = np.nonzero(ok)
            grown.append(np.column_stack([part[k], members[m]]))
        rows = np.concatenate(grown)
    return rows


def _isometries(
    P: np.ndarray, basis: list[int], images: np.ndarray, tol: float, exp: int, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, ToleranceAmbiguity | None]:
    """The matched candidates' matrices, sides and joint and bar
    permutations, in candidate order, and the error that stopped them
    (_matched_permutations).

    The basis matrix B is the same for every candidate, so it is
    inverted once.  When the basis spans only a hyperplane, it is
    extended by its unit normal and each image of the basis gives two
    candidates in turn, sending the normal to +normal (side True, as for
    a basis that spans the space) and to -normal (side False).
    Every candidate's d x d matrix is held at once, as its image row is;
    only the matched ones keep permutation rows.
    """
    j, d = P.shape
    B, Bp = P[basis].T, P[images].transpose(0, 2, 1)
    if len(basis) < d:
        # rank-deficient span: extend with the normal direction, both signs
        normal = np.cross(B[:, 0], B[:, 1]) if d == 3 else np.array([-B[1, 0], B[0, 0]])
        nn = float(np.linalg.norm(normal))
        normal = normal / nn if nn else normal
        B = np.column_stack([B, normal])
        signed = np.tile(np.stack([normal, -normal]), (len(Bp), 1))[:, :, None]
        Bp = np.concatenate([np.repeat(Bp, 2, axis=0), signed], axis=2)
    upright = np.arange(len(Bp)) % 2 == 0 if len(basis) < d else np.ones(len(Bp), dtype=bool)
    try:
        Ms = np.ascontiguousarray(Bp) @ np.linalg.inv(B)
    except np.linalg.LinAlgError:
        Ms, upright = np.zeros((0, d, d)), upright[:0]
    near = np.abs(Ms.transpose(0, 2, 1) @ Ms - np.eye(d)).max(axis=(1, 2)) <= 0.05
    u, _, vt = np.linalg.svd(Ms[near])
    Ms, upright = u @ vt, upright[near]
    ids, perms, bar_perms, error = _matched_permutations(P, Ms, tol, exp, ends)
    return Ms[ids], upright[ids], perms, bar_perms, error


def _ambiguity(
    hits: np.ndarray, landed: np.ndarray, tol: float, exp: int
) -> ToleranceAmbiguity | None:
    """The error for one matrix whose joint images do not land one to
    one, or None when it is simply no symmetry.

    hits[q] counts the joints that the image of joint q lands on, and
    landed[q] is one of them.  Joints are taken in id order up to the
    first whose image does not land on exactly one joint that no earlier
    image took.  The matrix is no symmetry when that image lands on no
    joint; it is ambiguous when it lands on several or on a taken one.
    The message states tol * 2**exp, in model units when the points were
    scaled by core.unit_scaled.
    """
    bad = np.flatnonzero(hits != 1)
    stop = int(bad[0]) if bad.size else len(hits)
    order = np.argsort(landed[:stop], kind="stable")
    ranked = landed[order]
    taken = order[1:][ranked[1:] == ranked[:-1]]
    shown = float(np.ldexp(tol, exp))
    if taken.size:
        return ToleranceAmbiguity(
            f"two joints map onto joint {landed[taken.min()]} within tolerance {shown:g}"
        )
    if hits[stop] > 1:
        return ToleranceAmbiguity(
            f"the image of joint {stop} matches {hits[stop]} joints within "
            f"tolerance {shown:g}; joints are too close together for this "
            "tolerance"
        )
    return None


def _raise_if_close(kept: np.ndarray) -> None:
    """ToleranceAmbiguity for the first matrix that lies within
    _AMBIGUITY_GATE (max-abs) of an earlier one, naming the gap to the
    first such.  A gap below the gate needs a squared distance below m
    gate^2 for m entries, so only such pairs, found a block of rows at a
    time from one matrix product, are compared entry by entry."""
    X = kept.reshape(len(kept), kept[0].size if len(kept) else 0)
    sq = (X * X).sum(axis=1)
    step = max(1, _BLOCK // max(len(X), 1))
    for lo in range(1, len(X), step):
        hi = min(lo + step, len(X))
        d2 = sq[lo:hi, None] + sq[:hi] - 2 * X[lo:hi] @ X[:hi].T
        near = d2 < X.shape[1] * _AMBIGUITY_GATE**2 + 1e-12
        a, b = np.nonzero(near & (np.arange(lo, hi)[:, None] > np.arange(hi)))
        gaps = np.abs(X[lo + a] - X[b]).max(axis=1)
        if (gaps < _AMBIGUITY_GATE).any():
            raise ToleranceAmbiguity(
                f"two candidate symmetries that move the joints differently "
                f"differ by only {gaps[np.argmax(gaps < _AMBIGUITY_GATE)]:g}"
            )


def _matched_permutations(
    P: np.ndarray, Ms: np.ndarray, tol: float, exp: int = 0, ends: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, ToleranceAmbiguity | None]:
    """The ids in Ms of the matched matrices, whose joints land one to
    one on joints and whose bars, with sorted ends (none when not given),
    land on bars, and their joint and bar permutations as int64 rows of
    image ids.  The ids stop before the first matrix that _ambiguity
    finds ambiguous, and its error comes last, else None.

    Images are landed in blocks of at most _BLOCK, one pairs_within call
    each; bars are looked up only for rows whose joints land one to one.
    """
    j, d = P.shape
    ends = np.zeros((0, 2), dtype=np.int64) if ends is None else ends
    codes = ends[:, 0] * j + ends[:, 1]
    by_code = codes.argsort()
    codes = codes[by_code]
    ids = [np.zeros(0, dtype=np.intp)]
    perms = [np.zeros((0, j), dtype=np.int64)]
    bar_perms = [np.zeros((0, len(ends)), dtype=np.int64)]
    error = None
    step = max(1, _BLOCK // j)
    for lo in range(0, len(Ms), step):
        block = Ms[lo : lo + step]
        n = len(block) * j
        hits = np.zeros(n, dtype=np.intp)
        # an image that lands on no joint keeps an id of its own, below 0
        landed = -1 - np.arange(n, dtype=np.int64)
        for q, p in pairs_within(P, (P @ block.transpose(0, 2, 1)).reshape(n, d), tol):
            hits += np.bincount(q, minlength=n)
            landed[q] = p
        hits, landed = hits.reshape(-1, j), landed.reshape(-1, j)
        ranked = np.sort(landed, axis=1)
        twice = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1) | (hits > 1).any(axis=1)
        rows = ((hits == 1).all(axis=1) & ~twice).nonzero()[0]
        u, v = landed[rows[:, None], ends[:, 0]], landed[rows[:, None], ends[:, 1]]
        image = np.minimum(u, v) * j + np.maximum(u, v)
        at = np.minimum(np.searchsorted(codes, image), max(len(codes) - 1, 0))
        keep = (codes[at] == image).all(axis=1)
        for i in twice.nonzero()[0]:
            error = _ambiguity(hits[i], landed[i], tol, exp)
            if error:
                keep &= rows < i
                break
        ids.append(lo + rows[keep])
        perms.append(landed[rows[keep]])
        bar_perms.append(by_code[at[keep]])
        if error:
            break
    return np.concatenate(ids), np.concatenate(perms), np.concatenate(bar_perms), error


def detect_symmetries(
    f: Framework, geom_tol: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All point symmetries of the framework, identity included, as the
    stacks classify_group takes, in the order their keys were first found:
    matrices (g, d, d) and int64 joint and bar permutations (g, j), (g, b).

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
    shell = _shells(norms, tol)
    basis = _greedy_basis(P, shell, spanrank, tol)
    images = _candidate_images(P, basis, shell, norms, 4 * tol * scale)
    Ms, upright, perms, bar_perms, error = _isometries(P, basis, images, tol, exp, f.ends)

    # a symmetry is its joint permutation and its side of a hyperplane
    # span: one row of bytes each, the images of side False moved up by
    # j; the first candidate of each key is kept
    keys = (perms + j * ~upright[:, None]).view(np.dtype((np.void, 8 * j))).ravel()
    order = keys.argsort(kind="stable")
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[order[1:]] != keys[order[:-1]]
    first = order[new]
    first.sort()
    # the keys found before a candidate that landed ambiguously are
    # checked first, as they were reached first
    _raise_if_close(Ms[first])
    if error:
        raise error
    if not ((perms[first] == np.arange(j)).all(axis=1) & upright[first]).any():
        raise InternalInconsistency("the identity was not among the detected symmetries")
    return Ms[first], perms[first], bar_perms[first]


def _parse_label(label: str) -> tuple[str, int, str]:
    """Split an axial label into (head letter, n, suffix)."""
    parts = re.match(r"(.)(\d+)(.*)", label)
    if not parts:
        raise UnrecognizedGroup(f"cannot parse group label {label!r}")
    return parts[1], int(parts[2]), parts[3]


def _expected_group_order(label: str, dimension: int) -> int:
    fixed = {
        "C1": 1, "Cs": 2, "Ci": 2,
        "T": 12, "Td": 24, "Th": 24,
        "O": 24, "Oh": 48, "I": 60, "Ih": 120,
    }
    if label in fixed:
        return fixed[label]
    head, n, suffix = _parse_label(label)
    if head not in ("C", "S", "D"):
        raise UnrecognizedGroup(f"no expected order for label {label!r}")
    # D doubles C_n by crossing half turns, and a C or D suffix by mirrors
    return n * (2 if head == "D" else 1) * (2 if suffix and head != "S" else 1)


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
    and otherwise the last half turn, the one whose axis sorts last.
    """
    rotations = [x for x, op in enumerate(ops) if op.kind == "C"]
    if not rotations:
        return None
    if ops[rotations[0]].n > 2 or len(rotations) == 1:
        return rotations[0]
    s4 = [x for x, op in enumerate(ops) if op.kind == "S" and op.n == 4]
    if s4:
        return int(table[s4[0], s4[0]])
    return rotations[-1]


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


def _merged_classes(table: np.ndarray, inverse: np.ndarray) -> list[list[int]]:
    """Conjugacy classes merged with their inverse classes, each sorted,
    ordered by their smallest member.

    Every conjugate a i a^-1 comes from one gather; the smallest
    conjugate of i, or of its inverse when that is smaller, names i's
    merged class.
    """
    least = table[table, inverse[:, None]].min(axis=0)
    return _groups(np.minimum(least, least[inverse]))


def _groups(least: np.ndarray) -> list[list[int]]:
    """The ids grouped by their entries of least: each group ascending,
    the groups by ascending entry."""
    members = least.argsort(kind="stable")
    ranked = least[members]
    cuts = ((ranked[1:] != ranked[:-1]).nonzero()[0] + 1).tolist()
    members = members.tolist()
    return [members[a:b] for a, b in zip([0, *cuts], [*cuts, len(members)]) if a < b]


def _class_geometry_key(ops: list[IsometryOp]) -> tuple[str, int, int]:
    """The kind, n and min(k, n - k) that every member of a merged class shares."""
    keys = {(op.kind, op.n, min(op.k, op.n - op.k)) for op in ops}
    if len(keys) != 1:
        raise InternalInconsistency(f"one merged conjugacy class mixes {sorted(keys)}")
    return keys.pop()


def _assign_roles(
    label: str, dimension: int, ops: list[IsometryOp], table: np.ndarray,
    merged: list[list[int]], geometry: list[tuple[str, int, int]], r: int | None,
) -> list[str]:
    """Class roles from the element kinds and the multiplication table.

    geometry holds each class's _class_geometry_key, and r is the
    principal rotation of an axial group.  Two classes that no product
    tells apart are ordered by their last members: elements of one kind,
    n and k are listed by axis.
    """
    cubic = label in ("T", "Td", "Th", "O", "Oh", "I", "Ih")
    is_mirror = lambda x: ops[int(x)].kind == "sigma"
    c4_squares = {int(table[x, x]) for x, op in enumerate(ops) if op.kind == "C" and op.n == 4}
    inversion = next((x for x, op in enumerate(ops) if op.kind == "i"), None)
    on_axis = _powers(table, r) if r is not None else set()
    roles = [""] * len(merged)
    alt_classes: list[int] = []
    v_classes: list[int] = []

    for ci, (members, (kind, n, _)) in enumerate(zip(merged, geometry)):
        x = members[0]
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
        if label == "Th" or (label == "Cs" and dimension == 3):
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

    # the class whose last member sorts later takes the first role
    later_first = lambda ci: -merged[ci][-1]
    if len(alt_classes) > 2:
        raise InternalInconsistency("more than two classes of crossing twofold axes")
    for role, ci in zip(("alt", "alt2"), sorted(alt_classes, key=later_first)):
        roles[ci] = role

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
            for role, ci in zip(("v", "v2"), sorted(v_classes, key=later_first)):
                roles[ci] = role
    return roles


def _class_label(key: ClassKey, size: int) -> str:
    if key.kind in ("E", "i"):
        name = key.kind
    elif key.kind == "sigma":
        name = "sigma" + {"h": "_h", "d": "_d", "v": "_v", "v2": "_v'"}.get(key.role, "")
    else:
        name = f"{key.kind}{key.n}" + (f"^{key.k}" if key.k > 1 else "")
        name += {"alt": "'", "alt2": "''"}.get(key.role, "")
    return f"{size}{name}" if size > 1 else name


def _cayley_table(perms: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The multiplication table of the keyed elements, x composed after y.

    Each element is keyed by its determinant sign and its images of a
    base (Sims 1970): joints picked greedily, each the one whose image
    tells the most elements apart, until every element has its own key.
    The key packs into an int64 code a digit at a time, and the codes of
    all products are packed alongside from a gather of their images, so
    the table is read off the codes.  Keys that tell a group's elements
    apart fix its products, so closure is checked in full only on
    generators that reach every element from E.  A set that fails raises
    _missing_product, and two elements with one key ToleranceAmbiguity.
    """
    g, j = perms.shape
    codes = (signs < 0).astype(np.int64)
    table = (signs[:, None] * signs < 0).astype(np.int64)
    while True:
        # rename each code by an element that has it, and a code that none
        # has by g, so that codes stay below g + 1
        name = np.full((g + 1) * max(j, 2), g)
        name[codes] = np.arange(g)
        codes, table = name[codes], name[table]
        told = int((codes == np.arange(g)).sum())
        if told == g:
            break
        told_by = 1 + (np.diff(np.sort(codes * j + perms.T, axis=1), axis=1) != 0).sum(axis=1)
        if told_by.max(initial=told) == told:
            raise ToleranceAmbiguity(
                "two elements with the same determinant sign permute the joints alike"
            )
        b = int(np.argmax(told_by))
        codes, table = codes * j + perms[:, b], table * j + perms[:, perms[:, b]]
    if (table < g).all() and (table[0] == np.arange(g)).all():
        gens = _generators(table)
        at = table[:, gens]
        if (perms[at] == perms[:, perms[gens]]).all() and (
            signs[at] == signs[:, None] * signs[gens]
        ).all():
            return table
    raise _missing_product(perms, signs)


def _generators(table: np.ndarray) -> list[int]:
    """Elements that reach every element from E by right multiplication,
    by table: each the first element that the earlier ones do not reach,
    so that, in a group, each at least doubles the reached subgroup.  The
    walk is plain Python, a few steps per element, over their columns."""
    reached, gens, columns, frontier = [True] + [False] * (len(table) - 1), [], [], [0]
    while frontier or not all(reached):
        if not frontier:
            gens.append(reached.index(False))
            columns.append(table[:, gens[-1]].tolist())
            frontier = [x for x, hit in enumerate(reached) if hit]
        frontier = [y for y in {c[x] for c in columns for x in frontier} if not reached[y]]
        for y in frontier:
            reached[y] = True
    return gens


def _missing_product(perms: np.ndarray, signs: np.ndarray) -> NotAGroup:
    """The error for keyed elements that form no group: the first product,
    row by row, that is not among them, or else the missing identity."""
    have = {(row.tobytes(), s) for row, s in zip(perms, signs.tolist())}
    sign = signs.tolist()
    for x in range(len(perms)):
        for y, row in enumerate(perms[x][perms]):
            if (row.tobytes(), sign[x] * sign[y]) not in have:
                return NotAGroup(f"the product of elements {x} and {y} is not in the set")
    return NotAGroup("the identity is not among the elements")


def _checked_perms(perms: np.ndarray, g: int, name: str) -> np.ndarray:
    """perms as int64; ValueError naming it unless it is an integer (g, w) array in [0, w)."""
    perms = np.asarray(perms)
    if perms.ndim != 2 or len(perms) != g or perms.dtype.kind not in "iu":
        raise ValueError(f"{name} must be an integer array of shape ({g}, w), got {perms.shape}")
    if perms.size and (perms.min() < 0 or perms.max() >= perms.shape[1]):
        raise ValueError(f"{name} has an entry outside [0, {perms.shape[1]})")
    return perms.astype(np.int64, copy=False)


def classify_group(
    matrices: np.ndarray,
    joint_perms: np.ndarray,
    bar_perms: np.ndarray | None = None,
) -> PointGroupInfo:
    """Close, verify, and name a finite set of isometries as a point group.

    matrices is a (g, d, d) stack, d 2 or 3, in any row order, and
    joint_perms[x] and bar_perms[x] are the permutations of matrices[x].
    All rows are classified at once, each by the order of its key
    (_key_order), and sorted canonically (_canonical_order, stable); the
    group holds read-only copies of the permutation stacks in that
    order.  The multiplication table comes from the exact joint
    permutations, each keyed with the sign of its determinant
    (_cayley_table): when the joints span only a hyperplane, an element
    and its product with the mirror in that hyperplane permute the
    joints alike.  The label, the principal axis and the class roles are
    read from the element kinds and that table: with r the principal
    rotation, a half turn crosses the principal axis when it is no power
    of r, and a mirror s is horizontal when s r is no mirror.  Raises
    ValueError for a stack of the wrong shape or an entry out of range,
    the error of the first row that cannot be classified, NotAGroup when
    the set is not closed or lacks the identity, and UnrecognizedGroup
    when it matches no supported type.
    """
    Ms = np.asarray(matrices, dtype=float)
    if Ms.ndim != 3 or Ms.shape[1:] not in ((2, 2), (3, 3)):
        raise ValueError(f"matrices must have shape (g, d, d) with d 2 or 3, got {Ms.shape}")
    g, dimension = Ms.shape[:2]
    perms = _checked_perms(joint_perms, g, "joint_perms")
    if bar_perms is not None:
        bar_perms = _checked_perms(bar_perms, g, "bar_perms")
    proper = np.linalg.det(Ms) > 0
    orders = list(map(_key_order, perms.tolist(), proper.tolist()))
    elements = _classify_isometries(Ms, dimension, orders, proper)
    order = _canonical_order(elements, dimension)
    ops = [elements[x] for x in order]
    if not ops or ops[0].kind != "E":
        raise NotAGroup("the identity is not among the elements")
    perms = perms[order]
    perms.setflags(write=False)
    if bar_perms is not None:
        bar_perms = bar_perms[order]
        bar_perms.setflags(write=False)
    signs = np.where(proper[order], 1, -1)
    table = _cayley_table(perms, signs)
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
    geometry = [_class_geometry_key([ops[m] for m in members]) for members in merged]
    roles = _assign_roles(label, dimension, ops, table, merged, geometry, axis_id)
    keys = [ClassKey(*geo, role) for geo, role in zip(geometry, roles)]
    if len(set(keys)) != len(keys):
        raise InternalInconsistency(f"duplicate class keys in {label}: {sorted(keys)}")
    classes = [
        ConjugacyClass(key, _class_label(key, len(ids)), len(ids), tuple(ids), min(ids))
        for key, ids in zip(keys, merged)
    ]
    classes.sort(
        key=lambda c: (_KIND_RANK[c.key.kind], -c.key.n, c.key.k, _ROLE_RANK[c.key.role])
    )

    return PointGroupInfo(
        schoenflies=label,
        dimension=dimension,
        order=g,
        elements=ops,
        joint_perms=perms,
        bar_perms=bar_perms,
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
    matrices, joint_perms, bar_perms = detect_symmetries(f, geom_tol)
    try:
        return classify_group(matrices, joint_perms, bar_perms)
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


def unshifted_counts(
    f: Framework, op: IsometryOp, joint_perm: Sequence[int] | None, bar_perm: Sequence[int] | None
) -> UnshiftedCounts:
    """Count and tag the joints and bars one operation leaves in place.

    Reads the operation's joint and bar permutations, rows of a detected
    group's joint_perms and bar_perms, and no coordinates.  A fixed bar's
    tag follows from the operation's kind, the dimension and whether the
    bar's ends are swapped (_FIXED_BAR_TAGS).  A pair no isometry can
    produce, such as a rotation of order 3 swapping two joints, which
    would then fix both, raises InternalInconsistency: the permutation is
    wrong.
    """
    if joint_perm is None or bar_perm is None:
        raise ValueError("the operation needs its joint and bar permutations")
    joint_perm, bar_perm = np.asarray(joint_perm), np.asarray(bar_perm)
    fixed_joints = tuple(np.flatnonzero(joint_perm == np.arange(f.joint_count)).tolist())
    fixed_bars = tuple(np.flatnonzero(bar_perm == np.arange(f.bar_count)).tolist())

    bar_tags: dict[int, str] = {}
    for b in fixed_bars if op.kind != "E" else ():
        u, v = f.ends[b].tolist()
        swapped = int(joint_perm[u]) == v
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
    """The orbits of joints and of bars under the group action.

    The elements form a group, so the orbit of x is its image under every
    element, the column x of the group's permutations, and the least
    entry of that column names it.  Orbits come ordered by their
    smallest member.
    """
    if group.bar_perms is None:
        raise ValueError("group elements lack permutations; detect them on a framework")

    def collect(perms: np.ndarray) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, _groups(perms.min(axis=0))))

    return OrbitPartition(collect(group.joint_perms), collect(group.bar_perms))
