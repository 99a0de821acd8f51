"""Independent oracles used to freeze and cross-check expected values.

Everything here is deliberately naive: exact rational Gaussian
elimination, nearest-point matching, full subset enumeration.  The
implementations share no code with the package so that agreement
between the two is evidence, not tautology.  find_joint_permutation
alone is no oracle: it is the one-matrix entry to the package's matcher
that only tests use.  peel_per_joint shares core.peel_low_degree with
the package: it checks the batched conditioning test of numrank._peel,
not the peel itself; peel_low_degree_rows, a copy of the peel that reads
one (u, v) row per bar, checks the peel on its two id columns.
as_tuples reads a peel's (order, owner) back into that copy's tuples,
one joint at a time, so no comparison with it shares core.peel_blocks.
new_framework_per_joint likewise hands the joints it has checked to
core.new_framework: it checks the joint check alone.
kernel_per_joint takes the peel and the core's kernel: it checks the
stacked factorisation of the peeled joints in numrank._Elimination, and
the back-substitution over them, alone.  dense_reference ranks the core
that the peel (shared with the package) leaves by one dense SVD, with no
elimination: it checks numrank's _Elimination and the back-substitution
through it.  rigid_body_basis_per_field builds the rigid-body fields one
at a time and largest_singular_value_per_coordinate runs the power
iteration with one pair of bincounts per coordinate: they check
numrank's stacked fields and its one-gather, one-bincount C and C.T.
mobility_always_powered shares the peel, the elimination and the power
iteration with the package and takes the cut of all of C from the power
iteration whenever a joint was set aside: it checks the band in which
numrank._reduce skips that iteration.
"""

from __future__ import annotations

import collections
import itertools
import math
from fractions import Fraction

import numpy as np

from isoframe import numrank
from isoframe.core import Graph, new_framework, peel_low_degree, unit_scaled
from isoframe.errors import (
    DanglingEndpoint,
    DuplicateBar,
    NonFiniteEntry,
    ParseError,
    SelfLoop,
)
from isoframe.symdetect import _matched_permutations


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals


def exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank by fraction-free Gaussian elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for r in range(row + 1, len(m)):
            if m[r][col] != 0:
                factor = m[r][col] / pv
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


def rigidity_rows_exact(
    positions: list[tuple[Fraction, ...]], edges: list[tuple[int, int]]
) -> list[list[Fraction]]:
    """Rigidity matrix rows over Q: one row per bar, d entries per joint."""
    if not positions:
        return []
    d = len(positions[0])
    j = len(positions)
    rows = []
    for u, v in edges:
        row = [Fraction(0)] * (d * j)
        for t in range(d):
            diff = positions[u][t] - positions[v][t]
            row[d * u + t] = diff
            row[d * v + t] = -diff
        rows.append(row)
    return rows


def exact_rigidity_rank(
    positions: list[tuple[Fraction, ...]], edges: list[tuple[int, int]]
) -> int:
    return exact_rank(rigidity_rows_exact(positions, edges))


# ---------------------------------------------------------------------------
# point matching


def _distance(p, q) -> float:
    # squares as d * d, as numpy squares; Python's ** 2 may differ in the
    # last bit
    return math.sqrt(sum(d * d for d in (float(a) - float(b) for a, b in zip(p, q))))


def pairs_within_bruteforce(points, queries, tol: float) -> list[tuple[int, int]]:
    """Every (query, point) index pair at distance <= tol, all pairs tried."""
    return [
        (qi, pi)
        for qi, q in enumerate(queries)
        for pi, p in enumerate(points)
        if _distance(p, q) <= tol
    ]


def diameter_bruteforce(points) -> float:
    """Largest distance between two points, all pairs tried; 0.0 below two."""
    return max(
        (_distance(p, q) for p, q in itertools.combinations(points, 2)), default=0.0
    )


# ---------------------------------------------------------------------------
# fixed-point counting straight from coordinates


def brute_fixed_counts(
    coords: np.ndarray,
    edges: list[tuple[int, int]],
    matrix: np.ndarray,
    tol: float = 1e-6,
) -> tuple[int, int]:
    """(joints fixed, bars fixed setwise) under one isometry.

    The permutation is found by nearest-image matching about the
    centroid; the isometry must actually permute the joints.
    """
    center = coords.mean(axis=0)
    rel = coords - center
    images = rel @ matrix.T
    scale = max(1.0, float(np.linalg.norm(rel, axis=1).max()))
    perm = []
    for img in images:
        dist = np.linalg.norm(rel - img, axis=1)
        t = int(np.argmin(dist))
        if dist[t] > tol * scale:
            raise AssertionError("isometry does not permute the joints")
        perm.append(t)
    if sorted(perm) != list(range(len(coords))):
        raise AssertionError("image assignment is not a permutation")
    jf = sum(1 for i, t in enumerate(perm) if i == t)
    bf = 0
    for u, v in edges:
        if {perm[u], perm[v]} == {u, v}:
            bf += 1
    return jf, bf


def permutation_order_bruteforce(perm: list[int]) -> int:
    """The smallest m >= 1 with perm composed m times the identity,
    found by composing until it is."""
    identity = list(range(len(perm)))
    order, cur = 1, list(perm)
    while cur != identity:
        cur, order = [perm[c] for c in cur], order + 1
    return order


def _eigenspace(matrix: np.ndarray, value: float, tol: float = 1e-2) -> np.ndarray:
    """Orthonormal rows spanning the eigenspace of matrix for value (+-1)."""
    _, sv, vt = np.linalg.svd(matrix - value * np.eye(matrix.shape[0]))
    return vt[sv <= tol]


def _off(space: np.ndarray, p: np.ndarray) -> float:
    """Distance from p to the span of the orthonormal rows of space."""
    return float(np.linalg.norm(p - space.T @ (space @ p)))


def geometric_fixed_items(
    coords: np.ndarray,
    edges: list[tuple[int, int]],
    matrix: np.ndarray,
    tol: float,
) -> tuple[tuple[int, ...], dict[int, str]]:
    """(fixed joint ids, {bar id: tag}) of one isometry, from geometry.

    F and A are the eigenspaces of the matrix for 1 and -1, about the
    centroid.  A joint is fixed when it lies in F (within tol).  A bar
    lies in place when both ends lie in F, and is reversed when its
    midpoint lies in F and its direction in A.  Tags come from the
    dimensions of F and A; the identity tags nothing.
    """
    rel = coords - coords.mean(axis=0)
    d = matrix.shape[0]
    fixed, flipped = _eigenspace(matrix, 1.0), _eigenspace(matrix, -1.0)
    dims = (len(fixed), len(flipped))
    joints = tuple(i for i, p in enumerate(rel) if _off(fixed, p) <= tol)
    if dims[0] == d:
        return joints, {}
    tags: dict[int, str] = {}
    for b, (u, v) in enumerate(edges):
        if u in joints and v in joints:
            tags[b] = {1: "along_axis", d - 1: "in_plane"}[dims[0]]
        elif (
            _off(fixed, (rel[u] + rel[v]) / 2) <= tol
            and _off(flipped, rel[u] - rel[v]) <= tol
        ):
            tags[b] = {
                (0, d): "centered_at_origin",
                (0, 1): "along_axis",
                (1, 2): "perpendicular_to_axis",
                (d - 1, 1): "perpendicular_to_plane",
            }[dims]
    return joints, tags


def assembled_trace(
    coords: np.ndarray,
    edges: list[tuple[int, int]],
    matrix: np.ndarray,
    tol: float = 1e-6,
) -> float:
    """Mobility-count trace of one operation, assembled from scratch.

    joints_fixed * tr(M) - bars_fixed - tr(M) - rot_trace, where the
    rotational part transforms like an axial vector: det(M) * tr(M) in
    3D, det(M) alone for the single 2D rotation coordinate.
    """
    jf, bf = brute_fixed_counts(coords, edges, matrix, tol)
    trm = float(np.trace(matrix))
    det = float(np.linalg.det(matrix))
    d = matrix.shape[0]
    rot = det * trm if d == 3 else det
    return jf * trm - bf - trm - rot


# ---------------------------------------------------------------------------
# subset-enumeration sparsity oracle


def laman_verdict_bruteforce(
    joint_count: int, edges: list[tuple[int, int]]
) -> str:
    """tight / independent-but-underbraced / dependent, by enumeration.

    An edge set is independent exactly when every joint subset with at
    least two joints induces at most 2 j* - 3 edges.
    """
    for size in range(2, joint_count + 1):
        for subset in itertools.combinations(range(joint_count), size):
            inside = set(subset)
            induced = sum(1 for u, v in edges if u in inside and v in inside)
            if induced > 2 * size - 3:
                return "dependent"
    if len(edges) == 2 * joint_count - 3:
        return "tight"
    return "independent-but-underbraced"


def connected_induced_subgraphs_bruteforce(
    joint_count: int, edges: list[tuple[int, int]], cap: int
) -> list[tuple[int, ...]]:
    """All connected induced joint subsets of size 3..cap, sorted."""
    adj: list[set[int]] = [set() for _ in range(joint_count)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    found = []
    for size in range(3, cap + 1):
        for subset in itertools.combinations(range(joint_count), size):
            inside = set(subset)
            seen = {subset[0]}
            stack = [subset[0]]
            while stack:
                x = stack.pop()
                for y in adj[x] & inside:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == size:
                found.append(subset)
    return sorted(found, key=lambda s: (len(s), s))


def count_violations_bruteforce(
    joint_count: int, edges: list[tuple[int, int]], cap: int
) -> list[tuple[tuple[int, ...], int]]:
    """Connected induced subsets with 3 j* - b* - 6 < 0, with their slack."""
    out = []
    for subset in connected_induced_subgraphs_bruteforce(
        joint_count, edges, cap
    ):
        inside = set(subset)
        induced = sum(1 for u, v in edges if u in inside and v in inside)
        slack = 3 * len(subset) - induced - 6
        if slack < 0:
            out.append((subset, slack))
    return out


def pebble_game_plain(
    joint_count: int, edges: list[tuple[int, int]]
) -> dict:
    """The (2,3) pebble game with bars offered in id order and no peel.

    Each missing pebble is fetched by a breadth-first search along the
    placed edges.  A rejected bar's witness is every joint reachable
    from its two ends, which then hold the region's only 3 pebbles.
    Returns the fields of a SparsityReport.
    """
    pebbles = [2] * joint_count
    heads: list[list[int]] = [[] for _ in range(joint_count)]

    def fetch(root: int, blocked: int) -> bool:
        came_from = {root: root, blocked: blocked}
        queue = collections.deque([root])
        while queue:
            x = queue.popleft()
            for y in heads[x]:
                if y in came_from:
                    continue
                came_from[y] = x
                if pebbles[y]:
                    pebbles[y] -= 1
                    pebbles[root] += 1
                    while y != root:
                        x = came_from[y]
                        heads[x].remove(y)
                        heads[y].append(x)
                        y = x
                    return True
                queue.append(y)
        return False

    report = {
        "joint_count": joint_count,
        "bar_count": len(edges),
        "witness_joint_ids": (),
        "witness_bar_ids": (),
        "witness_joint_total": 0,
        "witness_bar_total": 0,
    }
    for k, (u, v) in enumerate(edges):
        while pebbles[u] + pebbles[v] < 4:
            if not (pebbles[u] < 2 and fetch(u, v)) and not (
                pebbles[v] < 2 and fetch(v, u)
            ):
                break
        if pebbles[u] + pebbles[v] < 4:
            region = {u, v}
            stack = [u, v]
            while stack:
                for y in heads[stack.pop()]:
                    if y not in region:
                        region.add(y)
                        stack.append(y)
            bars = tuple(
                i for i, (a, b) in enumerate(edges[: k + 1]) if {a, b} <= region
            )
            return {
                **report,
                "verdict": "dependent",
                "free_pebbles": sum(pebbles),
                "witness_joint_ids": tuple(sorted(region)),
                "witness_bar_ids": bars,
                "witness_joint_total": len(region),
                "witness_bar_total": len(bars),
            }
        tail = u if pebbles[u] else v
        pebbles[tail] -= 1
        heads[tail].append(u + v - tail)
    free = sum(pebbles)
    verdict = "tight" if free == 3 else "independent-but-underbraced"
    return {**report, "verdict": verdict, "free_pebbles": free}


def three_core(joint_count: int, edges: list[tuple[int, int]]) -> set[int]:
    """The joints left after deleting joints of degree <= 2 until none is left."""
    alive = set(range(joint_count))
    while True:
        low = {
            x
            for x in alive
            if sum(1 for u, v in edges if x in (u, v) and {u, v} <= alive) <= 2
        }
        if not low:
            return alive
        alive -= low


# ---------------------------------------------------------------------------
# random graph and configuration generators (seeded by the caller)


def henneberg_tight_graph(rng, joint_count: int) -> list[tuple[int, int]]:
    """A (2,3)-tight graph grown by random vertex additions and edge splits."""
    if joint_count < 2:
        raise ValueError("need at least two joints")
    edges = {(0, 1)}
    for w in range(2, joint_count):
        if w >= 4 and rng.random() < 0.4:
            # edge split: remove uv, join w to u, v and a third joint
            u, v = sorted(rng.choice(sorted(edges)))
            edges.remove((u, v))
            others = [x for x in range(w) if x not in (u, v)]
            x = rng.choice(others)
            edges.update({(u, w), (v, w), (min(x, w), max(x, w))})
        else:
            a, b = rng.sample(range(w), 2)
            edges.update({(min(a, w), max(a, w)), (min(b, w), max(b, w))})
    assert len(edges) == 2 * joint_count - 3
    return sorted(edges)


def random_count_graph(rng, joint_count: int) -> list[tuple[int, int]]:
    """A uniformly random simple graph with exactly 2 j - 3 edges."""
    allpairs = [
        (u, v)
        for u in range(joint_count)
        for v in range(u + 1, joint_count)
    ]
    need = 2 * joint_count - 3
    if need > len(allpairs):
        raise ValueError("too few possible edges")
    return sorted(rng.sample(allpairs, need))


def random_rational_config(
    rng, joint_count: int, dimension: int = 2
) -> list[tuple[Fraction, ...]]:
    """Random rational positions, exact for the rational rank oracle."""
    return [
        tuple(
            Fraction(rng.randrange(-10_000, 10_000), 1009)
            for _ in range(dimension)
        )
        for _ in range(joint_count)
    ]


def henneberg_graph(
    rng, dimension: int, joint_count: int, split_share: float
) -> list[tuple[int, int]]:
    """A generically isostatic graph in dimension 2 or 3, grown from a
    triangle by Henneberg moves.

    Each new joint w either joins `dimension` earlier joints drawn at
    random (vertex addition, type I) or, with probability `split_share`
    once there are enough joints, replaces a random bar uv by bars from
    w to u, v and the dimension - 1 other joints of least degree, ties
    broken at random (edge split, type II).  Either move adds
    `dimension` bars, so the graph has d j - d(d+1)/2 of them.
    """
    d = dimension
    edges = {(0, 1), (0, 2), (1, 2)}
    degree = [2, 2, 2] + [0] * (joint_count - 3)
    for w in range(3, joint_count):
        if w > d and rng.random() < split_share:
            u, v = rng.choice(sorted(edges))
            edges.remove((u, v))
            degree[u] -= 1
            degree[v] -= 1
            rest = sorted(
                (x for x in range(w) if x not in (u, v)),
                key=lambda x: (degree[x], rng.random()),
            )
            parents = [u, v] + rest[: d - 1]
        else:
            parents = rng.sample(range(w), d)
        for x in parents:
            edges.add((x, w))
            degree[x] += 1
        degree[w] = len(parents)
    assert len(edges) == d * joint_count - d * (d + 1) // 2
    return sorted(edges)


def find_joint_permutation(
    P: np.ndarray, M: np.ndarray, tol: float, exp: int = 0
) -> tuple[int, ...] | None:
    """The joint that each joint's image under M lands on, within tol:
    None when M is no symmetry (see symdetect._ambiguity)."""
    _, perms, _, error = _matched_permutations(P, M[None], tol, exp)
    if error:
        raise error
    return tuple(perms[0].tolist()) if len(perms) else None


# ---------------------------------------------------------------------------
# detection's shells and element order, one joint or element at a time


def shells_by_chaining(norms: np.ndarray, tol: float) -> list[list[int]]:
    """Joints sorted stably by norm, in shells: a joint joins the shell
    of the one before it when their norms differ by at most 2 tol."""
    order = np.argsort(norms, kind="stable")
    shells: list[list[int]] = [[int(order[0])]]
    for prev, cur in zip(order[:-1], order[1:]):
        if norms[cur] - norms[prev] <= 2 * tol:
            shells[-1].append(int(cur))
        else:
            shells.append([int(cur)])
    return shells


_KIND_RANK = {"E": 0, "C": 1, "i": 2, "S": 3, "sigma": 4}


def canonical_sort_key(op) -> tuple:
    """The canonical element order: by kind, higher n first, then k and
    the axis rounded to 9 decimals by Python's round (no axis first)."""
    axis = () if op.axis is None else tuple(round(float(c), 9) for c in op.axis)
    return (_KIND_RANK[op.kind], -op.n, op.k, axis)


# ---------------------------------------------------------------------------
# group structure by full composition


def cayley_table(perms, signs) -> list[list[int | None]]:
    """table[x][y]: the element that x composed after y is, found by
    comparing the full permutation and determinant sign of every product
    with those of every element; None when it is none of them."""
    keyed = [(tuple(p), s) for p, s in zip(perms, signs)]
    table = []
    for p, s in keyed:
        row = []
        for q, t in keyed:
            product = (tuple(p[i] for i in q), s * t)
            row.append(next((z for z, key in enumerate(keyed) if key == product), None))
        table.append(row)
    return table


def inverses(table: list[list[int]]) -> list[int]:
    """The inverse of each element: the y with x y the identity."""
    identity = next(e for e, row in enumerate(table) if row == list(range(len(table))))
    return [row.index(identity) for row in table]


def merged_conjugacy_classes(table: list[list[int]]) -> set[tuple[int, ...]]:
    """Each conjugacy class joined with the class of its inverses."""
    inverse = inverses(table)
    classes = set()
    for x in range(len(table)):
        conjugates = {table[table[a][x]][inverse[a]] for a in range(len(table))}
        conjugates |= {inverse[c] for c in conjugates}
        classes.add(tuple(sorted(conjugates)))
    return classes


# ---------------------------------------------------------------------------
# input checks and the numeric peel, one row or one joint at a time


def check_json_rows_per_row(rows: list, types, what: str) -> None:
    """core.check_json_rows as a loop: ParseError at the first row that
    is not a list of `types` values, bools refused."""
    for row in rows:
        if not isinstance(row, list) or not all(
            isinstance(x, types) and not isinstance(x, bool) for x in row
        ):
            raise ParseError(f"bad {what} row: {row!r}")


def bar_ends_per_row(joint_count: int, bar_pairs) -> np.ndarray:
    """core.bar_ends as a loop over the bars, naming the first fault."""
    if not 0 <= joint_count < 2**63:
        raise ParseError(f"joint count must be in [0, 2**63), got {joint_count!r}")
    seen: dict[tuple[int, int], None] = {}
    for k, pair in enumerate(bar_pairs):
        pair = list(pair)
        if len(pair) != 2:
            raise ParseError(f"bar {k} must have exactly two endpoints, got {pair!r}")
        u, v = map(int, pair)
        if u == v:
            raise SelfLoop(f"bar {k} connects joint {u} to itself")
        if not (0 <= u < joint_count and 0 <= v < joint_count):
            raise DanglingEndpoint(f"bar {k} references missing joint in ({u}, {v})")
        ends = (u, v) if u < v else (v, u)
        if ends in seen:
            raise DuplicateBar(f"bar {k} duplicates pair {ends}")
        seen[ends] = None
    return np.array(list(seen), dtype=np.int64).reshape(-1, 2)


def new_framework_per_joint(dimension: int, positions, bar_pairs):
    """core.new_framework with the joints checked by a loop over the
    joints, naming the first fault, before new_framework sees them."""
    if dimension not in (2, 3):
        raise ParseError(f"dimension must be 2 or 3, got {dimension!r}")
    rows = []
    for i, pos in enumerate(positions):
        tup = tuple(float(x) for x in pos)
        if len(tup) != dimension:
            raise ParseError(
                f"joint {i} has {len(tup)} coordinates, expected {dimension}"
            )
        if not all(math.isfinite(x) for x in tup):
            raise NonFiniteEntry(f"joint {i} has a non-finite coordinate: {tup}")
        rows.append(tup)
    return new_framework(dimension, rows, bar_pairs)


def peel_per_joint(system, d: int, floor: float):
    """numrank._peel with the conditioning test run on each joint as the
    peel reaches it: the smallest eigenvalue of the Gram matrix of its
    live bars' unit directions must be at least floor**2."""

    def accept(bars: list[int]) -> bool:
        if len(bars) <= 1:
            return True
        U = system.units[bars]
        return np.linalg.eigvalsh(U @ U.T)[0] >= floor * floor

    return peel_low_degree(Graph(system.joint_count, system.ends), d, accept)


def as_tuples(peel):
    """A peel (order, owner) as the tuples core.peel_low_degree once gave:
    the peeled joints in peel order, the bars of each, ids ascending, and
    a live flag per bar, read off owner one joint at a time."""
    order, owner = (a.tolist() for a in peel)
    blocks = tuple(tuple(i for i, w in enumerate(owner) if w == v) for v in order)
    return tuple(order), blocks, tuple(w < 0 for w in owner)


def peel_low_degree_rows(joint_count: int, ends, d: int, accept=None):
    """core.peel_low_degree as it read one (u, v) row per bar: the same
    reverse vertex addition, with the far end of bar i at ends[i]."""
    incident: list[list[int]] = [[] for _ in range(joint_count)]
    for i, (u, v) in enumerate(ends):
        incident[u].append(i)
        incident[v].append(i)
    degree = [len(bars) for bars in incident]
    live = [True] * len(ends)
    peeled = [False] * joint_count
    todo = [v for v, k in enumerate(degree) if k <= d]
    order: list[int] = []
    blocks: list[tuple[int, ...]] = []
    while todo:
        v = todo.pop()
        if peeled[v]:
            continue
        bars = [i for i in incident[v] if live[i]]
        if accept is not None and not accept(bars):
            continue
        peeled[v] = True
        order.append(v)
        blocks.append(tuple(bars))
        for i in bars:
            live[i] = False
            w = ends[i][0] + ends[i][1] - v
            degree[w] -= 1
            if degree[w] <= d:
                todo.append(w)
    return tuple(order), tuple(blocks), tuple(live)


def kernel_per_joint(system, peel, core_null: np.ndarray) -> np.ndarray:
    """numrank._Elimination.kernel over a peel, with one QR and one solve
    per peeled joint as the reverse peel reaches it: orthonormal rows
    spanning null(C), from core_null, rows spanning the kernel of the
    core's bars on the core joints' columns."""
    order, blocks, _ = as_tuples(peel)
    j, d = system.joint_count, system.units.shape[1]
    core_joints = np.delete(np.arange(j), order)
    count = len(core_null)
    X = np.zeros((count + sum(d - len(bars) for bars in blocks), j, d))
    X[:count][:, core_joints] = core_null.reshape(count, core_joints.size, d)
    for v, bars in zip(reversed(order), reversed(blocks)):
        bars = list(bars)
        k = len(bars)
        U = system.units[bars]
        q, r = np.linalg.qr(U.T, mode="complete")
        if k:
            others = system.ends[bars].sum(axis=1) - v
            rhs = np.einsum("kd,nkd->nk", U, X[:count, others])
            X[:count, v] = np.linalg.solve(r[:k].T, rhs.T).T @ q[:, :k].T
        X[count : count + d - k, v] = q[:, k:].T
        count += d - k
    q, _ = np.linalg.qr(X.reshape(len(X), -1).T)
    return q.T


def dense_reference(f, tol: float = numrank.DEFAULT_RANK_TOL):
    """numrank's (rank, stress basis, mechanism basis) with the core that
    the peel leaves ranked whole by one full SVD of its block of the
    dense C, cut at tol times the largest singular value of all of C,
    and the kernel extended by kernel_per_joint."""
    d, j, b = f.dimension, f.joint_count, f.bar_count
    system = numrank.build_system(f)
    peel = numrank._peel(f, system, max(1e-3, math.sqrt(tol)))
    core_joints = np.delete(np.arange(j), peel[0])
    core_bars = np.flatnonzero(peel[1] < 0)
    columns = (d * core_joints[:, None] + np.arange(d)).ravel()
    u, sv, vt = np.linalg.svd(system.C[np.ix_(core_bars, columns)], full_matrices=True)
    top = np.linalg.svd(system.C, compute_uv=False)[0] if sv.size else 0.0
    core_rank = int(np.sum(sv > tol * top)) if top else 0
    stress = np.zeros((core_bars.size - core_rank, b))
    stress[:, core_bars] = u[:, core_rank:].T
    kernel = kernel_per_joint(system, peel, vt[core_rank:])
    rb = numrank.rigid_body_basis(f)
    proj = kernel - (kernel @ rb.T) @ rb
    mech = np.zeros((0, d * j))
    if proj.size:
        _, s2, v2 = np.linalg.svd(proj, full_matrices=False)
        mech = v2[s2 > 0.5]
    return b - core_bars.size + core_rank, stress, mech


def rigid_body_basis_per_field(f) -> np.ndarray:
    """numrank.rigid_body_basis with its fields built one at a time: the d
    unit translations, then the rotation (-y, x) in 2D, or one np.cross
    per axis e, e x p, in 3D, about the centroid in units of the diameter."""
    d, j = f.dimension, f.joint_count
    if j == 0:
        return np.zeros((0, 0))
    coords, _ = unit_scaled(f.coordinates)
    coords = (coords - coords.mean(axis=0)) / (f.scaled_diameter()[0] or 1.0)
    fields: list[np.ndarray] = []
    for axis in range(d):
        t = np.zeros((j, d))
        t[:, axis] = 1.0
        fields.append(t.ravel())
    if d == 2:
        fields.append(np.stack([-coords[:, 1], coords[:, 0]], axis=1).ravel())
    else:
        for e in np.eye(3):
            fields.append(np.cross(np.broadcast_to(e, coords.shape), coords).ravel())
    _, sv, vt = np.linalg.svd(np.stack(fields), full_matrices=False)
    return vt[: int(np.sum(sv > 1e-12 * sv[0]))]


def largest_singular_value_per_coordinate(system, start: np.ndarray) -> float:
    """numrank._largest_singular_value with C applied as the difference of
    the ends' velocities along each unit direction, and C.T as two
    bincounts per coordinate, one for each end."""
    a, b = system.ends.T
    j, d = system.joint_count, system.units.shape[1]
    x = start
    for _ in range(numrank._POWER_STEPS):
        w = np.einsum("bd,bd->b", system.units, x[a] - x[b])
        forces = w[:, None] * system.units
        x = np.stack(
            [np.bincount(a, c, j) - np.bincount(b, c, j) for c in forces.T], axis=1
        )
        norm = np.linalg.norm(x)
        if norm == 0.0:
            return 0.0
        x = x / norm
    return float(np.linalg.norm(np.einsum("bd,bd->b", system.units, x[a] - x[b])))


def mobility_always_powered(f, tol: float = numrank.DEFAULT_RANK_TOL) -> tuple[int, int, int]:
    """numrank.mobility's (rank, m, s), with the largest singular value of
    all of C from the power iteration whenever a joint was set aside and
    a remainder is left, whatever the remainder's singular values."""
    d, j, b = f.dimension, f.joint_count, f.bar_count
    system = numrank.build_system(f)
    floor = max(1e-3, math.sqrt(tol))
    elim = numrank._Elimination(system, numrank._peel(f, system, floor), floor, False)
    remainder = elim.remainder()
    sv = np.linalg.svd(remainder, compute_uv=False) if remainder.size else np.zeros(0)
    top = sv[0] if sv.size else 0.0
    if elim.set_aside and sv.size:
        top = max(top, numrank._largest_singular_value(system, unit_scaled(f.coordinates)[0]))
    rank = elim.pivots + numrank._rank(sv, tol, top)
    return rank, d * j - rank - numrank.rigid_body_dimension(f), b - rank


# ---------------------------------------------------------------------------
# rank over GF(p) with rows swapped into place


def rank_mod_p_swapping(m: np.ndarray, p: int) -> int:
    """laman._rank_mod_p as row echelon form: each pivot row is swapped
    up to the next rank position and scaled to a leading 1; m is
    overwritten."""
    rank = 0
    for c in range(m.shape[1]):
        live = rank + np.flatnonzero(m[rank:, c])
        if live.size == 0:
            continue
        pivot = live[0]
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        m[rank, c:] = m[rank, c:] * pow(int(m[rank, c]), -1, p) % p
        below = live[1:]
        if below.size:
            m[below, c:] = (m[below, c:] - np.outer(m[below, c], m[rank, c:])) % p
        rank += 1
        if rank == m.shape[0]:
            break
    return rank
