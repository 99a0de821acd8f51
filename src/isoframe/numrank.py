"""Numeric rigidity analysis: one matrix, one rank decision.

The compatibility matrix C, shape (b, d*j), has one row per bar (u, v):
the unit direction (p_u - p_v) / |p_u - p_v| in the u block and its
negative in the v block.  C maps joint velocities to bar extension
rates; its transpose, the equilibrium matrix, maps bar tensions to
joint loads.  Infinitesimal mechanisms live in null(C) modulo
rigid-body motions, states of self-stress in null(C.T).

Rank is decided once, on C, by the relative cutoff in `_rank`.  Every
row of C has unit norm, so the decision does not depend on how widely
the bar lengths are spread.

Before the SVD, joints that add a known amount to the rank are set
aside.  `_peel` reverses Henneberg's vertex addition (Tay & Whiteley
1985, "Generating isostatic frameworks"): a joint whose k <= d live bars
have well-conditioned unit directions meets only those k rows of C, so
it adds exactly k to the rank.  A framework grown by vertex additions
peels to an empty core; one grown by edge splits keeps every joint in
it.  A core of more than _DENSE_ROWS bars is then eliminated joint by
joint in minimum live-row order (`_Elimination`): a Householder QR of
each joint's k x d block sets d pivot rows aside and leaves k - d fill
rows on its neighbours.  A peeled joint is the case k <= d, whose rows
leave whole.  The dense SVD ranks only the remainder, against the cutoff
of the whole C.  `nullspace_bases` carries the remainder's null spaces
back over every joint set aside, one stored step per joint; C and C.T
are applied from the bar arrays, so no matrix the size of C is formed
unless C is the remainder, and the basis path takes
O(b + fill + remainder^2) memory.

At loose tolerances the two can part: the peel and the elimination
count each well-conditioned joint exactly, where an SVD of all of C can
drop the small singular values that build up along a long chain.  A
120-joint planar chain at tolerance 1e-2 has rank 2j - 3 here, and less
by a dense SVD.  So can a C whose smallest singular value is below the
cutoff while no joint is ill-conditioned.  At the default tolerance the
two agree on every gallery fixture and benchmark input.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InternalInconsistency, NonFiniteEntry, ZeroLengthBar
from .core import SEPARATION_TOL, Framework, Peel, peel_low_degree, unit_scaled

# Singular values below DEFAULT_RANK_TOL * largest are treated as zero.
DEFAULT_RANK_TOL = 1e-10
# power-iteration steps for the largest singular value of C
_POWER_STEPS = 12
# p @ _SPIN[d] stacks the velocities of a point p under the unit rotations:
# (-y, x) in 2D, e x p about each axis e in 3D
_SPIN = {2: np.array([[[0.0, 1.0], [-1.0, 0.0]]]), 3: np.cross(np.eye(3)[:, None], np.eye(3))}
# A core of at most this many bars goes whole to the dense SVD; a larger
# one is eliminated first (_Elimination).  On edge-split cores of 84 to
# 240 bars (BLAS on one thread), mobility plus nullspace_bases break even
# at about 180 bars in 3D and 220 in 2D, mobility alone above 240; the
# basis path's tracemalloc peak is 1.5-5.4x lower with elimination at
# every size.  No gallery or screen3d core has more than 84 bars.
_DENSE_ROWS = 200
# Elimination stops once a live row meets on average more than this
# share of the live joints: the remainder is then nearly dense.  On
# edge-split cores of 600 to 4000 bars, shares from 0.1 to 0.5 leave
# remainders within 16% of each other in size and take the same time
# within noise; never stopping (share 1) takes 20x longer at 2000 bars.
_DENSE_SHARE = 0.3


@dataclass(frozen=True)
class EquilibriumSystem:
    """One framework's first-order behavior as a single matrix.

    The i-th bar joins ends[i, 0] to ends[i, 1] along the unit direction
    units[i] and has length lengths[i].  C is the compatibility matrix
    of those directions (its transpose is the equilibrium matrix), built
    on first use.
    """

    ends: np.ndarray
    units: np.ndarray
    lengths: np.ndarray
    joint_count: int

    @cached_property
    def C(self) -> np.ndarray:
        return _assemble(self.ends, self.units, self.joint_count)

    @cached_property
    def nonzeros(self) -> tuple[np.ndarray, np.ndarray]:
        """C's 2bd entries (2, b, d), units then negatives, and their columns."""
        d = self.units.shape[1]
        cols = d * self.ends.T[..., None] + np.arange(d)
        return np.stack([self.units, -self.units]), cols.ravel()


def _assemble(ends: np.ndarray, units: np.ndarray, joint_count: int) -> np.ndarray:
    """The compatibility matrix of bars with these ends and directions."""
    b, d = units.shape
    C = np.zeros((b, d * joint_count))
    rows = np.arange(b)[:, None]
    C[rows, d * ends[:, :1] + np.arange(d)] = units
    C[rows, d * ends[:, 1:] + np.arange(d)] = -units
    return C


def build_system(f: Framework) -> EquilibriumSystem:
    coords, exp = unit_scaled(f.coordinates)
    diff = coords[f.ends[:, 0]] - coords[f.ends[:, 1]]
    lengths = np.linalg.norm(diff, axis=1)
    short = np.flatnonzero(lengths <= SEPARATION_TOL * f.scaled_diameter()[0])
    if short.size:
        # unreachable through new_framework, which rejects coincident
        # joints; kept for hand-built Framework objects
        u, v = f.ends[short[0]]
        raise ZeroLengthBar(f"bar {short[0]} between joints {u} and {v}")
    units = diff / lengths[:, None]
    if not np.all(np.isfinite(units)):
        raise NonFiniteEntry("bar directions contain NaN or infinite entries")
    return EquilibriumSystem(
        ends=f.ends, units=units, lengths=np.ldexp(lengths, exp), joint_count=f.joint_count
    )


def _check_tolerance(tol: float) -> None:
    if not 0 < tol < 1:
        raise ValueError(f"rank tolerance must lie in (0, 1), got {tol!r}")


def _rank(sv: np.ndarray, tol: float, top: float | None = None) -> int:
    """How many of the singular values sv exceed tol * top; top is the
    largest singular value of the matrix ranked, sv[0] by default."""
    _check_tolerance(tol)
    if top is None:
        top = sv[0] if sv.size else 0.0
    if top == 0.0:
        return 0
    return int(np.sum(sv > tol * top))


def numeric_rank(M: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> tuple[int, np.ndarray]:
    """Rank by SVD with a relative threshold.

    Returns (rank, singular values descending).  Matrices with no rows
    or no columns have rank 0 and an empty singular value list.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NonFiniteEntry("matrix contains NaN or infinite entries")
    sv = np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0)
    return _rank(sv, tol), sv


def _conditioned(U: np.ndarray, floor: float) -> bool:
    """Whether each k x d block of the stack U has its min(k, d)-th
    singular value at least floor, read from the smaller Gram matrix."""
    T = U.swapaxes(-1, -2)
    G = T @ U if U.shape[-2] > U.shape[-1] else U @ T
    return min(np.linalg.eigvalsh(G)[..., :1].ravel().tolist(), default=1.0) >= floor * floor


def _peel(f: Framework, system: EquilibriumSystem, floor: float) -> Peel:
    """Set aside the joints that add a known amount to the rank of C.

    A joint whose k <= d live bars have unit directions U (k x d) with
    smallest singular value at least `floor`, read from the k x k Gram
    matrix U U^T, meets only those k rows of C, and they are independent:
    it adds exactly k to the rank.  Its bars die with it, and the next
    joint is tried.  Dropping bars never worsens a joint's conditioning,
    so which joints peel does not depend on the order they are tried in.
    The test runs once per block size k = 2..d, over the framework's
    plain peel (`Framework.peel`, which takes every joint it can and is
    kept): if no block fails, a peel testing each joint as it came takes
    the same ones, so only a refusal reruns the peel joint by joint.

    Returns the peeled joints in peel order, the live bars of each when
    it was peeled, and which bars are left in the core.
    """

    def conditioned(blocks) -> bool:  # blocks: sequences of bar ids
        return all(
            _conditioned(system.units[[bars for bars in blocks if len(bars) == k]], floor)
            for k in set(map(len, blocks)) - {0, 1}
        )

    d = f.dimension
    peel = f.peel(d)
    if conditioned(peel[1]):
        return peel
    us, vs = f.ends.T.tolist()
    return peel_low_degree(f.joint_count, us, vs, d, lambda bars: conditioned([bars]))


def _image(system: EquilibriumSystem, x: np.ndarray) -> np.ndarray:
    """C @ x[i], extension rates (n, b), for velocity fields x of shape
    (n, j, d): one gather of x at C's nonzeros and one einsum."""
    entries, cols = system.nonzeros
    at = x.reshape(len(x), x.shape[1] * x.shape[2])[:, cols]
    return np.einsum("kbd,nkbd->nb", entries, at.reshape(len(x), *entries.shape))


def _loads(system: EquilibriumSystem, w: np.ndarray) -> np.ndarray:
    """C.T @ w[i], joint loads (n, j, d), for bar tensions w of shape
    (n, b): one bincount over C's nonzeros times the tensions."""
    entries, cols = system.nonzeros
    n, j, d = len(w), system.joint_count, entries.shape[2]
    at = (cols + j * d * np.arange(n)[:, None]).ravel()
    return np.bincount(at, (w[:, None, :, None] * entries).ravel(), n * j * d).reshape(n, j, d)


def _largest_singular_value(system: EquilibriumSystem, start: np.ndarray) -> float:
    """Power iteration on C.T @ C, one `_image` and one `_loads` a step.

    The start is the dilation field (the joint coordinates), whose image
    under C is the bar lengths, so the estimate does not depend on how
    joints and bars are labelled.  It is a lower bound, close to the
    largest singular value after _POWER_STEPS steps.
    """
    x = start[None]
    for _ in range(_POWER_STEPS):
        x = _loads(system, _image(system, x))
        norm = np.linalg.norm(x)
        if norm == 0.0:
            return 0.0
        x /= norm
    return float(np.linalg.norm(_image(system, x)))


def _back(R: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Back-substitution steps, stacked: pivot rows R (..., p, d) on a
    joint's columns and X (..., p, n) on its neighbours'.  Returns W and
    new: x_v = x_others @ W is the least-norm x_v with R x_v = -X x_others,
    and the rows of new span the d - p directions that R does not see.
    A square R takes one solve, any other a complete QR of R.T."""
    p, d = R.shape[-2:]
    if p == d:
        return -np.linalg.solve(R, X).swapaxes(-1, -2), R[..., :0, :]
    q, r = np.linalg.qr(R.swapaxes(-1, -2), mode="complete")
    solve = np.linalg.solve(r[..., :p, :], q[..., :p].swapaxes(-1, -2))
    return -X.swapaxes(-1, -2) @ solve, q[..., p:].swapaxes(-1, -2)


class _Elimination:
    """The joints set aside before the SVD, peeled or eliminated, and the
    remainder they leave.

    The peeled joints come first.  If more than _DENSE_ROWS bars are
    left, the core's joints are eliminated in minimum live-row order
    (George & Heath 1980, "Solution of sparse linear least squares
    problems using Givens rotations").  A live row is a bar, or a fill
    row an earlier step made.  Each step takes the live joint v with the
    fewest live rows, k of them, ties by id; their entries on v's d
    columns form the block U.  If U fails the peel's conditioning test,
    v stays live and is tried again once its count of live rows changes.
    Otherwise the complete QR U = Q R is applied to the k rows: the first
    p = min(k, d) are pivot rows and leave, so v adds exactly p to the
    rank; the other k - p are zero on v and stay, as fill on the union of
    the rows' joints minus v (k <= d rows, the peel's case, leave as they
    are).  Elimination stops when no joint is left to try, or once a live
    row meets on average more than _DENSE_SHARE of the live joints.  Q
    keeps singular values, so rank = pivots + the rank of the remainder,
    the live rows on the live joints' columns.

    With keep, each joint set aside is kept as one step (v, others, W,
    new) for `kernel`, the peeled joints factored by one stacked pass per
    block size, and each step that made fill rows keeps its Q for
    `stresses`: O(b + fill) memory, nothing of the size of C.
    """

    def __init__(self, system: EquilibriumSystem, peel: Peel, floor: float, keep: bool):
        order, blocks, live = peel
        self.system = system
        self.d = system.units.shape[1]
        self.steps: list[tuple] = self._peeled(order, blocks) if keep else []
        self.reflections: list[tuple] = []  # (rows in, fill rows, Q's last k - d columns)
        self.alive = live  # the bars, then the fill rows
        self.at: list = []  # the joints of each row, an int array (made by _eliminate)
        self.vals: list = []  # its d-blocks on them
        self.pos = np.zeros(system.joint_count, dtype=np.intp)  # a joint's place in a block
        done = np.zeros(system.joint_count, dtype=bool)
        done[list(order)] = True
        self.rows = np.flatnonzero(live)
        self.pivots = len(live) - len(self.rows)  # a peeled joint's k bars add k
        if len(self.rows) > _DENSE_ROWS:
            self._eliminate(done, floor, keep)
        self.joints = np.flatnonzero(~done)
        self.set_aside = system.joint_count - len(self.joints)

    def _peeled(self, order: tuple[int, ...], blocks: tuple[tuple[int, ...], ...]) -> list:
        """The peeled joints' steps, in peel order.  Joint v's k bars i to
        joints w_i ask u_i . x_v = u_i . x_(w_i): its pivot rows are the
        unit directions U, and X holds -U, block-diagonally on the w_i."""
        ends, units, d = self.system.ends, self.system.units, self.d
        steps: list = [None] * len(order)
        for k in set(map(len, blocks)):
            at = [i for i, bars in enumerate(blocks) if len(bars) == k]
            bars = np.array([blocks[i] for i in at], dtype=np.intp).reshape(len(at), k)
            U = units[bars]
            X = np.zeros((len(at), k, k, d))
            X[:, np.arange(k), np.arange(k)] = -U
            others = ends[bars].sum(axis=2) - np.take(order, at)[:, None]
            W, new = _back(U, X.reshape(len(at), k, k * d))
            for i, step in zip(at, zip(others, W, new)):
                steps[i] = (order[i], *step)
        return steps

    def _eliminate(self, done: np.ndarray, floor: float, keep: bool) -> None:
        ends, units, d = self.system.ends, self.system.units, self.d
        bars = self.rows.tolist()
        self.alive = list(self.alive)
        self.at = list(ends)
        self.vals = list(np.stack([units, -units], axis=1))
        incident: list[list[int]] = [[] for _ in done]  # row ids, dead ones too
        for i, (a, b) in zip(bars, ends[self.rows].tolist()):
            incident[a].append(i)
            incident[b].append(i)
        count = np.bincount(ends[self.rows].ravel(), minlength=len(done))  # live rows per joint
        joints = np.flatnonzero(~done)
        live_rows, width, live = len(bars), 2 * len(bars), len(joints)  # width: sum of row lengths
        heap = list(zip(count[joints].tolist(), joints.tolist()))
        heapq.heapify(heap)
        while heap and width <= _DENSE_SHARE * live * live_rows:
            k, v = heapq.heappop(heap)
            if done[v] or k != count[v]:
                continue  # stale: v was eliminated, or its count changed
            ids = incident[v] = [i for i in incident[v] if self.alive[i]]
            parts = [self.at[i] for i in ids]
            flat = np.concatenate(parts) if ids else np.zeros(0, dtype=np.intp)
            others = np.array(sorted(set(flat.tolist()) - {v}), dtype=np.intp)
            self.pos[v] = 0  # v's block first, then the others'
            self.pos[others] = np.arange(1, len(others) + 1)
            at = self.pos[flat]
            M = np.zeros((k, len(others) + 1, d))
            if ids:
                rows = np.repeat(np.arange(k), [len(a) for a in parts])
                M[rows, at] = np.concatenate([self.vals[i] for i in ids])
            if not _conditioned(M[:, 0], floor):
                continue
            q = None  # with k <= d, the peel's own case, the rows leave as they are
            if k > d:
                q = np.linalg.qr(M[:, 0], mode="complete")[0]
                M = (q.T @ M.reshape(k, (len(others) + 1) * d)).reshape(M.shape)
            p = min(k, d)
            fills = list(range(len(self.alive), len(self.alive) + k - p))
            for i in ids:
                self.alive[i] = False
            self.alive += [True] * (k - p)
            self.at += [others] * (k - p)
            self.vals += list(M[p:, 1:])
            change = (k - p) - np.bincount(at, minlength=len(others) + 1)[1:]
            count[others] += change
            for w in others.tolist() if fills else ():
                incident[w].extend(fills)
            moved = others[change != 0]
            for w, n in zip(moved.tolist(), count[moved].tolist()):
                heapq.heappush(heap, (n, w))
            if keep:
                X = M[:p, 1:].reshape(p, len(others) * d)
                self.steps.append((v, others, *_back(M[:p, 0], X)))
                if fills:
                    self.reflections.append((ids, fills, q[:, p:]))
            done[v] = True
            self.pivots += p
            live -= 1
            live_rows -= p
            width += (k - p) * len(others) - len(at)
        self.rows = np.flatnonzero(self.alive)

    def remainder(self) -> np.ndarray:
        """The live rows on the live joints' columns, as a dense matrix:
        the live bars, then the fill rows."""
        ends, units, d = self.system.ends, self.system.units, self.d
        self.pos[self.joints] = np.arange(len(self.joints))
        bars = self.rows[self.rows < len(ends)]
        fill = np.zeros((len(self.rows) - len(bars), len(self.joints), d))
        for r, i in enumerate(self.rows[len(bars) :].tolist()):
            fill[r, self.pos[self.at[i]]] = self.vals[i]
        dense = _assemble(self.pos[ends[bars]], units[bars], len(self.joints))
        return np.concatenate([dense, fill.reshape(len(fill), len(self.joints) * d)])

    def kernel(self, rem_null: np.ndarray, count: int) -> np.ndarray:
        """count orthonormal rows spanning null(C), from the remainder's
        null space: extended to the joints set aside, in reverse, by
        x_v = x_others @ W, each of v's new directions starting a row."""
        j, d = self.system.joint_count, self.d
        Y = np.zeros((count, j, d))
        n = len(rem_null)
        Y[:n][:, self.joints] = rem_null.reshape(n, len(self.joints), d)
        for v, others, W, new in reversed(self.steps):
            Y[:n, v] = Y[:n, others].reshape(n, len(W)) @ W
            Y[n : n + len(new), v] = new
            n += len(new)
        q, _ = np.linalg.qr(Y.reshape(count, j * d).T)
        return q.T

    def stresses(self, rem_left: np.ndarray) -> np.ndarray:
        """Rows spanning null(C.T), from the remainder's left null space:
        zero on every pivot row, so on every peeled bar, and carried back
        to the bars through each step's Q in reverse order."""
        W = np.zeros((len(rem_left), len(self.alive)))
        W[:, self.rows] = rem_left
        for ids, fills, Q in reversed(self.reflections):
            W[:, ids] = W[:, fills] @ Q.T
        return W[:, : len(self.system.ends)]


@dataclass(frozen=True)
class _Reduced:
    """C ranked as the joints set aside plus the SVD of the remainder;
    with vectors, rows spanning null(C) and null(C.T)."""

    system: EquilibriumSystem
    set_aside: int  # joints peeled or eliminated
    rank: int  # of all of C
    sv: np.ndarray  # of the remainder
    kernel: np.ndarray | None  # orthonormal, on all d * j columns
    stress: np.ndarray | None  # on all b bars


def _reduce(f: Framework, tol: float, vectors: bool) -> _Reduced:
    """Peel; eliminate a core of more than _DENSE_ROWS bars; rank what is
    left, the remainder, by SVD against the cutoff of all of C.

    When nothing was set aside the remainder is C itself, and its largest
    singular value is the one the cutoff needs; otherwise power iteration
    on the whole C supplies it, unless nothing is left to rank.
    """
    _check_tolerance(tol)
    system = build_system(f)
    floor = max(1e-3, math.sqrt(tol))
    elim = _Elimination(system, _peel(f, system, floor), floor, vectors)
    remainder = elim.remainder()
    if vectors:
        u, sv, vt = np.linalg.svd(remainder, full_matrices=True)
    else:
        sv = np.linalg.svd(remainder, compute_uv=False) if remainder.size else np.zeros(0)
    top = sv[0] if sv.size else 0.0
    if elim.set_aside and sv.size:
        top = max(top, _largest_singular_value(system, unit_scaled(f.coordinates)[0]))
    rem_rank = _rank(sv, tol, top)
    rank = elim.pivots + rem_rank
    kernel = stress = None
    if vectors:
        kernel = elim.kernel(vt[rem_rank:], f.dimension * f.joint_count - rank)
        stress = elim.stresses(u[:, rem_rank:].T)
    return _Reduced(system, elim.set_aside, rank, sv, kernel, stress)


def rigid_body_basis(f: Framework) -> np.ndarray:
    """Orthonormal basis (rows) of rigid-body velocity fields.

    Translations plus infinitesimal rotations about the centroid, built
    as one (d(d+1)/2, j, d) stack: the d unit translations, then the
    rotation fields, one matrix product with _SPIN.  For
    degenerate placements (all joints collinear in 3D) the span is
    smaller than d(d+1)/2 and the basis reflects that.
    """
    d, j = f.dimension, f.joint_count
    if j == 0:
        return np.zeros((0, 0))
    # rotation fields grow with the coordinates; measured in units of the
    # diameter they rank under one cutoff with the unit translations
    coords, _ = unit_scaled(f.coordinates)
    coords = (coords - coords.mean(axis=0)) / (f.scaled_diameter()[0] or 1.0)
    fields = np.zeros((d * (d + 1) // 2, j, d))
    fields[np.arange(d), :, np.arange(d)] = 1.0
    fields[d:] = coords @ _SPIN[d]
    u, sv, vt = np.linalg.svd(fields.reshape(len(fields), j * d), full_matrices=False)
    return vt[: _rank(sv, 1e-12)]


def rigid_body_dimension(f: Framework) -> int:
    return rigid_body_basis(f).shape[0]


@dataclass(frozen=True)
class KinematicSummary:
    """Counts derived from the rank of C.

    mechanisms = d*j - rank - rigid_body_dim, self_stresses = b - rank;
    both exact integers once the rank is fixed by the tolerance.
    peeled_joints joints were set aside before the SVD, peeled or
    eliminated, and singular_values are those of the remainder that was
    left.
    """

    dimension: int
    joint_count: int
    bar_count: int
    rank: int
    rigid_body_dim: int
    mechanisms: int
    self_stresses: int
    tolerance_used: float
    peeled_joints: int
    singular_values: np.ndarray = field(repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.mechanisms

    @property
    def s(self) -> int:
        return self.self_stresses

    @property
    def is_isostatic(self) -> bool:
        return self.mechanisms == 0 and self.self_stresses == 0


def mobility(f: Framework, tol: float = DEFAULT_RANK_TOL) -> KinematicSummary:
    """Rank C and report mechanism/self-stress counts."""
    red = _reduce(f, tol, vectors=False)
    rb = rigid_body_dimension(f)
    return KinematicSummary(
        dimension=f.dimension,
        joint_count=f.joint_count,
        bar_count=f.bar_count,
        rank=red.rank,
        rigid_body_dim=rb,
        mechanisms=f.dimension * f.joint_count - red.rank - rb,
        self_stresses=f.bar_count - red.rank,
        tolerance_used=tol,
        peeled_joints=red.set_aside,
        singular_values=red.sv,
    )


def nullspace_bases(
    f: Framework, tol: float = DEFAULT_RANK_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases for self-stresses and non-trivial mechanisms.

    Returns (stress_basis, mechanism_basis): stress rows have length b
    and satisfy C.T @ sigma ~ 0; mechanism rows have length d*j, lie in
    null(C), and are orthogonal to every rigid-body field.  Both come
    from the full SVD of the remainder, ranked as mobility() ranks it:
    a self-stress is zero on every pivot row, so on every peeled bar, and
    goes back to the bars through the elimination's reflections; a
    mechanism extends over every joint set aside by back-substitution
    (`_Elimination.kernel`).  Every residual is taken from the bar
    arrays: the whole kernel's, before rigid motions are projected out,
    then the stresses' and the mechanisms'.  C is formed only as the
    remainder, when nothing was set aside.
    """
    red = _reduce(f, tol, vectors=True)
    system, stress, kernel = red.system, red.stress, red.kernel
    b, n = f.bar_count, f.dimension * f.joint_count
    # C has unit rows, so every residual is on an absolute scale; the
    # whole kernel is checked, since with m = 0 no mechanism row is left
    # to show a wrong extension over the joints set aside
    bound = 10 * tol * max(n, b)
    kernel_fields = kernel.reshape(len(kernel), f.joint_count, f.dimension)
    res = np.abs(_image(system, kernel_fields)).max(initial=0.0)
    if res > bound:
        raise InternalInconsistency(f"kernel residual too large: {res}")
    rb = rigid_body_basis(f)
    # project rigid-body motions out of the kernel, then re-orthonormalize;
    # singular values near 1 survive, near 0 were pure rigid-body content
    proj = kernel - (kernel @ rb.T) @ rb
    if proj.size:
        u2, sv2, vt2 = np.linalg.svd(proj, full_matrices=False)
        mech = vt2[sv2 > 0.5]
    else:
        mech = np.zeros((0, n))
    expected = n - red.rank - rb.shape[0]
    if mech.shape[0] != expected:
        raise InternalInconsistency(
            f"mechanism basis has {mech.shape[0]} rows, expected {expected}"
        )

    res = np.abs(_loads(system, stress)).max(initial=0.0)
    if res > 10 * tol * b:
        raise InternalInconsistency(f"self-stress residual too large: {res}")
    mech_fields = mech.reshape(len(mech), f.joint_count, f.dimension)
    res = np.abs(_image(system, mech_fields)).max(initial=0.0)
    if res > bound:
        raise InternalInconsistency(f"mechanism residual too large: {res}")
    return stress, mech
