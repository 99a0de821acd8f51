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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInconsistency, NonFiniteEntry, ZeroLengthBar
from .core import SEPARATION_TOL, Framework, unit_scaled

# Singular values below DEFAULT_RANK_TOL * largest are treated as zero.
DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class EquilibriumSystem:
    """One framework's first-order behavior as a single matrix.

    C is the compatibility matrix of unit bar directions (its transpose
    is the equilibrium matrix); lengths[i] is the length of bar i.
    """

    C: np.ndarray
    lengths: np.ndarray


def build_system(f: Framework) -> EquilibriumSystem:
    d, j, b = f.dimension, f.joint_count, f.bar_count
    coords, exp = unit_scaled(f.coordinates)
    C = np.zeros((b, d * j))
    lengths = np.zeros(b)
    floor = SEPARATION_TOL * f.scaled_diameter()[0]
    for bar in f.bars:
        u, v = bar.ends
        diff = coords[u] - coords[v]
        length = float(np.linalg.norm(diff))
        if length <= floor:
            # unreachable through new_framework, which rejects
            # coincident joints; kept for hand-built Framework objects
            raise ZeroLengthBar(f"bar {bar.id} between joints {u} and {v}")
        unit = diff / length
        C[bar.id, d * u : d * u + d] = unit
        C[bar.id, d * v : d * v + d] = -unit
        lengths[bar.id] = length
    return EquilibriumSystem(C=C, lengths=np.ldexp(lengths, exp))


def _rank(sv: np.ndarray, tol: float) -> int:
    """How many of the descending singular values sv exceed tol * sv[0]."""
    if not 0 < tol < 1:
        raise ValueError(f"rank tolerance must lie in (0, 1), got {tol!r}")
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def _finite(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NonFiniteEntry("matrix contains NaN or infinite entries")
    return M


def numeric_rank(M: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> tuple[int, np.ndarray]:
    """Rank by SVD with a relative threshold.

    Returns (rank, singular values descending).  Matrices with no rows
    or no columns have rank 0 and an empty singular value list.
    """
    M = _finite(M)
    sv = np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0)
    return _rank(sv, tol), sv


def rigid_body_basis(f: Framework) -> np.ndarray:
    """Orthonormal basis (rows) of rigid-body velocity fields.

    Translations plus infinitesimal rotations about the centroid.  For
    degenerate placements (all joints collinear in 3D) the span is
    smaller than d(d+1)/2 and the basis reflects that.
    """
    d, j = f.dimension, f.joint_count
    # rotation fields grow with the coordinates; measured in units of the
    # diameter they rank under one cutoff with the unit translations
    coords, _ = unit_scaled(f.coordinates)
    coords = (coords - coords.mean(axis=0)) / (f.scaled_diameter()[0] or 1.0)
    fields: list[np.ndarray] = []
    for axis in range(d):
        t = np.zeros((j, d))
        t[:, axis] = 1.0
        fields.append(t.ravel())
    if d == 2:
        rot = np.stack([-coords[:, 1], coords[:, 0]], axis=1)
        fields.append(rot.ravel())
    else:
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = 1.0
            rot = np.cross(np.broadcast_to(e, coords.shape), coords)
            fields.append(rot.ravel())
    raw = np.stack(fields)
    u, sv, vt = np.linalg.svd(raw, full_matrices=False)
    return vt[: _rank(sv, 1e-12)]


def rigid_body_dimension(f: Framework) -> int:
    return rigid_body_basis(f).shape[0]


@dataclass(frozen=True)
class KinematicSummary:
    """Counts derived from the rank of C.

    mechanisms = d*j - rank - rigid_body_dim, self_stresses = b - rank;
    both exact integers once the rank is fixed by the tolerance.
    """

    dimension: int
    joint_count: int
    bar_count: int
    rank: int
    rigid_body_dim: int
    mechanisms: int
    self_stresses: int
    tolerance_used: float
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
    rank, sv = numeric_rank(build_system(f).C, tol)
    rb = rigid_body_dimension(f)
    return KinematicSummary(
        dimension=f.dimension,
        joint_count=f.joint_count,
        bar_count=f.bar_count,
        rank=rank,
        rigid_body_dim=rb,
        mechanisms=f.dimension * f.joint_count - rank - rb,
        self_stresses=f.bar_count - rank,
        tolerance_used=tol,
        singular_values=sv,
    )


def nullspace_bases(
    f: Framework, tol: float = DEFAULT_RANK_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases for self-stresses and non-trivial mechanisms.

    Returns (stress_basis, mechanism_basis): stress rows have length b
    and satisfy C.T @ sigma ~ 0; mechanism rows have length d*j, lie in
    null(C), and are orthogonal to every rigid-body field.  Both come
    from one full SVD of C, ranked as mobility() ranks it.
    """
    C = _finite(build_system(f).C)
    b, n = C.shape
    u, sv, vt = np.linalg.svd(C, full_matrices=True)
    rank = _rank(sv, tol)
    stress = u[:, rank:].T
    kernel = vt[rank:]
    rb = rigid_body_basis(f)
    # project rigid-body motions out of the kernel, then re-orthonormalize;
    # singular values near 1 survive, near 0 were pure rigid-body content
    proj = kernel - (kernel @ rb.T) @ rb
    if proj.size:
        u2, sv2, vt2 = np.linalg.svd(proj, full_matrices=False)
        mech = vt2[sv2 > 0.5]
    else:
        mech = np.zeros((0, n))
    expected = n - rank - rb.shape[0]
    if mech.shape[0] != expected:
        raise InternalInconsistency(
            f"mechanism basis has {mech.shape[0]} rows, expected {expected}"
        )

    # C has unit rows, so both residuals are on an absolute scale
    res = np.abs(C.T @ stress.T).max(initial=0.0)
    if res > 10 * tol * b:
        raise InternalInconsistency(f"self-stress residual too large: {res}")
    res = np.abs(C @ mech.T).max(initial=0.0)
    if res > 10 * tol * max(n, b):
        raise InternalInconsistency(f"mechanism residual too large: {res}")
    return stress, mech
