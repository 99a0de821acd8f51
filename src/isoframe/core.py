"""Immutable bar-joint framework model, elementary counts, JSON form.

A framework is a finite set of joints at pairwise distinct positions in
the plane or in space, plus a set of bars, each an unordered pair of
distinct joints.  Joints and bars are indexed 0..j-1 and 0..b-1 in
creation order; everything heavier (rank computations, symmetry
detection, counting rules) works on those indices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DanglingEndpoint,
    DuplicateBar,
    DuplicateJoint,
    EmptySubset,
    NonFiniteEntry,
    ParseError,
    SelfLoop,
    UnknownBar,
)

# Joints closer than this (Euclidean, in model units) count as the same
# point and are rejected at construction time.  Overridable per call.
SEPARATION_TOL = 1e-9


@dataclass(frozen=True)
class Joint:
    """One pin joint: an integer id and a fixed position."""

    id: int
    position: tuple[float, ...]


@dataclass(frozen=True)
class Bar:
    """One rigid bar between two joints, stored with ends sorted."""

    id: int
    ends: tuple[int, int]


class Framework:
    """Immutable collection of joints and bars in dimension 2 or 3.

    Use :func:`new_framework` to build one with validation; the raw
    constructor trusts its arguments.
    """

    __slots__ = (
        "dimension", "joints", "bars", "_coords", "_pair_to_bar", "_diameter"
    )

    def __init__(self, dimension: int, joints: tuple[Joint, ...], bars: tuple[Bar, ...]):
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "joints", joints)
        object.__setattr__(self, "bars", bars)
        coords = np.array([j.position for j in joints], dtype=float)
        coords = coords.reshape(len(joints), dimension)
        coords.setflags(write=False)
        object.__setattr__(self, "_coords", coords)
        object.__setattr__(self, "_pair_to_bar", {b.ends: b.id for b in bars})
        object.__setattr__(self, "_diameter", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Framework is immutable")

    @property
    def joint_count(self) -> int:
        return len(self.joints)

    @property
    def bar_count(self) -> int:
        return len(self.bars)

    @property
    def coordinates(self) -> np.ndarray:
        """Read-only (j, d) array of joint positions."""
        return self._coords

    @property
    def pair_to_bar(self) -> dict[tuple[int, int], int]:
        """Sorted endpoint pair -> bar id.  Treat as read-only."""
        return self._pair_to_bar

    def centroid(self) -> np.ndarray:
        return self._coords.mean(axis=0)

    def diameter(self) -> float:
        """Largest inter-joint distance; 0.0 with fewer than two joints.

        Computed on first use, a block of rows against the joints from
        that block on at a time, and kept.
        """
        if self._diameter is None:
            c = self._coords
            d2max = 0.0
            for lo in range(0, len(c), 64):
                diff = c[lo : lo + 64, None, :] - c[None, lo:, :]
                d2max = max(d2max, float((diff**2).sum(axis=2).max()))
            object.__setattr__(self, "_diameter", math.sqrt(d2max))
        return self._diameter

    def has_bar(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._pair_to_bar

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Framework):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self.joints == other.joints
            and self.bars == other.bars
        )

    def __hash__(self) -> int:
        return hash((self.dimension, self.joints, self.bars))

    def __repr__(self) -> str:
        return (
            f"Framework(dimension={self.dimension}, "
            f"joints={self.joint_count}, bars={self.bar_count})"
        )


def new_framework(
    dimension: int,
    positions: Sequence[Sequence[float]],
    bar_pairs: Iterable[Sequence[int]],
    separation_tol: float = SEPARATION_TOL,
) -> Framework:
    """Validate and build a framework.

    Raises the specific error subclasses on bad input: wrong dimension,
    non-finite coordinates, coincident joints, self-loops, duplicate or
    dangling bars.
    """
    if dimension not in (2, 3):
        raise ParseError(f"dimension must be 2 or 3, got {dimension!r}")

    joints: list[Joint] = []
    for i, pos in enumerate(positions):
        tup = tuple(float(x) for x in pos)
        if len(tup) != dimension:
            raise ParseError(
                f"joint {i} has {len(tup)} coordinates, expected {dimension}"
            )
        if not all(math.isfinite(x) for x in tup):
            raise NonFiniteEntry(f"joint {i} has a non-finite coordinate: {tup}")
        joints.append(Joint(i, tup))

    coords = np.array([j.position for j in joints], dtype=float)
    tol2 = separation_tol * separation_tol
    close = _first_coincident_pair(coords.reshape(len(joints), dimension), tol2)
    if close is not None:
        raise DuplicateJoint(
            f"joints {close[0]} and {close[1]} coincide within {separation_tol}"
        )

    n = len(joints)
    bars: list[Bar] = []
    seen: set[tuple[int, int]] = set()
    for k, pair in enumerate(bar_pairs):
        pair = list(pair)
        if len(pair) != 2:
            raise ParseError(f"bar {k} must have exactly two endpoints, got {pair!r}")
        u, v = int(pair[0]), int(pair[1])
        if u == v:
            raise SelfLoop(f"bar {k} connects joint {u} to itself")
        if not (0 <= u < n and 0 <= v < n):
            raise DanglingEndpoint(f"bar {k} references missing joint in ({u}, {v})")
        ends = (min(u, v), max(u, v))
        if ends in seen:
            raise DuplicateBar(f"bar {k} duplicates pair {ends}")
        seen.add(ends)
        bars.append(Bar(len(bars), ends))

    return Framework(dimension, tuple(joints), tuple(bars))


def _first_coincident_pair(coords: np.ndarray, tol2: float) -> tuple[int, int] | None:
    """First coinciding joint pair (a, b), a < b, in lexicographic order.

    Coinciding means a squared distance of at most tol2; None when no
    pair coincides.  Sort and sweep: joints are sorted along the
    coordinate of widest spread, and each is compared with its k-th
    sorted successor for k = 1, 2, ... until no two joints k apart lie
    within the tolerance along that coordinate, since joints farther
    apart in the order are farther apart along it too.
    """
    n = len(coords)
    if n < 2:
        return None
    first = n * n  # pair (a, b) has key a * n + b, below n * n
    with np.errstate(over="ignore"):
        axis = int(np.argmax(np.ptp(coords, axis=0)))
        order = np.argsort(coords[:, axis], kind="stable")
        pts = coords[order]
        for k in range(1, n):
            near = np.flatnonzero((pts[k:, axis] - pts[:-k, axis]) ** 2 <= tol2)
            if near.size == 0:
                break
            hit = near[((pts[near + k] - pts[near]) ** 2).sum(axis=1) <= tol2]
            if hit.size:
                a = np.minimum(order[hit], order[hit + k])
                b = np.maximum(order[hit], order[hit + k])
                first = min(first, int((a * n + b).min()))
    return None if first == n * n else divmod(first, n)


def maxwell_count(f: Framework) -> int:
    """The classical scalar counting rule, exact: 3j-b-6 in 3D, 2j-b-3 in 2D."""
    rigid = 3 if f.dimension == 2 else 6
    return f.dimension * f.joint_count - f.bar_count - rigid


def induced_counts(f: Framework, bar_ids: Iterable[int]) -> tuple[int, int]:
    """(j*, b*) for the subframework induced by a set of bars.

    j* counts every joint touched by a selected bar, b* the selected
    bars.  Empty selections and unknown bar ids are rejected.
    """
    ids = sorted(set(int(i) for i in bar_ids))
    if not ids:
        raise EmptySubset("bar subset is empty")
    for i in ids:
        if not (0 <= i < f.bar_count):
            raise UnknownBar(f"no bar with id {i}")
    touched: set[int] = set()
    for i in ids:
        touched.update(f.bars[i].ends)
    return len(touched), len(ids)


def in_scope(f: Framework) -> bool:
    """Whether the counting rules are meant to judge this framework.

    Very small inputs (a single bar in the plane, up to 3 joints in
    space) are analyzed anyway but reported as out of scope rather than
    given a pass/fail verdict.
    """
    if f.dimension == 3:
        return f.joint_count > 3
    return f.joint_count > 2


# ---------------------------------------------------------------------------
# JSON form
#
# {"dimension": 2, "joints": [[x, y], ...], "bars": [[u, v], ...]}
#
# Joint ids are implicit (list order, 0-based).  Floats serialize via
# repr, so a dump/load round trip is bit exact.


def to_json_dict(f: Framework) -> dict:
    return {
        "dimension": f.dimension,
        "joints": [list(j.position) for j in f.joints],
        "bars": [list(b.ends) for b in f.bars],
    }


def to_json(f: Framework) -> str:
    return json.dumps(to_json_dict(f), sort_keys=True)


def from_json_dict(data: object) -> Framework:
    if not isinstance(data, dict):
        raise ParseError(f"expected a JSON object, got {type(data).__name__}")
    missing = {"dimension", "joints", "bars"} - set(data)
    if missing:
        raise ParseError(f"missing keys: {sorted(missing)}")
    dim = data["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ParseError(f"dimension must be an integer, got {dim!r}")
    joints = data["joints"]
    bars = data["bars"]
    if not isinstance(joints, list) or not isinstance(bars, list):
        raise ParseError("joints and bars must be lists")
    for row in joints:
        if not isinstance(row, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in row
        ):
            raise ParseError(f"bad joint row: {row!r}")
    for row in bars:
        if not isinstance(row, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in row
        ):
            raise ParseError(f"bad bar row: {row!r}")
    return new_framework(dim, joints, bars)


def from_json(text: str) -> Framework:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    return from_json_dict(data)
