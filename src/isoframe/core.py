"""Immutable bar graph and framework model, elementary counts, JSON form.

A graph is a finite set of joints plus a set of bars, each an unordered
pair of distinct joints.  A framework is a graph whose joints sit at
pairwise distinct positions in the plane or in space.  Joints and bars
are indexed 0..j-1 and 0..b-1 in creation order; everything heavier
(rank computations, symmetry detection, counting rules) works on those
indices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DanglingEndpoint,
    DuplicateBar,
    DuplicateJoint,
    NonFiniteEntry,
    ParseError,
    SelfLoop,
)

# Joints closer than this fraction of the framework diameter count as
# the same point: construction rejects them, and a bar between them has
# no direction.
SEPARATION_TOL = 1e-12

# Candidate pairs that pairs_within examines at once.
_BLOCK = 1 << 16

# What peel_low_degree returns: (order, owner), read-only intp arrays.
Peel = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Bar:
    """One bar of Framework.bars: its id and its ends, low id first."""

    id: int
    ends: tuple[int, int]


class Graph:
    """Immutable joints 0..j-1 and the bars between them, no coordinates.

    Row k of ends holds the ends of bar k, low id first; the constructor
    keeps the array that bar_ends checks the pairs into, in either
    orientation.  A graph keeps each peel asked of it, whatever built it.
    """

    __slots__ = ("_joint_count", "_ends", "_peels")

    def __init__(self, joint_count: int, bar_pairs: Iterable[Sequence[int]]):
        self._store(joint_count, bar_ends(joint_count, bar_pairs))

    def _store(self, joint_count: int, ends: np.ndarray) -> None:
        """Keep joint_count and ends, a (b, 2) int64 array, read-only; trusted."""
        ends.setflags(write=False)
        for name, value in zip(Graph.__slots__, (joint_count, ends, {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def joint_count(self) -> int:
        return self._joint_count

    @property
    def bar_count(self) -> int:
        return self._ends.shape[0]

    @property
    def ends(self) -> np.ndarray:
        """Read-only (b, 2) int64 array of bar ends, low id first."""
        return self._ends

    def peel(self, d: int) -> Peel:
        """peel_low_degree(self, d), kept for each d: (order, owner)."""
        if d not in self._peels:
            self._peels[d] = peel_low_degree(self, d)
        return self._peels[d]

    def has_bar(self, u: int, v: int) -> bool:
        """Whether a row of ends joins u and v, in either order."""
        return bool((self._ends == (min(u, v), max(u, v))).all(axis=1).any())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._joint_count == other._joint_count and np.array_equal(self._ends, other._ends)

    def __hash__(self) -> int:
        return hash((self._joint_count, self._ends.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(joints={self.joint_count}, bars={self.bar_count})"


class Framework(Graph):
    """Immutable joint positions and bars in dimension 2 or 3.

    A Graph whose joint i sits at row i of coordinates.  Use
    :func:`new_framework` to build one with validation; the raw
    constructor trusts its arguments and keeps read-only copies of them.
    """

    __slots__ = ("dimension", "_coords", "_diameter")

    def __init__(self, dimension: int, coordinates, ends):
        coords = np.array(coordinates, dtype=float).reshape(-1, dimension)
        coords.setflags(write=False)
        self._store(coords.shape[0], np.array(ends, dtype=np.int64).reshape(-1, 2))
        for name, value in zip(Framework.__slots__, (dimension, coords, None)):
            object.__setattr__(self, name, value)

    @property
    def coordinates(self) -> np.ndarray:
        """Read-only (j, d) float array of joint positions."""
        return self._coords

    @property
    def bars(self) -> tuple[Bar, ...]:
        """A Bar per row of ends, built on each access.  Its sole reader is
        bench/test_bench.py's fixture-table test, until that reads ends."""
        return tuple(Bar(k, (u, v)) for k, (u, v) in enumerate(self._ends.tolist()))

    def centroid(self) -> np.ndarray:
        return self._coords.mean(axis=0)

    def diameter(self) -> float:
        """Largest inter-joint distance; 0.0 with fewer than two joints.

        inf when it exceeds the largest float; scaled_diameter() does not.
        """
        d, exp = self.scaled_diameter()
        with np.errstate(over="ignore"):
            return float(np.ldexp(d, exp))

    def scaled_diameter(self) -> tuple[float, int]:
        """(d, exp): the diameter is d * 2**exp, d measured on the
        coordinates as unit_scaled gives them, with its exp.

        Computed on first use (new_framework computes it) and kept.
        """
        if self._diameter is None:
            object.__setattr__(self, "_diameter", _diameter(self._coords))
        return self._diameter

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Framework):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and np.array_equal(self._coords, other._coords)
            and np.array_equal(self._ends, other._ends)
        )

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which compare equal
        return hash((self.dimension, (self._coords + 0.0).tobytes(), self._ends.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Framework(dimension={self.dimension}, "
            f"joints={self.joint_count}, bars={self.bar_count})"
        )


def new_framework(
    dimension: int,
    positions: Sequence[Sequence[float]],
    bar_pairs: Iterable[Sequence[int]],
) -> Framework:
    """Validate and build a framework.

    Raises the specific error subclasses on bad input: wrong dimension,
    non-finite coordinates, coincident joints (no farther apart than
    SEPARATION_TOL times the diameter), self-loops, duplicate or
    dangling bars.  The positions are copied, and converted as one array
    first; on any fault the loop over the joints runs, and names the first.
    """
    if dimension not in (2, 3):
        raise ParseError(f"dimension must be 2 or 3, got {dimension!r}")

    try:
        coords = np.array(positions, dtype=float)
    except (ValueError, TypeError, OverflowError):  # ragged rows or a generator, say
        coords = None
    if coords is None or coords.shape[1:] != (dimension,) or not np.isfinite(coords).all():
        rows: list[tuple[float, ...]] = []
        for i, pos in enumerate(positions):
            tup = tuple(float(x) for x in pos)
            if len(tup) != dimension:
                raise ParseError(
                    f"joint {i} has {len(tup)} coordinates, expected {dimension}"
                )
            if not all(math.isfinite(x) for x in tup):
                raise NonFiniteEntry(f"joint {i} has a non-finite coordinate: {tup}")
            rows.append(tup)
        coords = np.array(rows, dtype=float).reshape(len(rows), dimension)

    n = len(coords)
    d, exp = diameter = _diameter(coords)
    scaled = np.ldexp(coords, -exp)
    tol = SEPARATION_TOL * d
    for a, b in pairs_within(scaled, scaled, tol):
        # the first block holding a pair a < b holds the first such pair
        if (a < b).any():
            first = int((a * n + b)[a < b].min())
            raise DuplicateJoint(
                f"joints {first // n} and {first % n} coincide within "
                f"{float(np.ldexp(tol, exp)):g}"
            )

    f = Framework(dimension, coords, bar_ends(n, bar_pairs))
    object.__setattr__(f, "_diameter", diameter)
    return f


def bar_ends(joint_count: int, bar_pairs: Iterable[Sequence[int]]) -> np.ndarray:
    """A new (b, 2) int64 array: row k holds the ends of bar k, low id first.

    Raises ParseError for a joint count outside [0, 2**63), so that every
    id fits int64, or a bar without exactly two ids, SelfLoop,
    DanglingEndpoint for an id outside 0..joint_count-1, and DuplicateBar
    for a pair already seen in either orientation.  A list, tuple or
    array of 64 or more integer pairs, of any integer dtype, is checked
    as one int64 array first when every id fits int64 (the loop is faster
    on fewer); on any fault the loop runs, and names the first.
    """
    if not 0 <= joint_count < 2**63:
        raise ParseError(f"joint count must be in [0, 2**63), got {joint_count!r}")
    if isinstance(bar_pairs, (list, tuple, np.ndarray)) and len(bar_pairs) >= 64:
        try:
            pairs = np.array(bar_pairs)
        except (ValueError, TypeError, OverflowError):  # ragged rows, say
            pairs = np.zeros(0)
        fits = pairs.dtype.kind == "i" or (pairs.dtype.kind == "u" and pairs.max() < 2**63)
        if fits and pairs.shape == (len(bar_pairs), 2):
            pairs = pairs.astype(np.int64, copy=False)
            pairs.sort(axis=1)
            lo, hi = pairs.T
            codes = np.sort((lo << 32) ^ hi)  # ids past 2**32 may alias: to the loop
            valid = (lo < hi).all() and lo.min() >= 0 and hi.max() < joint_count
            if valid and (codes[1:] != codes[:-1]).all():
                return pairs
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


def unit_scaled(coords: np.ndarray) -> tuple[np.ndarray, int]:
    """coords times 2**-exp, and exp: the power of two that brings every
    entry into [-1, 1].  The scaling is exact, so relative tests read as
    in model units, and no square of a difference overflows."""
    exp = int(np.frexp(np.abs(coords).max(initial=0.0))[1])
    return np.ldexp(coords, -exp), exp


def _diameter(coords: np.ndarray) -> tuple[float, int]:
    """(d, exp): the largest distance between two rows of coords is
    d * 2**exp, d measured on unit_scaled(coords) with its exp; d is 0.0
    with fewer than two rows.

    No square of the scaled rows overflows, nor does d.  A longest pair
    is at least as long as the pairs from the row farthest from the
    bounding box's centre, and no longer than two distances from that
    centre, so only rows far enough out are compared: a block of them
    against the rest from that block on at a time.
    """
    c, exp = unit_scaled(coords)
    if len(c) < 2:
        return 0.0, exp
    r = np.sqrt(((c - (c.max(axis=0) + c.min(axis=0)) / 2) ** 2).sum(axis=1))
    low = np.sqrt(((c - c[np.argmax(r)]) ** 2).sum(axis=1)).max()
    c = c[r + r.max() >= low * (1.0 - 1e-9)]
    d2max = 0.0
    for lo in range(0, len(c), 64):
        diff = c[lo : lo + 64, None, :] - c[None, lo:, :]
        d2max = max(d2max, float((diff**2).sum(axis=2).max()))
    return math.sqrt(d2max), exp


def pairs_within(
    points: np.ndarray, queries: np.ndarray, tol: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every (query, point) row index pair at Euclidean distance <= tol.

    Sort and sweep: the points are sorted along their coordinate of
    widest spread, and binary search finds, for each query, the window
    of points within tol of it along that coordinate.  The window only
    pre-filters; the distance decides.  Pairs come out in blocks of
    consecutive queries, in query order, each block from at most
    _BLOCK candidates (or one query's window), so memory stays linear
    in the point count however large tol is.
    """
    if len(points) == 0:
        return
    with np.errstate(over="ignore"):
        axis = int(np.argmax(np.ptp(points, axis=0)))
        order = np.argsort(points[:, axis], kind="stable")
        keys = points[order, axis]
        q = queries[:, axis]
        # widened so that rounding can only add candidates
        pad = tol * (1.0 + 1e-9) + 4.0 * np.spacing(np.abs(q))
        lo = np.searchsorted(keys, q - pad, side="left")
        hi = np.searchsorted(keys, q + pad, side="right")
        ends = np.concatenate(([0], np.cumsum(hi - lo)))
        start = 0
        while start < len(queries):
            stop = int(np.searchsorted(ends, ends[start] + _BLOCK, "right")) - 1
            stop = max(stop, start + 1)
            width = hi[start:stop] - lo[start:stop]
            qi = np.repeat(np.arange(start, stop), width)
            pi = order[
                np.arange(ends[start], ends[stop])
                - np.repeat(ends[start:stop] - lo[start:stop], width)
            ]
            near = np.sqrt(((points[pi] - queries[qi]) ** 2).sum(axis=1)) <= tol
            yield qi[near], pi[near]
            start = stop


def peel_low_degree(g: Graph, d: int, accept: Callable[[list[int]], bool] | None = None) -> Peel:
    """Henneberg's vertex addition run in reverse on the bars of g.

    Repeatedly set aside a joint with at most d live bars, when `accept`
    (if given) takes the list of its live bar ids, ascending; its bars
    die with it, and its neighbours are tried again once their own live
    degree has dropped to d.  A joint that `accept` refuses is tried
    again each time it loses another bar.  The loop reads the two id
    columns of g.ends as lists: no list of rows is built.

    Returns (order, owner): the peeled joints in peel order, and for each
    bar the joint it was peeled with, or -1 for a live bar, in the core.
    """
    us, vs = g.ends.T.tolist()
    incident: list[list[int]] = [[] for _ in range(g.joint_count)]
    for i, (u, v) in enumerate(zip(us, vs)):
        incident[u].append(i)
        incident[v].append(i)
    degree = [len(bars) for bars in incident]
    owner = [-1] * len(us)
    peeled = [False] * g.joint_count
    todo = [v for v, k in enumerate(degree) if k <= d]
    order: list[int] = []
    while todo:
        v = todo.pop()
        if peeled[v]:
            continue
        bars = [i for i in incident[v] if owner[i] < 0]
        if accept is not None and not accept(bars):
            continue
        peeled[v] = True
        order.append(v)
        for i in bars:
            owner[i] = v
            w = us[i] + vs[i] - v
            degree[w] -= 1
            if degree[w] <= d:
                todo.append(w)
    peel = np.array(order, dtype=np.intp), np.array(owner, dtype=np.intp)
    for a in peel:
        a.setflags(write=False)
    return peel


def peel_blocks(peel: Peel) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each block size k, the peel-order positions of the joints
    peeled with k bars, and their bars as an (n, k) array, ids ascending
    in each row; from one bincount and one stable argsort of owner."""
    order, owner = peel
    pos = np.zeros(order.max(initial=-1) + 1, dtype=np.intp)
    pos[order] = np.arange(len(order))
    bars = np.flatnonzero(owner >= 0)
    key = pos[owner[bars]]
    bars = bars[np.argsort(key, kind="stable")]
    sizes = np.bincount(key, minlength=len(order))
    start = np.cumsum(sizes) - sizes
    for k in set(sizes.tolist()):
        at = np.flatnonzero(sizes == k)
        yield at, bars[start[at, None] + np.arange(k)]


def maxwell_count(f: Framework) -> int:
    """The classical scalar counting rule, exact: 3j-b-6 in 3D, 2j-b-3 in 2D."""
    rigid = 3 if f.dimension == 2 else 6
    return f.dimension * f.joint_count - f.bar_count - rigid


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
# The ids of joints are implicit (list order, 0-based).  Floats serialize via
# repr, so a dump/load round trip is bit exact.


def to_json_dict(f: Framework) -> dict:
    return {
        "dimension": f.dimension,
        "joints": f.coordinates.tolist(),
        "bars": f.ends.tolist(),
    }


def to_json(f: Framework) -> str:
    return json.dumps(to_json_dict(f), sort_keys=True)


def check_json_rows(rows: list, types: type | tuple[type, ...], what: str) -> None:
    """ParseError at the first row that is not a list of `types` values;
    bools are refused, though bool is a subclass of int.  The distinct
    types of rows and entries are checked first; a loop names the first bad row."""
    kinds = set(map(type, rows))
    if all(issubclass(t, list) for t in kinds):
        kinds = set(map(type, chain.from_iterable(rows)))
        if all(issubclass(t, types) and not issubclass(t, bool) for t in kinds):
            return
    for row in rows:
        if not isinstance(row, list) or not all(
            isinstance(x, types) and not isinstance(x, bool) for x in row
        ):
            raise ParseError(f"bad {what} row: {row!r}")


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
    check_json_rows(joints, (int, float), "joint")
    check_json_rows(bars, int, "bar")
    return new_framework(dim, joints, bars)


def from_json(text: str) -> Framework:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    return from_json_dict(data)
