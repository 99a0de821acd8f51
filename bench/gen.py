"""Seeded input generators.

Everything here is a pure function of a ``numpy.random.Generator``, so
one seed always yields the same inputs.  The program under test only
ever sees the JSON dictionaries these functions return.
"""

from __future__ import annotations

import numpy as np

SHAPES = ("random", "chain")


def henneberg(rng: np.random.Generator, j: int, shape: str) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """A generic Laman-tight planar framework grown by Henneberg type I moves.

    Start from a triangle; joint k then joins two earlier joints.  In
    the ``random`` shape the two parents are drawn uniformly and the new
    joint sits near the apex of a triangle on its parents, so the angle
    at the new joint stays away from 0 and pi.  In the ``chain`` shape
    the parents are k-1 and k-2 and the joints zigzag along a jittered
    strip.  Either way the placement keeps the rigidity matrix far from
    singular (the smallest kept singular value stays above about 1e-5
    of the largest up to j=1000), so the construction, not the rank
    tolerance, decides the verdict.  Returns (coordinates, bars) with
    2j-3 bars.
    """
    if j < 3:
        raise ValueError(f"a Henneberg framework needs at least 3 joints, got {j}")
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}")
    bars = [(0, 1), (0, 2), (1, 2)]
    if shape == "chain":
        k = np.arange(j)
        coords = np.stack([k / 2.0, (k % 2).astype(float)], axis=1)
        coords += rng.uniform(-0.15, 0.15, (j, 2))
        for k in range(3, j):
            bars += [(k - 2, k), (k - 1, k)]
        return coords, bars
    coords = np.zeros((j, 2))
    coords[1] = (1.0, 0.0)
    coords[2] = (0.5, 0.8)
    for k in range(3, j):
        a, b = sorted(int(x) for x in rng.choice(k, size=2, replace=False))
        d = coords[b] - coords[a]
        normal = np.array([-d[1], d[0]])
        along = rng.uniform(-0.3, 0.3)
        height = rng.uniform(0.4, 1.0) * rng.choice((-1.0, 1.0))
        coords[k] = (coords[a] + coords[b]) / 2 + along * d + height * normal
        bars += [(a, k), (b, k)]
    return coords, bars


def add_bar(rng: np.random.Generator, j: int, bars: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The bars plus one new bar between two joints not yet joined."""
    present = set(bars)
    while True:
        u, v = sorted(int(x) for x in rng.choice(j, size=2, replace=False))
        if (u, v) not in present:
            return bars + [(u, v)]


def remove_bar(rng: np.random.Generator, bars: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The bars without one of them, drawn uniformly."""
    k = int(rng.integers(len(bars)))
    return bars[:k] + bars[k + 1 :]


def shuffled(rng: np.random.Generator, bars: list[tuple[int, int]]) -> list[list[int]]:
    """The bars in random order, each with its two ends in random order."""
    out = []
    for k in rng.permutation(len(bars)):
        u, v = bars[int(k)]
        out.append([v, u] if rng.random() < 0.5 else [u, v])
    return out


def planar_framework(rng: np.random.Generator, coords: np.ndarray, bars: list[tuple[int, int]]) -> dict:
    """Framework JSON for the given joints, with the bars shuffled."""
    return {
        "dimension": 2,
        "joints": coords.tolist(),
        "bars": shuffled(rng, bars),
    }


def graph_json(rng: np.random.Generator, j: int, bars: list[tuple[int, int]]) -> dict:
    """Coordinate-free graph JSON for ``isoframe pebble``: a joint count and bars."""
    return {"joints": j, "bars": shuffled(rng, bars)}


def random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    """A uniformly random proper rotation of R^d."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def perturb(rng: np.random.Generator, framework: dict) -> dict:
    """The same framework under a rigid motion, a uniform scale, a joint
    relabelling and a bar reordering.

    None of these changes whether a framework is isostatic, its point
    group or its counts, so every verdict must survive it.
    """
    d = framework["dimension"]
    coords = np.asarray(framework["joints"], dtype=float)
    j = coords.shape[0]
    scale = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
    moved = scale * coords @ random_rotation(rng, d).T + rng.uniform(-10.0, 10.0, d)
    # joint old -> new label; new joint list is ordered by new label
    relabel = rng.permutation(j)
    joints = np.empty_like(moved)
    joints[relabel] = moved
    bars = [(int(relabel[u]), int(relabel[v])) for u, v in framework["bars"]]
    return {"dimension": d, "joints": joints.tolist(), "bars": shuffled(rng, bars)}
