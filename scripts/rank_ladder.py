#!/usr/bin/env python3
"""Time the rank step and the pebble game on shapes the benchmark lacks.

Shapes:
- edge_split300, edge_split1000, edge_split2000: planar graphs grown by
  edge splits alone (`tests/oracles.py` `henneberg_graph`, split_share
  1.0) at uniform random coordinates; every joint keeps 3 or more bars,
  so the peel sets none aside.
- chain1000_closed: the zigzag chain of 1000 joints (`bench/gen.py`
  `henneberg`, shape "chain", rng seed 0) plus one bar between its two
  ends, which keeps the whole chain in the core.
- icosahedron_twisted: the j=72 twisted icosahedron; nothing peels.
- icosahedron_twisted_capped: its faces capped at the stellation height
  (`cap_all_faces_symmetric`), j=232.
- double_banana, k5_pendant_triangle: the two small 3D graphs whose bars
  are dependent (K5 plus a triangle hung on one of its joints, at
  (t, t^2, t^3) for t = 0..6), so the count screen scans them.
- mixed2d_400, mixed3d_200: `henneberg_graph` with edge splits mixed
  into vertex additions (d=2, j=400, split_share 0.5; d=3, j=200,
  split_share 0.8), rng seed 7, as `tests/test_numrank.py` `edge_split`
  builds them: the peel sets a few joints aside (3; 2) and the
  elimination most of the core (300; 112).
- peel_random1000, peel_random4000, peel_chain1000, peel_chain4000:
  bare graphs of `bench/gen.py` `henneberg` (rng seed 7) for
  `core.peel_low_degree` alone, at d = 2 (`peel_d2`) and d = 3
  (`peel_d3`); every joint peels at both.

Each shape runs through `mobility`, `nullspace_bases` and, for the
planar shapes, `pebble_game_2_3`, for the 3D shapes `count_screen_3d`
at cap 8, in --processes fresh processes, one after another, each with
BLAS pinned to one thread.  A process imports numpy.random (else the
first GF(p) rank pays ~17 ms for it) and times each call once, on a
framework built for that call alone: a framework keeps its peels, so
`pebble_game_2_3` and `count_screen_3d` pay the peel, as `pebble` and
`check --sufficient` do.  A peel shape times `Graph.peel` once per d
on a fresh graph: one `core.peel_low_degree` call.  Prints one JSON
line: for each shape and function, the min, median and max seconds
over the processes, and the shape's rank, m, s, basis row counts
(a peel shape: its joints, bars and peeled joints), joints set aside
before the SVD (`peeled_joints`), the remainder's size
(`singular_values.size`) and whether `mobility` ran the power
iteration for the rank cut (`power_iteration`); for a 3D shape also
whether reversed Henneberg moves and vertex splits decided its count
screen (`core_decided`) and how many joints they left (`core_joints`).

    python3 scripts/rank_ladder.py                       # 5 processes
    python3 scripts/rank_ladder.py --processes 7 --shapes chain1000_closed
    python3 scripts/rank_ladder.py --shapes peel_random4000,peel_chain4000
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHAPES = (
    "edge_split300",
    "edge_split1000",
    "edge_split2000",
    "chain1000_closed",
    "icosahedron_twisted",
    "icosahedron_twisted_capped",
    "double_banana",
    "k5_pendant_triangle",
    "mixed2d_400",
    "mixed3d_200",
    "peel_random1000",
    "peel_random4000",
    "peel_chain1000",
    "peel_chain4000",
)


def build(shape: str):
    import numpy as np

    import isoframe as iso

    if shape.startswith("edge_split"):
        from oracles import henneberg_graph

        j = int(shape.removeprefix("edge_split"))
        edges = henneberg_graph(random.Random(j), 2, j, 1.0)
        coords = np.random.default_rng(j).uniform(-1.0, 1.0, (j, 2))
        return iso.new_framework(2, coords.tolist(), edges)
    if shape == "chain1000_closed":
        from gen import henneberg

        coords, bars = henneberg(np.random.default_rng(0), 1000, "chain")
        return iso.new_framework(2, coords.tolist(), bars + [(0, 999)])
    if shape == "icosahedron_twisted":
        return iso.twisted_cap_all_faces(iso.platonic("icosahedron"))
    if shape == "icosahedron_twisted_capped":
        return iso.cap_all_faces_symmetric(iso.twisted_cap_all_faces(iso.platonic("icosahedron")))
    if shape == "double_banana":
        return iso.double_banana()
    if shape == "k5_pendant_triangle":
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)] + [(4, 5), (4, 6), (5, 6)]
        return iso.new_framework(3, [(t, t * t, t**3) for t in range(7)], edges)
    if shape in ("mixed2d_400", "mixed3d_200"):
        from oracles import henneberg_graph

        d, j, share = (2, 400, 0.5) if shape == "mixed2d_400" else (3, 200, 0.8)
        edges = henneberg_graph(random.Random(7), d, j, share)
        coords = np.random.default_rng(7).uniform(-1.0, 1.0, (j, d))
        return iso.new_framework(d, coords.tolist(), edges)
    raise ValueError(f"unknown shape {shape!r}")


def worker(shapes: list[str]) -> dict:
    """Seconds per call, and the counts, for each shape in this process."""
    import numpy.random  # noqa: F401

    import isoframe as iso
    from isoframe import numrank

    powers, power = [], numrank._largest_singular_value
    numrank._largest_singular_value = lambda *args: powers.append(1) or power(*args)
    out = {}
    for shape in shapes:
        if shape.startswith("peel_"):
            out[shape] = peel_row(shape)
            continue
        f = build(shape)
        calls = {"mobility": iso.mobility, "nullspace_bases": iso.nullspace_bases}
        if f.dimension == 2:
            calls["pebble_game_2_3"] = iso.pebble_game_2_3
        else:
            calls["count_screen_3d"] = lambda f: iso.count_screen_3d(f, 8)
        row, results, ran = {}, {}, {}
        for name, call in calls.items():
            f = build(shape)
            del powers[:]
            start = time.perf_counter()
            results[name] = call(f)
            row[name] = time.perf_counter() - start
            ran[name] = bool(powers)
        ks = results["mobility"]
        stress, mech = results["nullspace_bases"]
        row["counts"] = {
            "joints": f.joint_count,
            "bars": f.bar_count,
            "rank": ks.rank,
            "m": ks.m,
            "s": ks.s,
            "stress_rows": len(stress),
            "mechanism_rows": len(mech),
            "peeled_joints": ks.peeled_joints,
            "remainder": ks.singular_values.size,
            "power_iteration": ran["mobility"],
        }
        if f.dimension == 3:
            row["counts"]["core_decided"], row["counts"]["core_joints"] = core(f)
        out[shape] = row
    return out


def peel_row(shape: str) -> dict:
    """Seconds of one peel at d = 2 and at d = 3, each on a fresh graph."""
    import numpy as np
    from gen import henneberg

    from isoframe.core import Graph

    kind = shape.removeprefix("peel_").rstrip("0123456789")
    j = int(shape.removeprefix(f"peel_{kind}"))
    _, bars = henneberg(np.random.default_rng(7), j, kind)
    row, counts = {}, {"joints": j, "bars": len(bars)}
    for d in (2, 3):
        g = Graph(j, bars)
        start = time.perf_counter()
        peel = g.peel(d)
        row[f"peel_d{d}"] = time.perf_counter() - start
        counts[f"peeled_d{d}"] = len(peel[0])
    row["counts"] = counts
    return row


def core(f) -> tuple[bool, int]:
    """Whether laman._core_is_independent decides f, and the joint count of
    the core it hands to generic_rank."""
    from isoframe import laman

    joints, rank = [], laman.generic_rank
    laman.generic_rank = lambda g, d: joints.append(g.joint_count) or rank(g, d)
    try:
        return laman._core_is_independent(f), joints[0]
    finally:
        laman.generic_rank = rank


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--processes", type=int, default=5, help="fresh processes, one after another")
    p.add_argument("--shapes", default=",".join(SHAPES), help="comma list of shapes")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    shapes = args.shapes.split(",")
    unknown = sorted(set(shapes) - set(SHAPES))
    if unknown:
        p.error(f"unknown shapes {unknown}; choose from {', '.join(SHAPES)}")
    if args.worker:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
        print(json.dumps(worker(shapes)))
        return 0
    env = dict(os.environ, **{var: "1" for var in BLAS_ENV})
    runs = []
    for _ in range(args.processes):
        done = subprocess.run(
            [sys.executable, __file__, "--worker", "--shapes", args.shapes],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    report = {}
    for shape in shapes:
        rows = [run[shape] for run in runs]
        report[shape] = {
            name: {
                "min": round(min(r[name] for r in rows), 4),
                "median": round(statistics.median(r[name] for r in rows), 4),
                "max": round(max(r[name] for r in rows), 4),
            }
            for name in rows[0]
            if name != "counts"
        }
        report[shape]["counts"] = rows[0]["counts"]
    print(json.dumps({"processes": args.processes, "seconds": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
