#!/usr/bin/env python3
"""Build the whole fixture gallery and tabulate what the analyses say.

Every generated framework is written to the output directory as JSON
(loadable by the CLI and by core.from_json) next to a one-line summary:
detected group, scalar count, numeric mechanisms/self-stresses, and the
2D sparsity verdict where it applies.

Next to each framework file NAME.json go the CLI's `analyze`,
`check --sufficient` and `detect` reports on it, run with --json from
inside the output directory so that no report names the directory:
NAME.COMMAND.json holds stdout and NAME.COMMAND.log the exit code and
stderr.  Two builds of the gallery compare with `diff -r`.
"""

from __future__ import annotations

import argparse
import math
import os
import pathlib
import subprocess
import sys

import isoframe
from isoframe.constructgen import (
    all_faces,
    cap_all_faces_symmetric,
    cap_face,
    counterexample_2d,
    double_banana,
    fig2_examples,
    hat_stack,
    platonic,
    twisted_cap_all_faces,
)
from isoframe.core import Framework, to_json
from isoframe.laman import pebble_game_2_3
from isoframe.maxwell import maxwell_count
from isoframe.numrank import mobility
from isoframe.symdetect import detect_point_group


def _gallery() -> dict[str, Framework]:
    items: dict[str, Framework] = {}
    for name in ("tetrahedron", "octahedron", "icosahedron"):
        seed = platonic(name)
        items[name] = seed
        items[f"{name}_capped"] = cap_all_faces_symmetric(seed)
        items[f"{name}_twisted"] = twisted_cap_all_faces(seed)
        face = all_faces(seed)[0]
        items[f"{name}_single_cap"] = cap_face(seed, face, apex_height=1.0)
        items[f"{name}_hat3"] = hat_stack(seed, face, 3)
    # pi/5 twist lands between the degenerate angles for every seed
    items["icosahedron_twisted_36deg"] = twisted_cap_all_faces(
        platonic("icosahedron"), twist_angle=math.pi / 5
    )
    for name in ("C1", "C2", "C3", "Cs_perp", "Cs_in", "C2v", "C3v_perp", "C3v_in"):
        items[f"planar_{name}"] = fig2_examples(name)
    for name in ("C4", "C5", "C6", "C4v"):
        items[f"blocked_{name}"] = counterexample_2d(name)
    items["double_banana"] = double_banana()
    return items


def _summarize(name: str, f: Framework) -> str:
    group = detect_point_group(f)
    k = mobility(f)
    verdict = ""
    if f.dimension == 2:
        verdict = " " + pebble_game_2_3(f).verdict
    return (
        f"{name:28s} {f.dimension}D j={f.joint_count:3d} b={f.bar_count:3d} "
        f"{group.schoenflies:4s} count={maxwell_count(f):+d} "
        f"m={k.mechanisms} s={k.self_stresses}{verdict}"
    )


REPORTS = {
    "analyze": ["analyze"],
    "check": ["check", "--sufficient"],
    "detect": ["detect"],
}


def _write_reports(out_dir: pathlib.Path, name: str) -> None:
    """Run each report command on NAME.json in a fresh interpreter."""
    env = dict(os.environ)
    src = str(pathlib.Path(isoframe.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    for command, args in REPORTS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "isoframe.cli", *args, f"{name}.json", "--json"],
            cwd=out_dir,
            env=env,
            capture_output=True,
            text=True,
        )
        (out_dir / f"{name}.{command}.json").write_text(proc.stdout)
        (out_dir / f"{name}.{command}.log").write_text(
            f"exit {proc.returncode}\n{proc.stderr}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--out", default="gallery", type=pathlib.Path)
    parser.add_argument(
        "--dry-run", action="store_true", help="print the table, write nothing"
    )
    args = parser.parse_args(argv)

    items = _gallery()
    if not args.dry_run:
        args.out.mkdir(parents=True, exist_ok=True)
    for name, f in sorted(items.items()):
        print(_summarize(name, f))
        if not args.dry_run:
            (args.out / f"{name}.json").write_text(to_json(f))
            _write_reports(args.out, name)
    if not args.dry_run:
        print(f"\n{len(items)} frameworks written to {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
