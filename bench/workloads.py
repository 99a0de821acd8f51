"""The workloads: which inputs each one feeds to the program, and why.

A workload is a fixed job list.  The seed decides the generated inputs,
the perturbations and the order of the jobs, never which jobs there
are.  Pass p of a run draws its inputs from ``default_rng([seed, p])``,
so no input repeats byte for byte from one pass to the next.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

import expected as ex
import gen

WORKLOADS = {
    "screen3d": "3D gallery polyhedra through analyze --json, plus the j=72 "
    "twisted icosahedron through check --sufficient: the capped subgraph "
    "scan dominates",
    "batch": "symmetric fixtures moved/scaled/relabelled through analyze, "
    "check, detect; Henneberg frameworks through analyze, pebble and "
    "nullspace_bases: numeric rank, pebble game, symmetry detection",
}
# screen3d runs one long pass, so its cheap jobs run this many times in
# it, each on a fresh perturbation; a job's time is the median of its repeats
CHEAP_REPEATS = 3
# jobs that may show a known defect of the program instead of their answer
KNOWN_DEFECTS = {
    "check --sufficient:icosahedron_twisted": ex.SCREEN_BUDGET,
    "pebble:chain2000": ex.RECURSION,
    "pebble:chain4000": ex.RECURSION,
}

SOLIDS = ("tetrahedron", "octahedron", "icosahedron")
FORMS = ("", "_capped", "_twisted", "_single_cap", "_hat3")
PLANAR = ("C1", "C2", "C3", "Cs_perp", "Cs_in", "C2v", "C3v_perp", "C3v_in")
BLOCKED = ("C4", "C5", "C6", "C4v")

# 3D fixtures whose cap-8 screen takes well under a second
CHEAP_3D = (
    "tetrahedron",
    "octahedron",
    "icosahedron",
    "tetrahedron_capped",
    "octahedron_capped",
    "tetrahedron_twisted",
) + tuple(f"{s}{form}" for s in SOLIDS for form in ("_single_cap", "_hat3"))
TWISTED_72 = ("icosahedron_twisted", "icosahedron_twisted_36deg")

# (j, shape, variant) of the planar analyze jobs
PLANAR_ANALYZE = (
    [(j, "random", v) for j in (250, 500) for v in ("tight", "dependent")]
    + [(j, "chain", v) for j in (250, 500) for v in ("tight", "underbraced")]
    + [(1000, "random", "tight"), (1000, "chain", "tight")]
)
PEBBLE_SIZES = (1000, 2000, 4000)
# (j, variant) of the planar frameworks given to mobility + nullspace_bases
MODES_PLANAR = ((250, "dependent"), (250, "underbraced"), (500, "dependent"))
HAT_STACK_K = 60
HAT_STACK_STEP = 10.0


@dataclass(frozen=True)
class Job:
    name: str
    command: str  # CLI subcommand and flags, or "modes" for the library path
    payload: object  # framework JSON text for the CLI, a Framework for "modes"
    expect: ex.Expect


def build_fixture(name: str):
    """One gallery framework, built by the library's own constructions."""
    import isoframe as iso

    if name.startswith("planar_"):
        return iso.fig2_examples(name[len("planar_") :])
    if name.startswith("blocked_"):
        return iso.counterexample_2d(name[len("blocked_") :])
    if name == "double_banana":
        return iso.double_banana()
    if name == "icosahedron_twisted_36deg":
        return iso.twisted_cap_all_faces(iso.platonic("icosahedron"), twist_angle=math.pi / 5)
    solid, _, form = name.partition("_")
    seed = iso.platonic(solid)
    face = iso.all_faces(seed)[0]
    if form == "":
        return seed
    if form == "capped":
        return iso.cap_all_faces_symmetric(seed)
    if form == "twisted":
        return iso.twisted_cap_all_faces(seed)
    if form == "single_cap":
        return iso.cap_face(seed, face, apex_height=1.0)
    if form == "hat3":
        return iso.hat_stack(seed, face, 3)
    if form == "hat_stack":
        return iso.hat_stack(seed, face, HAT_STACK_K, step=HAT_STACK_STEP)
    raise ValueError(f"unknown fixture {name!r}")


# fixtures run through analyze, check and detect
SYMMETRIC = (
    tuple(f"planar_{g}" for g in PLANAR)
    + tuple(f"blocked_{g}" for g in BLOCKED)
    + ("double_banana",)
    + CHEAP_3D
)
# the 3D fixtures of the library's basis-path jobs
MODES_3D = ("icosahedron_twisted", "double_banana", "icosahedron_hat_stack")


def fixture_names(workload: str) -> tuple[str, ...]:
    if workload == "screen3d":
        return tuple(f"{s}{form}" for s in SOLIDS for form in FORMS)
    if workload == "batch":
        return SYMMETRIC + TWISTED_72 + ("icosahedron_hat_stack",)
    raise ValueError(f"unknown workload {workload!r}")


def _fixture_jobs(rng, gallery: dict, plan: list[tuple[str, str]]) -> list[Job]:
    jobs = []
    for name, command in plan:
        payload = json.dumps(gen.perturb(rng, gallery[name]))
        jobs.append(Job(f"{command}:{name}", command, payload, ex.for_command(ex.FIXTURES[name], command)))
    return jobs


def _screen3d(rng, gallery) -> list[Job]:
    plan = []
    for name in fixture_names("screen3d"):
        if name == "icosahedron_twisted":
            plan.append((name, "check --sufficient"))
        elif name in ("icosahedron_capped", "octahedron_twisted"):
            plan.append((name, "analyze"))
        else:
            plan += [(name, "analyze")] * CHEAP_REPEATS
    return _fixture_jobs(rng, gallery, plan)


def _symmetric(rng, gallery) -> list[Job]:
    plan = [(name, c) for name in SYMMETRIC for c in ("analyze", "check", "detect")]
    plan += [(name, c) for name in TWISTED_72 for c in ("detect", "check")]
    return _fixture_jobs(rng, gallery, plan)


def _planar(rng, gallery) -> list[Job]:
    import isoframe as iso

    jobs = []
    for j, shape, variant in PLANAR_ANALYZE:
        coords, bars = gen.henneberg(rng, j, shape)
        bars = {"tight": bars, "dependent": gen.add_bar(rng, j, bars),
                "underbraced": gen.remove_bar(rng, bars)}[variant]
        payload = json.dumps(gen.planar_framework(rng, coords, bars))
        expect = ex.for_command(ex.generated(variant), "analyze")
        jobs.append(Job(f"analyze:{shape}{j}_{variant}", "analyze", payload, expect))
    for j in PEBBLE_SIZES:
        for shape in gen.SHAPES:
            _, bars = gen.henneberg(rng, j, shape)
            payload = json.dumps(gen.graph_json(rng, j, bars))
            expect = ex.for_command(ex.generated("tight"), "pebble")
            jobs.append(Job(f"pebble:{shape}{j}", "pebble", payload, expect))
    # the library's basis path, which no CLI command takes
    for j, variant in MODES_PLANAR:
        coords, bars = gen.henneberg(rng, j, "random")
        bars = gen.add_bar(rng, j, bars) if variant == "dependent" else gen.remove_bar(rng, bars)
        f = iso.from_json_dict(gen.planar_framework(rng, coords, bars))
        fx = ex.generated(variant)
        jobs.append(Job(f"modes:random{j}_{variant}", "modes", f, ex.Expect(0, m=fx.m, s=fx.s)))
    for name in MODES_3D:
        f = iso.from_json_dict(gen.perturb(rng, gallery[name]))
        fx = ex.FIXTURES[name]
        jobs.append(Job(f"modes:{name}", "modes", f, ex.Expect(0, m=fx.m, s=fx.s)))
    return jobs


def _batch(rng, gallery) -> list[Job]:
    return _symmetric(rng, gallery) + _planar(rng, gallery)


_BUILDERS = {"screen3d": _screen3d, "batch": _batch}


def gallery_for(workload: str) -> dict[str, dict]:
    """The unperturbed framework JSON of every fixture a workload uses."""
    import isoframe as iso

    return {name: iso.to_json_dict(build_fixture(name)) for name in fixture_names(workload)}


def jobs_for(workload: str, seed: int, pass_index: int, gallery: dict) -> list[Job]:
    """One pass of a workload's job list, in a seeded order."""
    rng = np.random.default_rng([seed, pass_index])
    jobs = [
        replace(job, expect=replace(job.expect, defect=KNOWN_DEFECTS[job.name]))
        if job.name in KNOWN_DEFECTS
        else job
        for job in _BUILDERS[workload](rng, gallery)
    ]
    return [jobs[int(k)] for k in rng.permutation(len(jobs))]
