#!/usr/bin/env python3
"""Time symmetry detection on the framework inputs of the benchmark.

The inputs are those of one pass of the benchmark's workloads
(`bench/workloads.py` `jobs_for`, pass 0 of seed 7), read and never
changed: every job whose payload is framework JSON, i.e. all but the
`pebble` (bare graph) and `modes` (library) jobs.  Each input is parsed
with `from_json_dict` and goes through `detect_point_group` once per
process, after one untimed call on the first input, in --processes
fresh processes, one after another, each with BLAS pinned to one
thread.  The Python function calls of each detection are counted once
more after the timing, summed over cProfile's raw entries: pstats keys
its rows by file, line and name, so of two comprehensions on one line
its total keeps one.  The counts do not depend on host speed, and
`calls_agree` says whether every process counted the same.  Prints one
JSON line: the min, median and max over the processes of the seconds
all detections took together, the mean and largest number of calls per
detection, and, for each input, its seconds (min, median, max) and
calls.

    python3 scripts/detect_ladder.py                 # 5 processes
    python3 scripts/detect_ladder.py --processes 7
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("screen3d", "batch")
SEED = 7
# job commands whose payload is no framework
NO_FRAMEWORK = ("pebble", "modes")


def inputs() -> dict:
    """The framework of every job of pass 0, keyed workload:position:job."""
    import isoframe as iso
    import workloads as bench

    out = {}
    for workload in WORKLOADS:
        jobs = bench.jobs_for(workload, SEED, 0, bench.gallery_for(workload))
        for x, job in enumerate(jobs):
            if job.command not in NO_FRAMEWORK:
                out[f"{workload}:{x}:{job.name}"] = iso.from_json_dict(json.loads(job.payload))
    return out


def worker() -> dict:
    """Seconds and Python calls of each detection, in this process."""
    from isoframe.symdetect import detect_point_group

    frameworks = inputs()
    detect_point_group(next(iter(frameworks.values())))
    seconds = {}
    for name, f in frameworks.items():
        start = time.perf_counter()
        detect_point_group(f)
        seconds[name] = time.perf_counter() - start
    calls = {}
    for name, f in frameworks.items():
        profile = cProfile.Profile()
        profile.runcall(detect_point_group, f)
        calls[name] = sum(entry.callcount for entry in profile.getstats())
    return {"seconds": seconds, "calls": calls}


def spread(values: list[float]) -> dict:
    return {
        "min": round(min(values), 5),
        "median": round(statistics.median(values), 5),
        "max": round(max(values), 5),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--processes", type=int, default=5, help="fresh processes, one after another")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.processes < 1:
        p.error("--processes must be at least 1")
    if args.worker:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
        print(json.dumps(worker()))
        return 0
    env = dict(os.environ, **{var: "1" for var in BLAS_ENV})
    runs = [
        json.loads(
            subprocess.run(
                [sys.executable, __file__, "--worker"],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.splitlines()[-1]
        )
        for _ in range(args.processes)
    ]
    names = list(runs[0]["seconds"])
    calls = runs[0]["calls"]
    report = {
        "processes": args.processes,
        "seed": SEED,
        "inputs": len(names),
        "seconds": spread([sum(run["seconds"].values()) for run in runs]),
        "calls_per_detection": {
            "mean": round(sum(calls.values()) / len(calls), 1),
            "max": max(calls.values()),
        },
        "calls_agree": all(run["calls"] == calls for run in runs),
        "per_input": {
            name: {"seconds": spread([run["seconds"][name] for run in runs]), "calls": calls[name]}
            for name in names
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
