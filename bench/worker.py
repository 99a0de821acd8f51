"""One measuring process: set up, run passes of a job list, report back.

The parent starts each worker fresh:

    PYTHONPATH=src python3 bench/worker.py '<request JSON>'

and reads the result, one JSON object, from the last line of its
standard output.  Nothing outside the standard library is imported at
module level, so the worker's own clock sees the cost of importing
numpy and isoframe as part of set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import sys
import time

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def _run_cli(cli, job) -> tuple[float, int | None, str, str, str | None]:
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(job.payload)
    argv = job.command.split() + ["-", "--json"]
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash is this job's result, not the run's end
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    finally:
        latency = time.perf_counter() - t0
        sys.stdin = stdin
    return latency, code, out.getvalue(), err.getvalue(), error


def _run_modes(iso, job) -> tuple[float, dict | None, str | None]:
    t0 = time.perf_counter()
    try:
        ks = iso.mobility(job.payload)
        stress, mech = iso.nullspace_bases(job.payload)
    except Exception as exc:
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {str(exc)[:200]}"
    latency = time.perf_counter() - t0
    seen = {"m": ks.m, "s": ks.s, "stress_rows": stress.shape[0], "mechanism_rows": mech.shape[0]}
    return latency, seen, None


def _judge(job, code: int, seen: dict) -> tuple[str, str]:
    """Outcome of a job that gave an answer: ok, wrong, or undecided when
    its 3D screen gave up and every other checked field is right."""
    import expected as ex

    expect = job.expect
    if seen.get("sparsity") == "aborted":
        expect = dataclasses.replace(expect, sparsity=None)
    diffs = ex.mismatches(expect, code, seen)
    if job.command == "modes":
        for kind, want in (("stress_rows", expect.s), ("mechanism_rows", expect.m)):
            if seen[kind] != want:
                diffs.append(f"{kind} {seen[kind]} != {want}")
    if diffs:
        return "wrong", "; ".join(diffs)
    if seen.get("sparsity") == "aborted":
        return "undecided", "subgraph screen aborted"
    return "ok", ""


def run_job(iso, cli, job) -> dict:
    """Run one job and judge it.

    The outcome is ok, wrong, crash (an exception escaped the program)
    or undecided (exit 3 on these valid inputs, or a 3D screen that gave
    up).  ``as_expected`` is true for ok, and for the job's known defect
    (Expect.defect) where it shows; anything else makes the run incorrect.
    """
    import expected as ex

    rec = {"job": job.name, "command": job.command}
    if job.command == "modes":
        latency, seen, error = _run_modes(iso, job)
        code, err = 0, ""
    else:
        latency, code, out, err, error = _run_cli(cli, job)
        try:
            seen = ex.observed(job.command, json.loads(out))
        except json.JSONDecodeError:
            seen = None
    rec["latency_s"] = latency
    if error is not None:
        # InternalInconsistency and any non-IsoframeError escape main()
        outcome, detail = "crash", error
    elif code == 3:
        # the CLI prints no report with exit 3, so there is nothing else to check
        outcome, detail = "undecided", f"exit 3: {err.strip()[:200]}"
    elif seen is None:
        outcome, detail = "wrong", f"exit {code}, no JSON report"
    else:
        outcome, detail = _judge(job, code, seen)
    defect = job.expect.defect
    known = defect is not None and outcome == defect[0] and defect[1] in detail
    rec.update(outcome=outcome, detail=detail, as_expected=outcome == "ok" or known)
    return rec


def main(request: dict) -> dict:
    """Set up, measure as the request says, and return the result."""
    t0 = time.perf_counter()
    tracer = None
    if request["trace"]:
        import isoframe.cli  # noqa: F401  (the tracer patches loaded modules)

        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.job = "setup"
    import isoframe as iso
    import isoframe.cli as cli

    import expected as ex
    import workloads

    workload, seed = request["workload"], request["seed"]
    gallery = workloads.gallery_for(workload)
    jobs = workloads.jobs_for(workload, seed, 0, gallery)
    # warm-up: one small job down each path, so lazy imports and caches
    # are filled before the clock starts
    run_job(iso, cli, workloads.Job("warmup", "modes", iso.double_banana(), ex.Expect(0, m=1, s=1)))
    c1 = ex.for_command(ex.FIXTURES["planar_C1"], "analyze")
    run_job(iso, cli, workloads.Job("warmup", "analyze", iso.to_json(iso.fig2_examples("C1")), c1))
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "env": environment()}
    if request.get("setup_only"):
        return result

    passes = []
    start = time.perf_counter()
    while True:
        records = []
        for job in jobs:
            if tracer is not None:
                tracer.job = f"{len(passes)}:{job.name}"
            records.append(run_job(iso, cli, job))
        passes.append(records)
        if time.perf_counter() - start >= request["seconds"]:
            break
        if tracer is not None:
            tracer.job = None
        jobs = workloads.jobs_for(workload, seed, len(passes), gallery)
    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer.spans, len(passes))
        if request.get("spans_path"):
            with open(request["spans_path"], "w", encoding="utf-8") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s.__dict__) + "\n")
    return result


if __name__ == "__main__":
    # the result goes to the real standard output; anything else the
    # program prints there goes to standard error instead
    result_out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    result_out.write(json.dumps(main(json.loads(sys.argv[1]))) + "\n")
    result_out.close()
