#!/usr/bin/env python3
"""isoframe benchmark: time to verdict on fixed job lists.

Run from the repository root:

    python3 bench/run.py --workload batch --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload
    python3 bench/run.py --workload screen3d,batch --trace 1   # per-layer run
    python3 bench/run.py --compare OLD NEW                   # record dirs or files

Each run starts fresh worker processes (one per set-up sample, one to
measure), which import isoframe from ``src/``, build the workload's
inputs from the seed, warm up, then run whole passes of the job list in
a closed loop (one client, the next job starts when the last ends)
until ``--seconds`` have passed.  Every answer is checked against an
expectation written without the program (``expected.py``): exit 3 on a
valid input or a 3D screen that gave up counts as undecided.  A crash
or a wrong answer counts as failed, and so does an undecided job unless
that is the known defect listed for it in ``workloads.KNOWN_DEFECTS``.
The run is correct only if every job that gave no answer showed its
known defect.  With
``--trace 1`` a traced worker, with wrappers around the library's
public functions, runs alongside an untraced one for the same time and
reports per-layer metrics; the ratio of their wall_s is the tracing
overhead.

The report lines name every metric with its unit; the last line is one
JSON object with the keys correct, attempted, failed and metrics.  A
full record, with the environment, goes to ``.bench_out/runs/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_THREADS = 1
# fresh processes per run whose set-up time is timed: two before the
# measuring worker, the measuring worker itself, and two after, so that
# their median spans the run rather than a few seconds of a host whose
# speed drifts
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a workload not finished by then is abandoned

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
# Also reported, though not in the result line: latency_p50_ms,
# latency_p90_ms, fail_rate and undecided_rate.  The rates are 0 on some
# workloads.  The latency percentiles are taken over lists of unlike
# jobs, where noise on a shared host swaps the jobs either side of the
# percentile from run to run.
P90_MIN_SAMPLES = 100


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    k = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[k - 1]


def run_metrics(passes: list[list[dict]]) -> dict:
    """End-to-end figures of one measuring worker's passes.

    A job's time is the median of all its runs: one per pass, or
    workloads.CHEAP_REPEATS per pass for screen3d's cheap jobs.  wall_s
    adds those times up over the distinct jobs of a pass, and
    latency_p50_ms is their median, a job that failed in any pass
    ranking as slower than every job that finished.  latency_p90_ms is
    taken over all raw samples, where there are enough of them.
    """
    jobs = [r for p in passes for r in p]

    def bad(r: dict) -> bool:
        return r["outcome"] in ("crash", "wrong") or not r["as_expected"]

    times: dict[str, list[float]] = {}
    failed_jobs: set[str] = set()
    for r in jobs:
        times.setdefault(r["job"], []).append(r["latency_s"])
        if bad(r):
            failed_jobs.add(r["job"])
    typical = {name: statistics.median(v) for name, v in times.items()}
    ranked = [math.inf if name in failed_jobs else t * 1e3 for name, t in typical.items()]
    wall = sum(typical.values())
    failed = sum(bad(r) for r in jobs)
    undecided = sum(r["outcome"] == "undecided" for r in jobs)
    out = {
        "wall_s": wall,
        "latency_p50_ms": statistics.median(ranked),
        "fail_rate": failed / len(jobs),
        "undecided_rate": undecided / len(jobs),
        "samples": len(jobs),
        "passes": len(passes),
        "failed": failed,
        "undecided": undecided,
        "unexpected": sum(not r["as_expected"] for r in jobs),
    }
    if len(jobs) >= P90_MIN_SAMPLES:
        raw = [math.inf if bad(r) else r["latency_s"] * 1e3 for r in jobs]
        out["latency_p90_ms"] = percentile(raw, 90)
    return out


# ---------------------------------------------------------------------------
# processes


def spawn_all(requests: list[dict], deadline: float) -> list[dict]:
    """Run worker.py once per request, all at the same time, each in a
    fresh process, and return what each reports.  Every process started
    here has ended when this returns or raises."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    started = []
    try:
        for request in requests:
            started.append(subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
            ))
        results = []
        for proc, request in zip(started, requests):
            try:
                out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired:
                raise RuntimeError(f"worker gave no result within the run limit ({request['workload']})") from None
            lines = out.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"worker exited with code {proc.returncode} and no result ({request['workload']})")
            results.append(json.loads(lines[-1]))
        return results
    finally:
        for proc in started:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "isoframe").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    base = {"workload": workload, "seed": seed, "seconds": seconds, "trace": False}
    if not trace:
        # one at a time, so no set-up shares the machine with another
        def setup_only(n: int) -> list[float]:
            return [spawn_all([{**base, "setup_only": True}], deadline)[0]["setup_s"] for _ in range(n)]

        before = SETUP_SAMPLES // 2
        setups = setup_only(before)
        (res,) = spawn_all([base], deadline)
        setups += [res["setup_s"]] + setup_only(SETUP_SAMPLES - 1 - before)
        figures = run_metrics(res["passes"])
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": figures["wall_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        return {"metrics": metrics, "figures": figures, "setup_samples": setups,
                "passes": res["passes"], "env": res["env"]}
    spans = OUT / "spans" / f"{workload}-seed{seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    # side by side, so both see the same machine state
    plain, traced = spawn_all([base, {**base, "trace": True, "spans_path": str(spans)}], deadline)
    plain_fig, traced_fig = run_metrics(plain["passes"]), run_metrics(traced["passes"])
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced_fig["wall_s"] / plain_fig["wall_s"]
    both = plain["passes"] + traced["passes"]
    return {"metrics": metrics, "figures": run_metrics(both), "passes": both,
            "env": traced["env"], "spans": str(spans.relative_to(ROOT))}


# ---------------------------------------------------------------------------
# reporting


def units(trace: bool) -> dict[str, str]:
    if not trace:
        return dict(END_TO_END)
    from tracer import LAYER_METRICS

    return {**LAYER_METRICS, "trace.overhead_ratio": "ratio"}


def report(workload: str, res: dict, trace: bool) -> None:
    fig = res["figures"]
    env = res["env"]
    print(
        f"# env python={env['python']} numpy={env['numpy']} blas={env['blas'].get('name')}"
        f"-{env['blas'].get('version')} nproc={env['nproc']} blas_threads={BLAS_THREADS}"
        f" git={res['git_sha']} src={res['src_digest']}"
    )
    for name, unit in units(trace).items():
        print(f"{workload:9s} {name:42s} {res['metrics'][name]:.6g} {unit}")
    if not trace:
        print(f"{workload:9s} {'setup samples':42s} " + ", ".join(f"{s:.4f}" for s in res["setup_samples"]) + " s")
    print(f"{workload:9s} {'latency_p50_ms':42s} {fig['latency_p50_ms']:.6g} ms")
    p90 = fig.get("latency_p90_ms")
    p90_text = f"{p90:.6g} ms" if p90 is not None else f"n/a ({fig['samples']} samples < {P90_MIN_SAMPLES})"
    print(f"{workload:9s} {'latency_p90_ms':42s} {p90_text}")
    print(f"{workload:9s} {'fail_rate':42s} {fig['fail_rate']:.6g} ({fig['failed']} of {fig['samples']})")
    print(f"{workload:9s} {'undecided_rate':42s} {fig['undecided_rate']:.6g} ({fig['undecided']} of {fig['samples']})")
    print(f"{workload:9s} {'samples':42s} {fig['samples']} jobs in {fig['passes']} passes")
    seen = set()
    for rec in (r for p in res["passes"] for r in p):
        if rec["outcome"] != "ok" and (rec["job"], rec["outcome"]) not in seen:
            seen.add((rec["job"], rec["outcome"]))
            note = "known defect" if rec["as_expected"] else "UNEXPECTED"
            print(f"{workload:9s} {rec['outcome']:9s} {note:12s} {rec['job']}: {rec['detail']}")


def write_record(workload: str, seed: int, trace: bool, res: dict) -> Path:
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = runs / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    record = {"workload": workload, "seed": seed, "trace": trace, **res}
    record["metrics"] = {k: {"value": v, "unit": units(trace)[k]} for k, v in res["metrics"].items()}
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path


# ---------------------------------------------------------------------------
# compare mode


def load_records(where: str) -> list[dict]:
    paths = sorted(glob.glob(os.path.join(where, "*.json"))) if os.path.isdir(where) else [where]
    return [json.loads(Path(p).read_text()) for p in paths]


def compare(old: list[dict], new: list[dict], spec: dict) -> list[dict]:
    """Per workload and metric: both medians, their ratio on the old
    base, and whether the change is worse than the benchmark's bound."""
    rules = {m["name"]: m for m in spec.get("end_to_end", [])}
    rows = []
    keys = sorted({(r["workload"], k) for r in old + new for k in r["metrics"]})
    for workload, metric in keys:
        a = [r["metrics"][metric]["value"] for r in old if r["workload"] == workload and metric in r["metrics"]]
        b = [r["metrics"][metric]["value"] for r in new if r["workload"] == workload and metric in r["metrics"]]
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        ratio = mb / ma if ma else math.nan
        rule = rules.get(metric)
        if rule is None:
            verdict = "no bound"
        else:
            worse = (mb - ma) if rule["better"] == "lower" else (ma - mb)
            share = worse / ma if ma else math.inf
            if share > rule["bound"]:
                verdict = f"WORSE beyond bound {rule['bound']}"
            elif share < 0:
                verdict = "better"
            else:
                verdict = f"within bound {rule['bound']}"
        rows.append({"workload": workload, "metric": metric, "old": ma, "new": mb, "runs": (len(a), len(b)),
                     "ratio": ratio, "verdict": verdict})
    return rows


def print_compare(rows: list[dict]) -> None:
    print(f"{'workload':9s} {'metric':42s} {'old median':>12s} {'new median':>12s} {'new/old':>8s} runs   verdict")
    for r in rows:
        print(
            f"{r['workload']:9s} {r['metric']:42s} {r['old']:12.6g} {r['new']:12.6g} {r['ratio']:8.4f} "
            f"{r['runs'][0]}/{r['runs'][1]}  {r['verdict']}"
        )


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS as NAMES

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", help=f"one of {', '.join(NAMES)}, a comma list, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0, help="how long each workload measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two record sets")
    args = p.parse_args(argv)
    # a terminated run unwinds, so the workers it started are stopped and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.compare:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else {}
        print_compare(compare(load_records(args.compare[0]), load_records(args.compare[1]), spec))
        return 0

    if not (SRC / "isoframe" / "__init__.py").is_file():
        print(f"error: no isoframe sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = list(NAMES) if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in names if w not in NAMES]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; choose from {list(NAMES)}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if BLAS_THREADS > nproc:
        print(f"error: {BLAS_THREADS} BLAS threads exceed {nproc} usable cores", file=sys.stderr)
        return 2
    from worker import BLAS_ENV

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sha, digest = git_sha(), src_digest()
    trace = bool(args.trace)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    undecided = unexpected = 0
    for workload in names:
        try:
            res = measure(workload, args.seed, args.seconds, trace, time.monotonic() + RUN_LIMIT_S)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        res["git_sha"], res["src_digest"] = sha, digest
        print(f"# isoframe benchmark workload={workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        report(workload, res, trace)
        print(f"# record {write_record(workload, args.seed, trace, res).relative_to(ROOT)}")
        fig = res["figures"]
        summary["correct"] = summary["correct"] and fig["unexpected"] == 0
        summary["attempted"] += fig["samples"]
        summary["failed"] += fig["failed"]
        undecided += fig["undecided"]
        unexpected += fig["unexpected"]
        prefix = "" if len(names) == 1 else f"{workload}."
        for name, unit in units(trace).items():
            summary["metrics"][prefix + name] = {"value": res["metrics"][name], "unit": unit}
    # the result line's keys are fixed; the undecided jobs are counted here
    print(f"# outcomes attempted={summary['attempted']} failed={summary['failed']} "
          f"undecided={undecided} unexpected={unexpected} correct={summary['correct']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
