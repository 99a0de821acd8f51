"""Command-line front end.

Subcommands: analyze (full pipeline), detect (point group only), check
(counting conditions, optionally a sufficiency pass), pebble (the
(2,3)-sparsity game, accepts graphs without coordinates), generate
(build fixtures and constructions).  Reports print as aligned text or,
with --json, as canonical JSON: keys sorted, two-space indent, so the
same input and flags give byte-identical output.

Exit codes: 0 pass or success, 1 checked and failed, 2 outside the
supported scope, 3 bad input (a command-line usage error included).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any

from . import constructgen
from .core import (
    Framework,
    Graph,
    check_json_rows,
    from_json_dict,
    in_scope,
    maxwell_count,
    to_json,
)
from .errors import (
    CapExceeded,
    ContinuousSymmetry,
    GroupOutsideWhitelist,
    InternalInconsistency,
    IsoframeError,
    ParseError,
)
from .laman import (
    SCAN_MAX_CAP,
    CountViolation,
    SparsityReport,
    count_screen_3d,
    pebble_game_2_3,
    symmetric_laman,
)
from .maxwell import (
    ConditionReport,
    TraceVector,
    isostatic_necessary,
    maxwell_trace,
)
from .numrank import DEFAULT_RANK_TOL, KinematicSummary, mobility
from .symdetect import (
    DEFAULT_GEOM_TOL,
    PointGroupInfo,
    detect_point_group,
    orbits,
)

REPORT_VERSION = 4

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_SCOPE = 2
EXIT_INPUT = 3


def _read_json(path: str) -> Any:
    """The parsed JSON of a file, or of stdin for "-"."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc


def _load_framework(path: str) -> Framework:
    return from_json_dict(_read_json(path))


def _load_graph(path: str) -> Graph:
    """A graph for the pebble game: the framework of a framework file, or
    a bare graph from one without coordinates ("joints" may be a count)."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if isinstance(data.get("joints"), list):
        return from_json_dict(data)
    count = data.get("joints", data.get("joint_count"))
    if not isinstance(count, int) or isinstance(count, bool):
        raise ParseError(
            f"{path}: 'joints' must be a coordinate list or an integer count"
        )
    raw = data.get("bars")
    if not isinstance(raw, list):
        raise ParseError(f"{path}: 'bars' must be a list of id pairs")
    check_json_rows(raw, int, "bar")
    return Graph(count, raw)


def _write_dot(path: str, g: Graph) -> None:
    """A DOT description of g, with dimension and positions for a Framework."""
    head = f"{g.joint_count} joints, {g.bar_count} bars"
    nodes = [f"  {i};" for i in range(g.joint_count)]
    if isinstance(g, Framework):
        head = f"dimension {g.dimension}, {head}"
        pos = (",".join(map(repr, row)) for row in g.coordinates.tolist())
        nodes = [f'  {i} [pos="{p}"];' for i, p in enumerate(pos)]
    lines = ["graph isoframe {", f"  // {head}", *nodes]
    lines += [f"  {u} -- {v};" for u, v in g.ends.tolist()]
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# report digests


def _header(args: argparse.Namespace, path: str) -> dict:
    return {"report_version": REPORT_VERSION, "command": args.command, "input": path}


def _framework_digest(f: Framework) -> dict:
    return {
        "dimension": f.dimension,
        "joints": f.joint_count,
        "bars": f.bar_count,
        "scalar_count": maxwell_count(f),
    }


def _group_digest(info: PointGroupInfo) -> dict:
    return {
        "schoenflies": info.schoenflies,
        "dimension": info.dimension,
        "order": info.order,
        "principal_axis": (
            None if info.principal_axis is None else list(info.principal_axis)
        ),
        "classes": [
            {
                "label": c.label,
                "size": c.size,
                "kind": c.key.kind,
                "n": c.key.n,
                "k": c.key.k,
                "role": c.key.role,
            }
            for c in info.classes
        ],
    }


def _kinematic_digest(ks: KinematicSummary) -> dict:
    return {
        "rank": ks.rank,
        "rigid_body_dim": ks.rigid_body_dim,
        "mechanisms": ks.m,
        "self_stresses": ks.s,
        "isostatic": ks.is_isostatic,
        "rank_tolerance": ks.tolerance_used,
    }


def _trace_digest(tv: TraceVector) -> dict:
    return {
        "classes": [c.label for c in tv.group.classes],
        "values": list(tv.values),
        "exact": list(tv.exact),
    }


def _condition_digest(rep: ConditionReport) -> dict:
    return {
        "schoenflies": rep.schoenflies,
        "dimension": rep.dimension,
        "passed": rep.passed,
        "admissible_2d": rep.admissible_2d,
        "notes": list(rep.notes),
        "checks": [
            {
                "class": c.class_label,
                "equation_id": c.eq_id,
                "equation": c.equation,
                "inputs": dict(c.inputs),
                "lhs": c.lhs,
                "rhs": c.rhs,
                "passed": c.passed,
                "note": c.note,
            }
            for c in rep.checks
        ],
    }


def _sparsity_digest(sp: SparsityReport) -> dict:
    out: dict[str, Any] = {
        "verdict": sp.verdict,
        "joints": sp.joint_count,
        "bars": sp.bar_count,
        "free_pebbles": sp.free_pebbles,
    }
    if sp.verdict == "dependent":
        out["witness"] = {
            "joint_ids": list(sp.witness_joint_ids),
            "bar_ids": list(sp.witness_bar_ids),
            "joints": sp.witness_joint_total,
            "bars": sp.witness_bar_total,
        }
    else:
        out["witness"] = None
    return out


def _violations_digest(violations: list[CountViolation]) -> list[dict]:
    return [
        {
            "joint_ids": list(v.joint_ids),
            "bar_ids": list(v.bar_ids),
            "joints": v.joint_total,
            "bars": v.bar_total,
            "slack": v.slack,
        }
        for v in violations
    ]


def _numeric_verdict(ks: KinematicSummary) -> str:
    if ks.is_isostatic:
        return "isostatic"
    if ks.m > 0 and ks.s > 0:
        return "flexible-and-stressed"
    if ks.m > 0:
        return "flexible"
    return "overbraced"


# ---------------------------------------------------------------------------
# commands


def _out_of_scope(f: Framework) -> dict:
    return {
        "scope": f"frameworks with {f.joint_count} joints in "
        f"{f.dimension}D are outside the supported scope"
    }


def _start(args: argparse.Namespace) -> tuple[Framework, dict]:
    """Load the framework, write any DOT file, and begin the report."""
    f = _load_framework(args.path)
    if args.dump_dot:
        _write_dot(args.dump_dot, f)
    bundle = _header(args, args.path)
    bundle["tolerances"] = {"geometric_rel": args.tol_geom}
    if "tol_rank" in args:  # analyze alone ranks
        bundle["tolerances"]["rank"] = args.tol_rank
    bundle["framework"] = _framework_digest(f)
    return f, bundle


def cmd_analyze(args: argparse.Namespace) -> tuple[dict, int]:
    f, bundle = _start(args)
    if not in_scope(f):
        bundle["verdict"] = _out_of_scope(f)
        return bundle, EXIT_SCOPE

    group = detect_point_group(f, args.tol_geom)
    ks = mobility(f, tol=args.tol_rank)
    tv = maxwell_trace(f, group)
    cond = isostatic_necessary(f, group)

    bundle["group"] = _group_digest(group)
    bundle["kinematics"] = _kinematic_digest(ks)
    bundle["trace"] = _trace_digest(tv)
    bundle["conditions"] = _condition_digest(cond)

    sparsity: SparsityReport | None = None
    if f.dimension == 2:
        try:
            lam = symmetric_laman(f, cond)
            sparsity = lam.pebble
            sufficiency = {
                "verdict": "isostatic" if lam.passed else "not isostatic",
                "passed": lam.passed,
                "epistemic": lam.epistemic,
                "notes": list(lam.notes),
            }
        except GroupOutsideWhitelist as exc:
            sparsity = pebble_game_2_3(f)
            sufficiency = {
                "verdict": str(exc),
                "passed": False,
                "epistemic": "theorem-backed",
                "notes": [],
            }
        bundle["sparsity"] = _sparsity_digest(sparsity)
    else:
        cap = min(args.max_subgraph, f.joint_count)
        try:
            violations = count_screen_3d(f, cap)
            if violations:
                verdict = (
                    f"counting screen found {len(violations)} overbraced "
                    f"subgraphs (up to {cap} joints)"
                )
            else:
                verdict = f"counting screen clean up to {cap} joints"
            bundle["screen_violations"] = _violations_digest(violations)
        except CapExceeded as exc:
            verdict = f"counting screen aborted: {exc}"
            bundle["screen_violations"] = None
        sufficiency = {
            "verdict": verdict,
            "passed": None,
            "epistemic": "necessary-only",
            "notes": [
                "no sufficiency theory is available in 3D; a clean "
                "screen does not certify isostaticity"
            ],
        }

    if ks.is_isostatic and not cond.passed:
        raise InternalInconsistency(
            "numerically isostatic framework failed a necessary counting "
            "condition; the detector, the counts, or the rank tolerance "
            "is wrong"
        )

    bundle["verdict"] = {
        "necessary": cond.passed,
        "numeric": _numeric_verdict(ks),
        "sufficiency": sufficiency,
    }
    return bundle, EXIT_PASS if ks.is_isostatic else EXIT_FAIL


def cmd_detect(args: argparse.Namespace) -> tuple[dict, int]:
    f, bundle = _start(args)
    group = detect_point_group(f, args.tol_geom)
    parts = orbits(f, group)
    bundle["group"] = _group_digest(group)
    bundle["orbits"] = {
        "joint_orbits": [list(o) for o in parts.joint_orbits],
        "bar_orbits": [list(o) for o in parts.bar_orbits],
    }
    return bundle, EXIT_PASS


def cmd_check(args: argparse.Namespace) -> tuple[dict, int]:
    f, bundle = _start(args)
    if not in_scope(f):
        bundle["verdict"] = _out_of_scope(f)
        return bundle, EXIT_SCOPE
    group = detect_point_group(f, args.tol_geom)
    cond = isostatic_necessary(f, group)
    bundle["group"] = _group_digest(group)
    bundle["conditions"] = _condition_digest(cond)
    ok = cond.passed
    if args.sufficient:
        if f.dimension == 2:
            try:
                lam = symmetric_laman(f, cond)
                bundle["sufficiency"] = {
                    "passed": lam.passed,
                    "epistemic": lam.epistemic,
                    "sparsity": _sparsity_digest(lam.pebble),
                    "notes": list(lam.notes),
                }
                ok = ok and lam.passed
            except GroupOutsideWhitelist as exc:
                bundle["sufficiency"] = {
                    "passed": False,
                    "epistemic": "theorem-backed",
                    "sparsity": None,
                    "notes": [str(exc)],
                }
                ok = False
        else:
            cap = min(args.max_subgraph, f.joint_count)
            violations = count_screen_3d(f, cap)
            bundle["sufficiency"] = {
                "passed": None,
                "epistemic": "necessary-only",
                "screen_violations": _violations_digest(violations),
                "notes": [
                    f"subgraph counting screen up to {cap} joints; "
                    "necessary, never sufficient, in 3D"
                ],
            }
            ok = ok and not violations
    bundle["verdict"] = {"passed": ok}
    return bundle, EXIT_PASS if ok else EXIT_FAIL


def cmd_pebble(args: argparse.Namespace) -> tuple[dict, int]:
    g = _load_graph(args.path)
    if args.dump_dot:
        _write_dot(args.dump_dot, g)
    sp = pebble_game_2_3(g)
    bundle = _header(args, args.path)
    bundle["graph"] = {"joints": g.joint_count, "bars": g.bar_count}
    bundle["sparsity"] = _sparsity_digest(sp)
    return bundle, EXIT_PASS if sp.verdict == "tight" else EXIT_FAIL


def _parse_face(text: str) -> tuple[int, int, int]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"--face wants three ids like 0,1,2 (got {text!r})")
    if len(parts) != 3:
        raise ParseError(f"--face wants three ids like 0,1,2 (got {text!r})")
    return parts  # type: ignore[return-value]


def cmd_generate(args: argparse.Namespace) -> tuple[dict | str, int]:
    """Build a framework.  Without -o its JSON, not a report, owns stdout."""
    recipe = args.recipe
    needs_input = {
        "cap_face",
        "cap_all_faces_symmetric",
        "twisted_cap_all_faces",
        "hat_stack",
    }
    if recipe in needs_input:
        if not args.input:
            raise ParseError(f"recipe {recipe} needs --input FILE")
        seed_f = _load_framework(args.input)
    else:
        seed_f = None

    if recipe == "platonic":
        if not args.param:
            raise ParseError("recipe platonic needs a solid name")
        f = constructgen.platonic(args.param)
    elif recipe == "fig2_examples":
        if not args.param:
            raise ParseError("recipe fig2_examples needs a group name")
        f = constructgen.fig2_examples(args.param)
    elif recipe == "counterexample_2d":
        if not args.param:
            raise ParseError("recipe counterexample_2d needs a group name")
        f = constructgen.counterexample_2d(args.param)
    elif recipe == "double_banana":
        f = constructgen.double_banana()
    elif recipe == "cap_face":
        if not args.face or args.height is None:
            raise ParseError("recipe cap_face needs --face and --height")
        f = constructgen.cap_face(seed_f, _parse_face(args.face), args.height)
    elif recipe == "cap_all_faces_symmetric":
        f = constructgen.cap_all_faces_symmetric(seed_f, args.height)
    elif recipe == "twisted_cap_all_faces":
        twist = (
            constructgen.DEFAULT_TWIST
            if args.twist_deg is None
            else math.radians(args.twist_deg)
        )
        f = constructgen.twisted_cap_all_faces(seed_f, twist, args.height)
    elif recipe == "hat_stack":
        if not args.face or args.k is None:
            raise ParseError("recipe hat_stack needs --face and --k")
        f = constructgen.hat_stack(
            seed_f,
            _parse_face(args.face),
            args.k,
            first_height=args.first_height,
            step=args.step,
        )
    else:
        raise ParseError(
            f"unknown recipe {recipe!r}; choose one of platonic, "
            "fig2_examples, counterexample_2d, double_banana, cap_face, "
            "cap_all_faces_symmetric, twisted_cap_all_faces, hat_stack"
        )

    if args.dump_dot:
        _write_dot(args.dump_dot, f)
    if not args.output:
        return to_json(f), EXIT_PASS
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(to_json(f) + "\n")
    bundle = _header(args, args.output)
    bundle["recipe"] = recipe
    bundle["framework"] = _framework_digest(f)
    return bundle, EXIT_PASS


# ---------------------------------------------------------------------------
# text rendering


def _fmt_value(v: Any) -> str:
    if isinstance(v, float):
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return f"{v:.6g}"
    return str(v)


def _render_checks(checks: list[dict], lines: list[str]) -> None:
    for c in checks:
        mark = "pass" if c["passed"] else "FAIL"
        ins = ", ".join(f"{k}={v}" for k, v in sorted(c["inputs"].items()))
        lines.append(
            f"  [{mark}] {c['class']:<12} {c['equation_id']:<11} "
            f"{c['equation']}"
        )
        detail = (
            f"         lhs={_fmt_value(c['lhs'])} rhs={_fmt_value(c['rhs'])}"
        )
        if ins:
            detail += f"  ({ins})"
        lines.append(detail)
        if c["note"]:
            lines.append(f"         note: {c['note']}")


def _render_text(bundle: dict) -> str:
    lines: list[str] = []
    cmd = bundle["command"]
    fw = bundle.get("framework")
    if fw:
        lines.append(
            f"framework      : {fw['dimension']}D, {fw['joints']} joints, "
            f"{fw['bars']} bars"
        )
        lines.append(f"scalar count   : {fw['scalar_count']}")
    if "scope" in bundle.get("verdict", {}):
        lines.append(f"scope          : {bundle['verdict']['scope']}")
        return "\n".join(lines)
    grp = bundle.get("group")
    if grp:
        lines.append(
            f"group          : {grp['schoenflies']} (order {grp['order']})"
        )
        lines.append(
            "classes        : "
            + ", ".join(c["label"] for c in grp["classes"])
        )
    if cmd == "detect":
        orb = bundle["orbits"]
        lines.append(f"joint orbits   : {len(orb['joint_orbits'])}")
        for o in orb["joint_orbits"]:
            lines.append(f"  {o}")
        lines.append(f"bar orbits     : {len(orb['bar_orbits'])}")
        for o in orb["bar_orbits"]:
            lines.append(f"  {o}")
        return "\n".join(lines)
    if cmd == "pebble":
        g = bundle["graph"]
        lines.append(
            f"graph          : {g['joints']} joints, {g['bars']} bars"
        )
        sp = bundle["sparsity"]
        lines.append(f"pebble verdict : {sp['verdict']}")
        lines.append(f"free pebbles   : {sp['free_pebbles']}")
        if sp["witness"]:
            w = sp["witness"]
            lines.append(
                f"witness        : {w['joints']} joints / {w['bars']} bars "
                f"(needs at most {2 * w['joints'] - 3})"
            )
            lines.append(f"  joints {w['joint_ids']}")
            lines.append(f"  bars   {w['bar_ids']}")
        return "\n".join(lines)
    if cmd == "generate":
        lines.append(f"recipe         : {bundle['recipe']}")
        return "\n".join(lines)

    kin = bundle.get("kinematics")
    if kin:
        lines.append(
            f"rank           : {kin['rank']} "
            f"(rigid-body dim {kin['rigid_body_dim']}, "
            f"rank tol {kin['rank_tolerance']:g})"
        )
        lines.append(f"mechanisms     : {kin['mechanisms']}")
        lines.append(f"self-stresses  : {kin['self_stresses']}")
    tr = bundle.get("trace")
    if tr:
        lines.append("trace (mechanisms minus self-stresses) by class:")
        for label, value in zip(tr["classes"], tr["values"]):
            lines.append(f"  {label:<12} {_fmt_value(value)}")
    cond = bundle.get("conditions")
    if cond:
        word = "pass" if cond["passed"] else "FAIL"
        lines.append(f"necessary      : {word}")
        _render_checks(cond["checks"], lines)
        for note in cond["notes"]:
            lines.append(f"  note: {note}")
        if cond["admissible_2d"] is not None:
            lines.append(
                f"  2D group admissible: {cond['admissible_2d']}"
            )
    sp = bundle.get("sparsity")
    if sp:
        lines.append(f"pebble verdict : {sp['verdict']}")
    if "screen_violations" in bundle:
        v = bundle["screen_violations"]
        if v is None:
            lines.append("subgraph screen: aborted (work budget)")
        elif v:
            lines.append(f"subgraph screen: {len(v)} violations")
            for item in v[:10]:
                lines.append(
                    f"  joints {item['joint_ids']} bars={item['bars']} "
                    f"slack={item['slack']}"
                )
        else:
            lines.append("subgraph screen: clean")
    verdict = bundle.get("verdict", {})
    if cmd == "analyze":
        lines.append(f"numeric        : {verdict['numeric']}")
        suff = verdict["sufficiency"]
        lines.append(
            f"sufficiency    : {suff['verdict']}  [{suff['epistemic']}]"
        )
        for note in suff.get("notes", []):
            lines.append(f"  note: {note}")
    elif cmd == "check":
        suff = bundle.get("sufficiency")
        if suff:
            state = suff["passed"]
            word = {True: "pass", False: "FAIL", None: "screen only"}[state]
            lines.append(
                f"sufficiency    : {word}  [{suff['epistemic']}]"
            )
            for note in suff.get("notes", []):
                lines.append(f"  note: {note}")
        word = "pass" if verdict["passed"] else "FAIL"
        lines.append(f"overall        : {word}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input: exit 3, not argparse's 2 (scope)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(text)
    return value


_FLAGS = {
    "--json": dict(action="store_true", help="emit canonical JSON"),
    "--tol-rank": dict(
        type=finite,
        default=DEFAULT_RANK_TOL,
        help="relative singular-value cutoff for numeric rank; joints "
        "peeled or eliminated before the SVD count exactly, so at loose "
        "cutoffs the rank can exceed a dense SVD's",
    ),
    "--tol-geom": dict(
        type=finite,
        default=DEFAULT_GEOM_TOL,
        help="relative geometric tolerance for symmetry detection",
    ),
    "--max-subgraph": dict(
        type=int,
        default=8,
        choices=range(3, SCAN_MAX_CAP + 1),
        metavar="N",
        help=f"joint cap, 3 to {SCAN_MAX_CAP}, for the 3D subgraph screen",
    ),
    "--dump-dot": dict(
        metavar="PATH",
        default=None,
        help="also write a DOT graph description to PATH",
    ),
}
_PATH = "framework JSON file, or - for stdin"

# name: (runner, summary, help for its input path, the shared flags it reads)
_COMMANDS = {
    "analyze": (cmd_analyze, "full report on one framework", _PATH, tuple(_FLAGS)),
    "detect": (
        cmd_detect, "point group and orbits only", _PATH,
        ("--json", "--tol-geom", "--dump-dot"),
    ),
    "check": (
        cmd_check, "necessary counting conditions", _PATH,
        ("--json", "--tol-geom", "--max-subgraph", "--dump-dot"),
    ),
    "pebble": (
        cmd_pebble, "(2,3)-sparsity pebble game",
        "framework JSON, or graph JSON with an integer joint count",
        ("--json", "--dump-dot"),
    ),
    "generate": (
        cmd_generate, "build fixtures and constructions", None,
        ("--json", "--dump-dot"),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="isoframe",
        description=(
            "Decide and explain isostaticity of symmetric pin-jointed "
            "frameworks"
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (run, summary, path_help, flags) in _COMMANDS.items():
        sp = parsers[name] = sub.add_parser(name, help=summary)
        sp.set_defaults(run=run)
        if path_help:
            sp.add_argument("path", help=path_help)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])

    parsers["check"].add_argument(
        "--sufficient",
        action="store_true",
        help="also run the sufficiency pass (2D) or subgraph screen (3D)",
    )
    sp = parsers["generate"]
    sp.add_argument("recipe", help="what to build")
    sp.add_argument(
        "param",
        nargs="?",
        default=None,
        help="solid name (platonic) or group label (fig2_examples, "
        "counterexample_2d)",
    )
    sp.add_argument("-i", "--input", default=None, help="seed framework JSON")
    sp.add_argument("-o", "--output", default=None, help="write JSON here")
    sp.add_argument("--face", default=None, help="face ids like 0,1,2")
    sp.add_argument("--height", type=float, default=None)
    sp.add_argument("--twist-deg", type=float, default=None)
    sp.add_argument("--k", type=int, default=None, help="hat stack size")
    sp.add_argument("--first-height", type=float, default=None)
    sp.add_argument("--step", type=float, default=None)
    return p


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        report, code = args.run(args)
    except InternalInconsistency:
        raise
    except ContinuousSymmetry as exc:
        print(f"outside scope: {exc}", file=sys.stderr)
        return EXIT_SCOPE
    except (IsoframeError, ValueError, OSError) as exc:  # OSError: an output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if isinstance(report, dict) and args.json:
        report = json.dumps(report, indent=2, sort_keys=True)
    elif isinstance(report, dict):
        report = _render_text(report)
    try:
        sys.stdout.write(report + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: what is still buffered goes to the null
        # device, so that the interpreter's flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
