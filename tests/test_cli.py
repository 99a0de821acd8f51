"""Command line surface: exit codes, JSON schema, pipes, recipes."""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

import isoframe
from isoframe import cli
from isoframe.cli import main
from isoframe.constructgen import (
    counterexample_2d,
    double_banana,
    fig2_examples,
    platonic,
    twisted_cap_all_faces,
)
from isoframe.core import from_json, new_framework, to_json
from isoframe.errors import InternalInconsistency


def _child_env():
    """This environment with the package's src dir on PYTHONPATH, so that a
    child interpreter imports the same isoframe without an install."""
    env = dict(os.environ)
    src = str(pathlib.Path(isoframe.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _write(tmp_path, name, f):
    p = tmp_path / name
    p.write_text(to_json(f))
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_isostatic_json(tmp_path, capsys):
    path = _write(tmp_path, "oct.json", platonic("octahedron"))
    code, out, _ = _run(capsys, ["analyze", path, "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["report_version"] == 5
    assert d["command"] == "analyze"
    assert d["input"] == path
    assert d["group"]["schoenflies"] == "Oh"
    assert d["group"]["order"] == 48
    assert d["kinematics"]["isostatic"] is True
    assert d["kinematics"]["mechanisms"] == 0
    assert d["kinematics"]["self_stresses"] == 0
    assert d["verdict"]["numeric"] == "isostatic"
    assert d["verdict"]["necessary"] is True
    assert d["conditions"]["passed"] is True
    assert d["tolerances"] == {"geometric_rel": 1e-06, "rank": 1e-10}
    assert d["trace"]["classes"][0] == "E"
    assert all(v == 0 for v in d["trace"]["values"])
    assert d["screen_violations"] == []
    # 3D sufficiency is a screen, never a certificate
    suff = d["verdict"]["sufficiency"]
    assert suff["passed"] is None
    assert suff["epistemic"] == "necessary-only"
    assert "screen clean up to 6 joints" in suff["verdict"]


def test_analyze_json_is_byte_stable(tmp_path, capsys):
    path = _write(tmp_path, "tet.json", platonic("tetrahedron"))
    _, first, _ = _run(capsys, ["analyze", path, "--json"])
    _, second, _ = _run(capsys, ["analyze", path, "--json"])
    assert first == second
    assert first.endswith("\n")
    d = json.loads(first)
    assert first == json.dumps(d, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{tet}"],
        ["analyze", "{c2}"],
        ["detect", "{tet}"],
        ["check", "{tet}", "--sufficient"],
        ["check", "{c2}", "--sufficient"],
        ["pebble", "{c2}"],
        ["generate", "platonic", "octahedron", "-o", "{out}"],
    ],
)
def test_every_json_report_is_one_sorted_line(tmp_path, capsys, argv):
    paths = {
        "tet": _write(tmp_path, "tet.json", platonic("tetrahedron")),
        "c2": _write(tmp_path, "c2.json", fig2_examples("C2")),
        "out": str(tmp_path / "out.json"),
    }
    code, out, _ = _run(capsys, [a.format(**paths) for a in argv] + ["--json"])
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    assert json.loads(out)["report_version"] == 5


@pytest.mark.xfail(
    strict=True,
    raises=InternalInconsistency,
    reason="detection still finds C6 within its tolerance, whose count forbids an "
    "isostatic framework, while the rank at 1e-10 sees the noise and finds one",
)
@pytest.mark.parametrize("level", [1e-9, 1e-8, 1e-7])
def test_analyze_does_not_raise_on_a_noisy_c6_counterexample(tmp_path, capsys, level):
    # seeded Gaussian noise of `level` times the coordinates' range
    f = counterexample_2d("C6")
    coords = f.coordinates
    noise = np.random.default_rng(21).normal(0.0, level * np.ptp(coords), coords.shape)
    noisy = new_framework(2, (coords + noise).tolist(), f.ends.tolist())
    code, _, _ = _run(capsys, ["analyze", _write(tmp_path, "c6.json", noisy), "--json"])
    assert code in (0, 1, 2, 3)


def test_analyze_text_report(tmp_path, capsys):
    path = _write(tmp_path, "c2.json", fig2_examples("C2"))
    code, out, _ = _run(capsys, ["analyze", path])
    assert code == 0
    assert "C2" in out
    assert "[pass]" in out and "[FAIL]" not in out
    assert "mechanisms" in out
    assert "isostatic" in out


def test_analyze_overbraced_exits_1(tmp_path, capsys):
    f = platonic("octahedron")
    over = new_framework(
        3,
        [tuple(p) for p in f.coordinates],
        sorted(f.ends.tolist() + [[0, 1]]),
    )
    path = _write(tmp_path, "over.json", over)
    code, out, _ = _run(capsys, ["analyze", path, "--json"])
    assert code == 1
    d = json.loads(out)
    assert d["verdict"]["numeric"] == "overbraced"
    assert d["verdict"]["necessary"] is False
    assert d["screen_violations"]


def test_analyze_flexible_banana_exits_1(tmp_path, capsys):
    path = _write(tmp_path, "banana.json", double_banana())
    code, out, _ = _run(capsys, ["analyze", path, "--json"])
    assert code == 1
    d = json.loads(out)
    assert d["verdict"]["numeric"] == "flexible-and-stressed"
    assert d["verdict"]["necessary"] is True  # counts alone cannot see it
    assert d["screen_violations"] == []
    assert "up to 8 joints" in d["verdict"]["sufficiency"]["verdict"]


_TWISTED_72 = {
    "icosahedron_twisted": None,  # the default twist
    "icosahedron_twisted_36deg": math.pi / 5,
}


@pytest.mark.parametrize("name", sorted(_TWISTED_72))
def test_check_sufficient_decides_the_j72_screen(tmp_path, capsys, name):
    # j = 72 is past the scan's subgraph budget; the bars are generically
    # independent, so the screen is clean without a scan
    angle = _TWISTED_72[name]
    ico = platonic("icosahedron")
    f = twisted_cap_all_faces(ico) if angle is None else twisted_cap_all_faces(ico, angle)
    path = _write(tmp_path, f"{name}.json", f)
    code, out, _ = _run(capsys, ["check", path, "--sufficient", "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["framework"]["joints"] == 72
    assert d["sufficiency"]["screen_violations"] == []
    assert d["sufficiency"]["passed"] is None
    assert d["verdict"]["passed"] is True


def test_analyze_reports_a_clean_j72_screen(tmp_path, capsys):
    path = _write(tmp_path, "tw.json", twisted_cap_all_faces(platonic("icosahedron")))
    code, out, _ = _run(capsys, ["analyze", path, "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["screen_violations"] == []
    assert d["verdict"]["sufficiency"]["verdict"] == "counting screen clean up to 8 joints"


def test_analyze_out_of_scope_exits_2(tmp_path, capsys):
    tri3d = new_framework(
        3,
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.3, 0.9, 0.1)],
        [(0, 1), (0, 2), (1, 2)],
    )
    path = _write(tmp_path, "tri.json", tri3d)
    code, _, err = _run(capsys, ["analyze", path, "--json"])
    assert code == 2


def test_input_errors_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, ["analyze", str(bad)])
    assert code == 3
    assert err.strip()

    code, _, _ = _run(capsys, ["analyze", str(tmp_path / "missing.json")])
    assert code == 3

    path = _write(tmp_path, "ok.json", platonic("tetrahedron"))
    code, _, _ = _run(capsys, ["analyze", path, "--tol-geom", "0.5"])
    assert code == 3


def test_an_output_path_that_cannot_be_written_exits_3(tmp_path, capsys):
    framework = _write(tmp_path, "oct.json", platonic("octahedron"))
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"joints": 3, "bars": [[0, 1], [1, 2], [0, 2]]}))
    missing = tmp_path / "missing"
    for argv in (
        ["generate", "platonic", "octahedron", "-o", str(missing / "o.json")],
        ["analyze", framework, "--dump-dot", str(missing / "x.dot")],
        ["pebble", str(graph), "--dump-dot", str(missing / "x.dot")],
    ):
        code, _, err = _run(capsys, argv)
        assert code == 3, argv
        assert err.startswith("error:") and "missing" in err, argv
    assert not missing.exists()


def test_detect_reports_group_and_orbits(tmp_path, capsys):
    path = _write(tmp_path, "tet.json", platonic("tetrahedron"))
    code, out, _ = _run(capsys, ["detect", path, "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["command"] == "detect"
    assert d["group"]["schoenflies"] == "Td"
    labels = [c["label"] for c in d["group"]["classes"]]
    assert labels == ["E", "8C3", "3C2", "6S4", "6sigma_d"]
    assert sorted(sum(d["orbits"]["joint_orbits"], [])) == [0, 1, 2, 3]
    assert sorted(sum(d["orbits"]["bar_orbits"], [])) == list(range(6))


def test_check_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "c2.json", fig2_examples("C2"))
    code, out, _ = _run(capsys, ["check", good, "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["conditions"]["passed"] is True

    bad = _write(tmp_path, "c4.json", counterexample_2d("C4"))
    code, out, _ = _run(capsys, ["check", bad, "--json"])
    assert code == 1
    d = json.loads(out)
    assert d["conditions"]["passed"] is False
    failed = [c for c in d["conditions"]["checks"] if not c["passed"]]
    assert {c["equation_id"] for c in failed} == {"2D:E", "2D:Cn", "2D:C2"}


@pytest.mark.parametrize("n", [25, 30])
def test_check_wheel_with_many_spokes(tmp_path, capsys, n):
    # a hub, an n-gon rim and n spokes; the rotation order is read from
    # the joint permutation, with no cap on n
    rim = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)]
    bars = [(0, k) for k in range(1, n + 1)] + [(k, k % n + 1) for k in range(1, n + 1)]
    path = _write(tmp_path, "wheel.json", new_framework(2, [(0.0, 0.0)] + rim, bars))
    code, out, _ = _run(capsys, ["check", path, "--json"])
    assert code == 1
    d = json.loads(out)
    assert (d["group"]["schoenflies"], d["group"]["order"]) == (f"C{n}v", 2 * n)
    failed = {c["equation_id"] for c in d["conditions"]["checks"] if not c["passed"]}
    assert "2D:Cn" in failed


def test_check_sufficient_flag(tmp_path, capsys):
    good = _write(tmp_path, "c3.json", fig2_examples("C3"))
    code, out, _ = _run(capsys, ["check", good, "--sufficient", "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["sufficiency"]["passed"] is True
    assert d["sufficiency"]["epistemic"] == "theorem-backed"

    base = fig2_examples("C1")
    pared = new_framework(
        2, base.coordinates, base.ends.tolist()[:-1]
    )
    path = _write(tmp_path, "pared.json", pared)
    code, out, _ = _run(capsys, ["check", path, "--sufficient", "--json"])
    assert code == 1


def test_pebble_on_framework_and_bare_graph(tmp_path, capsys):
    path = _write(tmp_path, "c1.json", fig2_examples("C1"))
    code, out, _ = _run(capsys, ["pebble", path, "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["sparsity"]["verdict"] == "tight"
    assert d["sparsity"]["free_pebbles"] == 3

    k4 = tmp_path / "k4.json"
    k4.write_text(
        json.dumps(
            {
                "joints": 4,
                "bars": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
            }
        )
    )
    code, out, _ = _run(capsys, ["pebble", str(k4), "--json"])
    assert code == 1
    d = json.loads(out)
    assert d["sparsity"]["verdict"] == "dependent"
    assert d["sparsity"]["witness"]["bars"] == 6
    assert d["sparsity"]["witness"]["joints"] == 4

    alias = tmp_path / "alias.json"
    alias.write_text(
        json.dumps({"joint_count": 3, "bars": [[0, 1], [1, 2]]})
    )
    code, out, _ = _run(capsys, ["pebble", str(alias), "--json"])
    assert code == 1
    assert json.loads(out)["sparsity"]["verdict"] == "independent-but-underbraced"


def test_generate_writes_loadable_framework(tmp_path, capsys):
    out_path = tmp_path / "oct.json"
    code, out, _ = _run(
        capsys, ["generate", "platonic", "octahedron", "-o", str(out_path)]
    )
    assert code == 0
    f = from_json(out_path.read_text())
    assert (f.joint_count, f.bar_count) == (6, 12)
    # with -o a short summary goes to stdout instead of the framework
    assert "6 joints" in out and "12 bars" in out
    assert "scalar count   : 0" in out


def test_generate_pipes_framework_json(tmp_path, capsys):
    code, out, _ = _run(capsys, ["generate", "double_banana"])
    assert code == 0
    f = from_json(out)
    assert (f.joint_count, f.bar_count) == (8, 18)


@pytest.mark.parametrize(
    "argv,joints",
    [
        (["generate", "platonic", "tetrahedron"], 4),
        (["generate", "fig2_examples", "C2v"], 8),
        (["generate", "counterexample_2d", "C6"], 12),
        (["generate", "double_banana"], 8),
    ],
)
def test_generate_simple_recipes(argv, joints, capsys):
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert from_json(out).joint_count == joints


def test_generate_construction_recipes(tmp_path, capsys):
    tet = _write(tmp_path, "tet.json", platonic("tetrahedron"))
    oct_ = _write(tmp_path, "oct.json", platonic("octahedron"))

    code, out, _ = _run(
        capsys,
        ["generate", "cap_face", "-i", tet, "--face", "0,1,2", "--height", "0.9"],
    )
    assert code == 0 and from_json(out).joint_count == 5

    code, out, _ = _run(
        capsys, ["generate", "cap_all_faces_symmetric", "-i", oct_]
    )
    assert code == 0 and from_json(out).joint_count == 14

    code, out, _ = _run(
        capsys,
        ["generate", "twisted_cap_all_faces", "-i", oct_, "--twist-deg", "25"],
    )
    assert code == 0 and from_json(out).joint_count == 30

    code, out, _ = _run(
        capsys,
        ["generate", "hat_stack", "-i", tet, "--face", "0,1,2", "--k", "2"],
    )
    assert code == 0 and from_json(out).joint_count == 6


def test_generate_error_paths(tmp_path, capsys):
    oct_ = _write(tmp_path, "oct.json", platonic("octahedron"))
    code, _, err = _run(
        capsys,
        ["generate", "twisted_cap_all_faces", "-i", oct_, "--twist-deg", "0"],
    )
    assert code == 3
    assert "twist" in err.lower()

    code, _, err = _run(
        capsys,
        ["generate", "twisted_cap_all_faces", "-i", oct_, "--twist-deg", "inf"],
    )
    assert code == 3
    assert "twist angle inf is not finite" in err

    code, _, _ = _run(capsys, ["generate", "cap_face", "-i", oct_])
    assert code == 3

    code, _, _ = _run(capsys, ["generate", "platonic", "icosidodecahedron"])
    assert code == 3


def test_generate_flat_caps_exit_3(tmp_path, capsys):
    oct_ = _write(tmp_path, "oct.json", platonic("octahedron"))
    code, _, err = _run(
        capsys,
        ["generate", "cap_all_faces_symmetric", "-i", oct_, "--height", "0"],
    )
    assert code == 3
    assert "in the plane of face" in err


def test_generate_caps_a_face_of_a_huge_octahedron(tmp_path, capsys):
    # the squared diameter, 4e320, is past the largest float
    o = platonic("octahedron")
    big = new_framework(3, o.coordinates * 1e160, o.ends.tolist())
    path = _write(tmp_path, "big.json", big)
    code, out, _ = _run(
        capsys,
        ["generate", "cap_face", "-i", path, "--face", "0,2,4", "--height", "5e159"],
    )
    assert code == 0
    assert from_json(out).joint_count == 7


def test_generate_refuses_a_cap_height_past_float_range(tmp_path, capsys):
    o = platonic("octahedron")
    tiny = new_framework(3, o.coordinates * 1e-160, o.ends.tolist())
    path = _write(tmp_path, "tiny.json", tiny)
    for height, said in [
        ("1e150", "1e+150 is too large"),
        ("nan", "nan is not finite"),
        ("inf", "inf is not finite"),
        ("-inf", "-inf is not finite"),
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(
                capsys,
                ["generate", "cap_face", "-i", path, "--face", "0,2,4", f"--height={height}"],
            )
        assert (code, out) == (3, "")
        assert f"apex height {said}" in err


def test_dump_dot(tmp_path, capsys):
    path = _write(tmp_path, "c1.json", fig2_examples("C1"))
    dot = tmp_path / "c1.dot"
    code, _, _ = _run(capsys, ["analyze", path, "--dump-dot", str(dot)])
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph")
    assert "pos=" in text
    assert text.count(" -- ") == fig2_examples("C1").bar_count


def test_dump_dot_of_a_bare_graph(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"joints": 4, "bars": [[1, 0], [0, 2], [3, 0], [1, 2], [3, 1]]}))
    dot = tmp_path / "graph.dot"
    code, _, _ = _run(capsys, ["pebble", str(path), "--dump-dot", str(dot)])
    assert code == 0
    assert dot.read_text() == (
        "graph isoframe {\n  // 4 joints, 5 bars\n  0;\n  1;\n  2;\n  3;\n"
        "  0 -- 1;\n  0 -- 2;\n  0 -- 3;\n  1 -- 2;\n  1 -- 3;\n}\n"
    )


def test_seed_and_tolerances_recorded(tmp_path, capsys):
    path = _write(tmp_path, "tet.json", platonic("tetrahedron"))
    code, out, _ = _run(
        capsys,
        [
            "analyze", path, "--json",
            "--tol-rank", "1e-8",
            "--tol-geom", "1e-5",
        ],
    )
    assert code == 0
    d = json.loads(out)
    assert "seed" not in d
    assert d["tolerances"] == {"geometric_rel": 1e-5, "rank": 1e-8}
    assert d["kinematics"]["rank_tolerance"] == 1e-8


# each subcommand takes only the flags it reads; these it does not
_UNREAD_FLAGS = [
    ["detect", "{path}", "--tol-rank", "1e-8"],
    ["detect", "{path}", "--max-subgraph", "6"],
    ["check", "{path}", "--tol-rank", "1e-8"],
    ["pebble", "{path}", "--tol-rank", "1e-8"],
    ["pebble", "{path}", "--tol-geom", "1e-5"],
    ["pebble", "{path}", "--max-subgraph", "6"],
    ["generate", "platonic", "--name", "octahedron"],
    ["generate", "fig2_examples", "--group", "C2"],
    ["generate", "platonic", "octahedron", "--tol-geom", "1e-5"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{path}", "--seed", "42"],
        ["analyze"],
        ["check", "{path}", "--tol-geom", "abc"],
        [],
        ["analyze", "{path}", "--max-subgraph", "13"],
        ["analyze", "{path}", "--max-subgraph", "2"],
    ]
    + _UNREAD_FLAGS,
)
def test_usage_error_is_bad_input(tmp_path, capsys, argv):
    # exit 2 means outside the supported scope, so argparse's own 2
    # would misreport a mistyped command line
    path = _write(tmp_path, "tet.json", platonic("tetrahedron"))
    with pytest.raises(SystemExit) as exc:
        main([a.format(path=path) for a in argv])
    assert exc.value.code == 3
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, recorded",
    [
        (["analyze", "{path}"], {"geometric_rel": 1e-6, "rank": 1e-10}),
        (["check", "{path}", "--tol-geom", "1e-5"], {"geometric_rel": 1e-5}),
        (["detect", "{path}"], {"geometric_rel": 1e-6}),
        (["pebble", "{path}"], None),
        (["generate", "double_banana", "-o", "{path}.out"], None),
    ],
)
def test_report_records_the_tolerances_its_command_reads(
    tmp_path, capsys, argv, recorded
):
    path = _write(tmp_path, "tet.json", platonic("tetrahedron"))
    _, out, _ = _run(capsys, [a.format(path=path) for a in argv] + ["--json"])
    assert json.loads(out).get("tolerances") == recorded


@pytest.mark.parametrize(
    "fixture, argv",
    [
        ("banana", ["analyze", "{path}", "--tol-rank", "0"]),
        ("banana", ["analyze", "{path}", "--tol-rank", "-1"]),
        ("octahedron", ["analyze", "{path}", "--tol-rank", "nan"]),
        ("octahedron", ["analyze", "{path}", "--tol-rank", "inf"]),
        ("octahedron", ["analyze", "{path}", "--tol-rank", "2"]),
        ("octahedron", ["check", "{path}", "--json", "--tol-geom", "nan"]),
        ("octahedron", ["detect", "{path}", "--tol-geom", "-inf"]),
    ],
)
def test_out_of_range_tolerance_is_bad_input(tmp_path, capsys, fixture, argv):
    f = double_banana() if fixture == "banana" else platonic(fixture)
    path = _write(tmp_path, f"{fixture}.json", f)
    try:
        code = main([a.format(path=path) for a in argv])
    except SystemExit as exc:
        code = exc.code
    assert code == 3
    assert capsys.readouterr().out == ""


def test_shell_pipeline_generate_into_analyze(tmp_path):
    # the real stdin/stdout contract, end to end through a shell pipe
    proc = subprocess.run(
        f"{sys.executable} -m isoframe.cli generate platonic icosahedron | "
        f"{sys.executable} -m isoframe.cli analyze - --json",
        shell=True,
        env=_child_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    d = json.loads(proc.stdout)
    assert d["group"]["schoenflies"] == "Ih"
    assert d["input"] == "-"
    assert d["kinematics"]["isostatic"] is True


def test_closed_stdout_is_not_an_error(tmp_path):
    # the reader of stdout is gone before the report is written, as when
    # `| head` has read all it wants
    path = _write(tmp_path, "c1.json", fig2_examples("C1"))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "isoframe.cli", "pebble", path, "--json"],
            stdout=w,
            stderr=subprocess.PIPE,
            env=_child_env(),
            text=True,
        )
    finally:
        os.close(w)
    assert proc.returncode == 0  # the pebble verdict: tight
    assert proc.stderr == ""


def test_stdin_dash_reads_framework():
    proc = subprocess.run(
        [sys.executable, "-m", "isoframe.cli", "pebble", "-", "--json"],
        input=to_json(fig2_examples("C3v_in")),
        env=_child_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sparsity"]["verdict"] == "tight"


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    # main() parses with the one parser built at import, and a flag given
    # to one call does not carry over to the next
    def rebuilt():
        raise AssertionError("main() built a second parser")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    path = _write(tmp_path, "c3.json", fig2_examples("C3"))
    _, out, _ = _run(capsys, ["check", path, "--sufficient", "--json"])
    assert "sufficiency" in json.loads(out)
    _, out, _ = _run(capsys, ["check", path, "--json"])
    assert "sufficiency" not in json.loads(out)

    _, out, _ = _run(capsys, ["analyze", path, "--tol-rank", "1e-8", "--json"])
    assert json.loads(out)["tolerances"]["rank"] == 1e-8
    _, out, _ = _run(capsys, ["analyze", path, "--json"])
    d = json.loads(out)
    assert d["tolerances"]["rank"] == 1e-10
    assert d["kinematics"]["rank_tolerance"] == 1e-10


def _foreign_values(obj, where="report"):
    """Where obj holds a dict key that is no str, or a leaf that is no
    str, int, float, bool or None.  Types are compared exactly, so a
    numpy scalar counts as foreign even where it subclasses float."""
    if type(obj) is dict:
        for k, v in obj.items():
            if type(k) is not str:
                yield f"{where}: key {k!r}"
            yield from _foreign_values(v, f"{where}.{k}")
    elif type(obj) in (list, tuple):
        for i, v in enumerate(obj):
            yield from _foreign_values(v, f"{where}[{i}]")
    elif type(obj) not in (str, int, float, bool, type(None)):
        yield f"{where}: {type(obj).__name__}"


_K4_GRAPH = {"joints": 4, "bars": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}


@pytest.mark.parametrize(
    "fixture, argv, want_code",
    [
        ("C3", ["analyze"], 0),
        ("C3", ["check", "--sufficient"], 0),
        ("C3", ["detect"], 0),
        ("C6", ["analyze"], 1),
        ("C6", ["check", "--sufficient"], 1),
        ("banana", ["analyze"], 1),
        ("banana", ["check", "--sufficient"], 0),
        ("banana", ["detect"], 0),
        ("triangle3d", ["analyze"], 2),
        ("k4", ["pebble"], 1),
        (None, ["generate", "double_banana", "-o"], 0),
    ],
)
def test_every_report_is_json_native(tmp_path, fixture, argv, want_code):
    # the reports go to json.dumps as they are, so a numpy value that
    # slipped into a digest would fail or print differently
    frameworks = {
        "C3": lambda: fig2_examples("C3"),
        "C6": lambda: counterexample_2d("C6"),
        "banana": double_banana,
        "triangle3d": lambda: new_framework(
            3, [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.3, 0.9, 0.1)], [(0, 1), (0, 2), (1, 2)]
        ),
    }
    path = tmp_path / "input.json"
    if fixture == "k4":
        path.write_text(json.dumps(_K4_GRAPH))
    elif fixture is not None:
        path.write_text(to_json(frameworks[fixture]()))
    args = cli._PARSER.parse_args(argv + [str(path)])
    bundle, code = args.run(args)
    assert code == want_code
    assert list(_foreign_values(bundle)) == []


@pytest.mark.parametrize(
    "bars",
    [
        [[1, 1]],  # a self-loop
        [[0, 3]],  # an id past the last joint
        [[0, -1]],
        [[0, 1], [0, 1]],  # a repeated bar
        [[0, 1], [1, 0]],  # the same bar, reversed
        [[0, True]],
        [[0, 1.0]],
        [[0, 1, 2]],
        [[0]],
        {"0": [0, 1]},  # bars that are no list
        [[0, 1], 2],
    ],
)
def test_pebble_rejects_a_bad_bare_graph(tmp_path, capsys, bars):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"joints": 3, "bars": bars}))
    code, out, err = _run(capsys, ["pebble", str(path), "--json"])
    assert (code, out) == (3, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "bars,message",
    [
        ([[1, 1]], "bar 0 connects joint 1 to itself"),
        ([[0, 3]], "bar 0 references missing joint in (0, 3)"),
        ([[0, 1], [1, 0]], "bar 1 duplicates pair (0, 1)"),
        ([[0, True]], "bad bar row: [0, True]"),
        ([[0, 1, 2]], "bar 0 must have exactly two endpoints, got [0, 1, 2]"),
        ([[0, 1], 2], "bad bar row: 2"),
    ],
)
def test_pebble_bare_graph_errors_name_the_bar(tmp_path, capsys, bars, message):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"joints": 3, "bars": bars}))
    code, out, err = _run(capsys, ["pebble", str(path), "--json"])
    assert (code, out, err) == (3, "", f"error: {message}\n")


def _vertex_additions(dimension, joint_count, seed):
    """Framework JSON grown from a simplex: each new joint, at a random
    point, joins `dimension` earlier ones."""
    rng = random.Random(seed)
    d = dimension
    joints = [[rng.uniform(-1.0, 1.0) for _ in range(d)] for _ in range(joint_count)]
    bars = [[u, v] for v in range(d + 1) for u in range(v)]
    bars += [[u, w] for w in range(d + 1, joint_count) for u in rng.sample(range(w), d)]
    return {"dimension": d, "joints": joints, "bars": bars}


def test_json_commands_do_not_import_numpy_ma(tmp_path):
    # numpy.ma costs a fresh process tens of milliseconds to import, and a
    # bare np.unique in the input checks would import it; each input has
    # enough bars (69 or more) for bar_ends to check them as one array
    paths = []
    for dimension, joint_count in ((2, 40), (3, 25)):
        paths.append(tmp_path / f"framework{dimension}.json")
        paths[-1].write_text(json.dumps(_vertex_additions(dimension, joint_count, 7)))
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"joints": 40, "bars": _vertex_additions(2, 40, 7)["bars"]}))
    runs = [
        [command, str(path), *flags, "--json"]
        for path in paths
        for command, *flags in (["analyze"], ["check", "--sufficient"])
    ] + [["pebble", str(graph), "--json"]]
    code = (
        "import contextlib, io, sys\n"
        "from isoframe.cli import main\n"
        f"runs = {runs!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in runs]\n"
        "print(*codes, 'numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0"] * len(runs) + ["False"]


def test_3d_commands_on_icosahedral_inputs_do_not_import_numpy_random(tmp_path):
    # numpy.random costs a fresh process 10-18 ms to import; only a GF(p)
    # rank draws from it, and reversed vertex splits leave these inputs no
    # core to rank.  Each command runs in its own fresh process.
    ico = _write(tmp_path, "ico.json", platonic("icosahedron"))
    twisted = _write(tmp_path, "twisted.json", twisted_cap_all_faces(platonic("icosahedron")))
    for argv in (["analyze", ico, "--json"], ["check", twisted, "--sufficient"]):
        code = (
            "import contextlib, io, sys\n"
            "from isoframe.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, 'numpy.random' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["0", "False"], argv


def test_bare_graph_loader_checks_the_bars_once(tmp_path, capsys, monkeypatch):
    from isoframe import core, laman

    calls = []
    real = core.bar_ends

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (core, laman, cli):
        monkeypatch.setattr(module, "bar_ends", counted, raising=False)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"joints": 4, "bars": [[1, 0], [0, 2], [3, 0], [1, 2], [3, 1]]}))
    code, out, _ = _run(capsys, ["pebble", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["sparsity"]["verdict"] == "tight"
    assert len(calls) == 1


# Every option string and positional argument of each subcommand, as the
# parser holds them.  A new flag, or one a subcommand no longer reads,
# has to change this table.
_CLI_SURFACE = {
    "isoframe": ["--help", "-h", "command"],
    "analyze": [
        "--dump-dot", "--help", "--json", "--max-subgraph", "--tol-geom",
        "--tol-rank", "-h", "path",
    ],
    "detect": ["--dump-dot", "--help", "--json", "--tol-geom", "-h", "path"],
    "check": [
        "--dump-dot", "--help", "--json", "--max-subgraph", "--sufficient",
        "--tol-geom", "-h", "path",
    ],
    "pebble": ["--dump-dot", "--help", "--json", "-h", "path"],
    "generate": [
        "--dump-dot", "--face", "--first-height", "--height", "--help",
        "--input", "--json", "--k", "--output", "--step", "--twist-deg",
        "-h", "-i", "-o", "param", "recipe",
    ],
}


def test_cli_surface_is_pinned():
    def surface(parser):
        return sorted(s for a in parser._actions for s in a.option_strings or [a.dest])

    (sub,) = [a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    got = {"isoframe": surface(cli._PARSER)}
    got.update((name, surface(p)) for name, p in sub.choices.items())
    assert got == _CLI_SURFACE
