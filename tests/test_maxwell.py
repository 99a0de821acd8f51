"""Counting rules: rigid-body traces, per-class conditions, screens."""

from __future__ import annotations

import importlib.util
import json
import math
import pathlib
import sys
from dataclasses import replace

import numpy as np
import pytest

from isoframe.chartables import CATALOG_2D, CATALOG_3D, reference_group
from isoframe.constructgen import (
    cap_all_faces_symmetric,
    counterexample_2d,
    double_banana,
    fig2_examples,
    platonic,
)
from isoframe.core import maxwell_count, new_framework
from isoframe.errors import InternalInconsistency
from isoframe.maxwell import (
    FREE_PLACEMENT_2D,
    FREE_PLACEMENT_3D,
    WHITELIST_2D,
    decompose_irreps,
    free_placement_screen,
    gamma_bar,
    gamma_joint,
    gamma_regular,
    gamma_rigid_body,
    isostatic_necessary,
    maxwell_trace,
    two_cos,
)
from isoframe.symdetect import classify_matrix, detect_point_group

from oracles import assembled_trace


def _rot3(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def test_two_cos_exact_and_irrational():
    assert two_cos(1) == 2 and isinstance(two_cos(1), int)
    assert two_cos(2) == -2
    assert two_cos(3) == -1
    assert two_cos(4) == 0
    assert two_cos(6) == 1
    five = two_cos(5)
    assert isinstance(five, float)
    assert five == pytest.approx(2 * math.cos(2 * math.pi / 5))
    assert two_cos(5, 2) == pytest.approx(2 * math.cos(4 * math.pi / 5))
    assert two_cos(8) == pytest.approx(math.sqrt(2.0))


def test_gamma_rigid_body_3d_frozen():
    cases = [
        (np.eye(3), 1, (3, 3)),
        (_rot3(math.pi), 2, (-1, -1)),
        (_rot3(2 * math.pi / 3), 3, (0, 0)),
        (_rot3(math.pi / 2), 4, (1, 1)),
        (np.diag([1.0, 1.0, -1.0]), 2, (1, -1)),
        (-np.eye(3), 2, (-3, 3)),
        (_rot3(math.pi / 2) @ np.diag([1.0, 1.0, -1.0]), 4, (-1, 1)),  # S4
    ]
    for M, order, want in cases:
        op = classify_matrix(M, 3, order)
        txyz, trot = gamma_rigid_body(op, 3)
        assert (txyz, trot) == want
        assert isinstance(txyz, int) and isinstance(trot, int)


def test_gamma_rigid_body_2d_frozen():
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    cases = [
        (np.eye(2), 1, (2, 1)),
        (-np.eye(2), 2, (-2, 1)),
        (np.array([[c, -s], [s, c]]), 3, (-1, 1)),
        (np.diag([1.0, -1.0]), 2, (0, -1)),
    ]
    for M, order, want in cases:
        op = classify_matrix(M, 2, order)
        assert gamma_rigid_body(op, 2) == want


def test_gamma_regular_and_action_traces(octahedron):
    g = detect_point_group(octahedron)
    reg = gamma_regular(g)
    assert reg.values[0] == g.order
    assert all(v == 0 for v in reg.values[1:])
    jt = gamma_joint(octahedron, g)
    bt = gamma_bar(octahedron, g)
    assert jt.values[0] == octahedron.joint_count
    assert bt.values[0] == octahedron.bar_count
    # permutation characters count fixed items, so they are never negative
    assert all(v >= 0 for v in jt.values)
    assert all(v >= 0 for v in bt.values)



def test_bar_trace_refuses_uneven_counts_within_a_class(octahedron):
    g = detect_point_group(octahedron)
    x = next(c for c in g.classes if c.label == "6C4").member_ids[0]
    assert (g.bar_perms[x] == np.arange(octahedron.bar_count)).sum() == 0
    bar_perms = g.bar_perms.copy()
    # one quarter turn now claims to fix all 12 bars, its class mates none
    bar_perms[x] = np.arange(octahedron.bar_count)
    with pytest.raises(InternalInconsistency, match="within class 6C4"):
        gamma_bar(octahedron, replace(g, bar_perms=bar_perms))


def test_counts_refuse_a_group_without_bar_permutations(octahedron):
    # a reference group permutes a free orbit and carries no bars
    with pytest.raises(ValueError, match="no bar permutations"):
        isostatic_necessary(octahedron, reference_group("Oh"))
    with pytest.raises(ValueError):
        gamma_bar(octahedron, reference_group("Oh"))

ALL_FIXTURE_BUILDERS = (
    [lambda n=n: platonic(n) for n in ("tetrahedron", "octahedron", "icosahedron")]
    + [lambda: cap_all_faces_symmetric(platonic("octahedron"))]
    + [
        lambda k=k: fig2_examples(k)
        for k in (
            "C1", "C2", "C3", "Cs_perp", "Cs_in", "C2v", "C3v_perp", "C3v_in",
        )
    ]
    + [lambda k=k: counterexample_2d(k) for k in ("C4", "C5", "C6", "C4v")]
    + [double_banana]
)


@pytest.mark.parametrize("build", ALL_FIXTURE_BUILDERS)
def test_trace_matches_independent_assembly(build):
    # oracle: recompute each class value from the raw matrix alone,
    # with fixed counts found by brute-force nearest-image matching
    f = build()
    g = detect_point_group(f)
    t = maxwell_trace(f, g)
    coords = f.coordinates
    edges = f.ends.tolist()
    for cls, val in zip(g.classes, t.values):
        M = g.elements[cls.rep_id].matrix
        ref = assembled_trace(coords, edges, M)
        assert float(val) == pytest.approx(ref, abs=1e-9), cls.label


@pytest.mark.parametrize("build", ALL_FIXTURE_BUILDERS)
def test_trace_identity_class_is_scalar_count(build):
    f = build()
    g = detect_point_group(f)
    t = maxwell_trace(f, g)
    assert t.values[0] == maxwell_count(f)
    assert t.exact[0] is True


@pytest.mark.parametrize(
    "name", ["tetrahedron", "octahedron", "icosahedron"]
)
def test_isostatic_solids_have_identically_zero_trace(name):
    # m = s = 0 forces both representations to vanish, class by class
    f = platonic(name)
    t = maxwell_trace(f, detect_point_group(f))
    assert all(float(v) == pytest.approx(0.0, abs=1e-12) for v in t.values)
    assert decompose_irreps(t) == []


def test_icosahedron_fivefold_entries_are_marked_inexact():
    f = platonic("icosahedron")
    g = detect_point_group(f)
    t = maxwell_trace(f, g)
    flags = dict(zip((c.label for c in g.classes), t.exact))
    assert flags["12C5"] is False and flags["12S10"] is False
    assert flags["E"] is True and flags["15C2"] is True


def test_necessary_conditions_pass_on_platonic_solids():
    for name in ("tetrahedron", "octahedron", "icosahedron"):
        rep = isostatic_necessary(platonic(name))
        assert rep.passed, [c for c in rep.checks if not c.passed]
        assert rep.admissible_2d is None


def test_tetrahedron_check_inputs_frozen():
    rep = isostatic_necessary(platonic("tetrahedron"))
    by_eq = {}
    for c in rep.checks:
        by_eq.setdefault(c.eq_id, []).append(c)
    assert by_eq["3D:E"][0].inputs == {"j": 4, "b": 6}
    (c2,) = [c for c in by_eq["3D:C2"]]
    assert c2.inputs == {"j_2": 0, "b_2": 2}
    (sig,) = by_eq["3D:sigma"]
    assert sig.inputs == {"j_sigma": 2, "b_sigma": 2}
    (s4,) = by_eq["3D:Sn"]
    assert s4.inputs["j_c"] == 0 and s4.inputs["b_nc"] == 0
    # threefold axes carry no joint-count equation
    assert "3D:Cn-axis" not in by_eq
    assert all(c.passed for cs in by_eq.values() for c in cs)


def test_fig2_fixtures_pass_with_frozen_subcounts():
    expected_inputs = {
        "C2": [("2D:C2", {"j_c": 0, "b_2": 1})],
        "Cs_perp": [("2D:sigma", {"j_sigma": 0, "b_sigma": 1})],
        "Cs_in": [("2D:sigma", {"j_sigma": 2, "b_sigma": 1})],
        "C3v_in": [("2D:sigma", {"j_sigma": 2, "b_sigma": 1})],
    }
    for key in ("C1", "C2", "C3", "Cs_perp", "Cs_in", "C2v", "C3v_perp", "C3v_in"):
        f = fig2_examples(key)
        rep = isostatic_necessary(f)
        assert rep.passed, (key, [c for c in rep.checks if not c.passed])
        assert rep.admissible_2d is True
        for eq_id, inputs in expected_inputs.get(key, []):
            match = [c for c in rep.checks if c.eq_id == eq_id]
            assert any(c.inputs == inputs for c in match), (key, eq_id, match)


def test_c2v_fixture_has_one_check_per_class():
    f = fig2_examples("C2v")
    rep = isostatic_necessary(f)
    assert [c.eq_id for c in rep.checks] == [
        "2D:E", "2D:C2", "2D:sigma", "2D:sigma",
    ]
    assert all(c.passed for c in rep.checks)


def test_cube_fails_the_right_equations():
    pts = [
        (x, y, z)
        for x in (-1.0, 1.0)
        for y in (-1.0, 1.0)
        for z in (-1.0, 1.0)
    ]
    edges = [
        (a, b)
        for a in range(8)
        for b in range(a + 1, 8)
        if sum(abs(pts[a][i] - pts[b][i]) for i in range(3)) == 2.0
    ]
    cube = new_framework(3, pts, edges)
    rep = isostatic_necessary(cube)
    assert rep.schoenflies == "Oh"
    assert not rep.passed
    verdicts = {}
    for c in rep.checks:
        verdicts.setdefault(c.eq_id, []).append(c.passed)
    assert verdicts["3D:E"] == [False]  # 3*8 - 12 = 12, not 6
    assert False in verdicts["3D:Cn-axis"]  # C4 axes meet no joints
    assert False in verdicts["3D:sigma"]  # 4 bars cross each coordinate plane
    assert verdicts["3D:i"] == [True]  # no bar is centred on the origin


def test_axial_bar_fails_the_c2_perpendicular_check(octahedron):
    # a bar joining two poles lies along the C2 = C4^2 axis it makes
    # principal, where no bar fixed by a half turn may lie
    edges = octahedron.ends.tolist() + [[4, 5]]
    rep = isostatic_necessary(new_framework(3, octahedron.coordinates, edges))
    assert rep.schoenflies == "D4h"
    (perp,) = [c for c in rep.checks if (c.class_label, c.eq_id) == ("C2", "3D:C2-perp")]
    assert perp.inputs == {"b_2": 1, "b_along_axis": 1}
    assert not perp.passed


_FROZEN_COUNTEREXAMPLES = {
    # per-class trace, irrep decomposition, eq verdicts per eq_id
    "C4": ((-1, -1, -1), [("A", -1)], {"2D:E": [False], "2D:Cn": [False], "2D:C2": [False]}),
    "C6": ((0, -2, 0, -2), [("A", -1), ("B", 1)], {"2D:E": [True], "2D:Cn": [False, True], "2D:C2": [False]}),
    "C4v": ((1, -1, -3, -1, -1), [("A1", -1), ("E", 1)], {"2D:E": [False], "2D:Cn": [False], "2D:C2": [False], "2D:sigma": [False, False]}),
}


@pytest.mark.parametrize("key", sorted(_FROZEN_COUNTEREXAMPLES))
def test_counterexample_traces_and_verdicts(key):
    trace_vals, decomp, verdicts = _FROZEN_COUNTEREXAMPLES[key]
    f = counterexample_2d(key)
    g = detect_point_group(f)
    t = maxwell_trace(f, g)
    assert t.values == trace_vals
    assert decompose_irreps(t) == decomp
    rep = isostatic_necessary(f, g)
    assert not rep.passed
    assert rep.admissible_2d is False
    got = {}
    for c in rep.checks:
        got.setdefault(c.eq_id, []).append(c.passed)
    assert got == verdicts
    assert any("not one of the six 2D groups" in n for n in rep.notes)


def test_c5_counterexample_irrational_condition():
    f = counterexample_2d("C5")
    g = detect_point_group(f)
    t = maxwell_trace(f, g)
    assert t.values[0] == 2  # two extra mechanisms at the scalar level
    assert t.values[1] == pytest.approx(-2 * math.cos(math.pi / 5))
    assert decompose_irreps(t) == [("E2", 2)]
    rep = isostatic_necessary(f, g)
    cn = [c for c in rep.checks if c.eq_id == "2D:Cn"]
    assert cn and all(not c.passed for c in cn)
    assert any("irrational" in c.note for c in cn)


def test_parity_notes_attached():
    rep = isostatic_necessary(fig2_examples("C2"))
    assert any("j is even and b is odd" in n for n in rep.notes)
    rep = isostatic_necessary(fig2_examples("C3"))
    assert any("multiples of 3" in n for n in rep.notes)


def test_whitelist_constant():
    assert WHITELIST_2D == frozenset({"C1", "C2", "C3", "Cs", "C2v", "C3v"})


def test_free_placement_screen_exact_sets():
    got_2d = {
        lbl for lbl in CATALOG_2D if free_placement_screen(lbl, 2).admissible
    }
    assert got_2d == set(FREE_PLACEMENT_2D) == {"C1", "C3"}
    got_3d = {
        lbl for lbl in CATALOG_3D if free_placement_screen(lbl, 3).admissible
    }
    assert got_3d == set(FREE_PLACEMENT_3D) == {
        "C1", "Cs", "Ci", "C3", "C3h", "C3v", "S6",
    }


def test_free_placement_order_gate():
    # order must divide 3 in the plane and 6 in space
    for lbl in CATALOG_2D:
        rep = free_placement_screen(lbl, 2)
        assert rep.order_allowed == (3 % rep.order == 0)
    for lbl in CATALOG_3D:
        rep = free_placement_screen(lbl, 3)
        assert rep.order_allowed == (6 % rep.order == 0)


def test_free_placement_c2_obstruction_decomposition():
    rep = free_placement_screen("C2", 3)
    assert rep.order_allowed and not rep.vanishes and not rep.admissible
    assert rep.discrepancy.values == (0, 2)
    assert rep.decomposition == (("A", 1), ("B", -1))
    assert "net mechanisms of symmetry A" in rep.note
    assert "net self-stresses of symmetry B" in rep.note


def test_free_placement_accepts_detected_group(octahedron):
    g = detect_point_group(octahedron)
    rep = free_placement_screen(g)
    assert rep.schoenflies == "Oh"
    assert not rep.admissible  # |Oh| = 48 does not divide 6
    with pytest.raises(ValueError):
        free_placement_screen(g, 2)


def test_survey_script_lists_the_free_placement_groups(capsys, monkeypatch):
    path = pathlib.Path(__file__).parents[1] / "scripts" / "survey_screen.py"
    spec = importlib.util.spec_from_file_location("survey_screen", path)
    survey = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    monkeypatch.setitem(sys.modules, "survey_screen", survey)
    spec.loader.exec_module(survey)
    assert survey.main(["--json", "--only-admissible"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {(r["group"], r["dimension"]) for r in rows} == {
        (g, 2) for g in FREE_PLACEMENT_2D
    } | {(g, 3) for g in FREE_PLACEMENT_3D}
