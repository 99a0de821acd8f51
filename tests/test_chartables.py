"""Real character tables: orthogonality, known values, decomposition."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from isoframe import chartables
from isoframe.chartables import (
    CATALOG_2D,
    CATALOG_3D,
    canonical_label,
    character_table,
    table_for_group,
)
from isoframe.constructgen import fig2_examples, platonic
from isoframe.errors import (
    InternalInconsistency,
    NonIntegralMultiplicity,
    ToleranceAmbiguity,
    UnrecognizedGroup,
)
from isoframe.symdetect import detect_point_group

ALL_TABLES = [(lbl, 3) for lbl in CATALOG_3D] + [(lbl, 2) for lbl in CATALOG_2D]

# every table as built, keyed "label/dimension"; rows are [name, dim, paired, values]
SNAPSHOT = json.loads(
    (Path(__file__).parent / "data" / "character_tables.json").read_text()
)


@pytest.mark.parametrize("label,dim", ALL_TABLES)
def test_table_matches_snapshot(label, dim):
    t = character_table(label, dim)
    want = SNAPSHOT[f"{label}/{dim}"]
    assert [list(k) for k in t.class_keys] == want["class_keys"]
    assert list(t.class_sizes) == want["class_sizes"]
    assert list(t.class_labels) == want["class_labels"]
    assert [[r.name, r.dim, r.paired] for r in t.rows] == [w[:3] for w in want["rows"]]
    for r, w in zip(t.rows, want["rows"]):
        assert r.values == pytest.approx(tuple(w[3]), abs=1e-12), r.name


@pytest.mark.parametrize("label,dim", ALL_TABLES)
def test_row_orthogonality(label, dim):
    # recomputed here, independently of the construction-time check
    t = character_table(label, dim)
    g = t.order
    assert len(t.rows) == len(t.class_keys)
    assert sum(t.class_sizes) == g
    for a, ra in enumerate(t.rows):
        for b, rb in enumerate(t.rows):
            acc = sum(
                s * x * y for s, x, y in zip(t.class_sizes, ra.values, rb.values)
            )
            want = (2 * g if ra.paired else g) if a == b else 0
            assert abs(acc - want) < 1e-9 * max(1, g), (ra.name, rb.name)


@pytest.mark.parametrize("label,dim", ALL_TABLES)
def test_squared_dimensions_sum_to_order(label, dim):
    t = character_table(label, dim)
    # a paired row covers two complex-conjugate 1D constituents
    assert sum(2 if r.paired else r.dim * r.dim for r in t.rows) == t.order
    for r in t.rows:
        assert r.values[0] == pytest.approx(float(r.dim))
        if r.paired:
            assert r.dim == 2


@pytest.mark.parametrize("label,dim", ALL_TABLES)
def test_regular_representation_decomposition(label, dim):
    t = character_table(label, dim)
    mult = t.decompose(t.regular_values())
    assert mult == {r.name: (2 if r.paired else r.dim) for r in t.rows}


def test_known_values_c2v():
    t = character_table("C2v")
    assert t.class_labels == ("E", "C2", "sigma_v", "sigma_v'")
    rows = {r.name: r.values for r in t.rows}
    assert rows["A1"] == (1.0, 1.0, 1.0, 1.0)
    assert rows["A2"] == (1.0, 1.0, -1.0, -1.0)
    assert rows["B1"] == (1.0, -1.0, 1.0, -1.0)
    assert rows["B2"] == (1.0, -1.0, -1.0, 1.0)


def test_known_values_td():
    t = character_table("Td")
    assert t.class_labels == ("E", "8C3", "3C2", "6S4", "6sigma_d")
    assert t.class_sizes == (1, 8, 3, 6, 6)
    rows = {r.name: r.values for r in t.rows}
    assert rows["A2"] == (1.0, 1.0, 1.0, -1.0, -1.0)
    assert rows["E"] == (2.0, -1.0, 2.0, 0.0, 0.0)
    assert rows["T1"] == (3.0, 0.0, -1.0, 1.0, -1.0)
    assert rows["T2"] == (3.0, 0.0, -1.0, -1.0, 1.0)


def test_known_values_oh_parity_pairing():
    t = character_table("Oh")
    rows = {r.name: r.values for r in t.rows}
    assert set(rows) == {
        "A1g", "A2g", "Eg", "T1g", "T2g",
        "A1u", "A2u", "Eu", "T1u", "T2u",
    }
    i_col = t.class_labels.index("i")
    for base in ("A1", "A2", "E", "T1", "T2"):
        even, odd = rows[base + "g"], rows[base + "u"]
        d = even[0]
        assert even[i_col] == pytest.approx(d)
        assert odd[i_col] == pytest.approx(-d)
        # g and u agree on every proper rotation column
        for c, key in enumerate(t.class_keys):
            if key.kind in ("E", "C"):
                assert even[c] == pytest.approx(odd[c])


def test_known_values_d4d_irrational_entries():
    t = character_table("D4d")
    rows = {r.name: r.values for r in t.rows}
    s8 = t.class_labels.index("2S8")
    assert rows["E1"][s8] == pytest.approx(math.sqrt(2.0))
    assert rows["E3"][s8] == pytest.approx(-math.sqrt(2.0))
    assert rows["E2"][s8] == pytest.approx(0.0)


def test_paired_rows_in_cyclic_groups():
    t3 = character_table("C3")
    names = {r.name: r for r in t3.rows}
    assert names["A"].paired is False
    assert names["E"].paired is True
    assert names["E"].values == pytest.approx((2.0, -1.0))

    t6 = character_table("C6", 2)
    rows = {r.name: r for r in t6.rows}
    assert rows["E1"].paired and rows["E2"].paired
    assert rows["E1"].values == pytest.approx((2.0, 1.0, -1.0, -2.0))
    assert rows["E2"].values == pytest.approx((2.0, -1.0, -1.0, 2.0))


def test_aliases_resolve():
    assert canonical_label("S2") == "Ci"
    assert canonical_label("C1v") == "Cs"
    assert canonical_label("D1h") == "C2v"
    assert canonical_label("D1d") == "C2h"
    assert canonical_label("D1") == "C2"
    assert character_table("S2").schoenflies == "Ci"


def test_unrecognized_label_raises():
    with pytest.raises(UnrecognizedGroup):
        character_table("Q7")


@pytest.mark.parametrize(
    "orbit,turn,error,match",
    [
        # the quarter turn sends the free point off its two-point orbit
        ([(0.31, 0.47), (-0.31, -0.47)], 0.5, InternalInconsistency, "does not permute"),
        # the orbit's points lie within the closure's 1e-6 of each other
        ([(0.31, 0.47), (0.31 + 5e-7, 0.47)], 1.0, ToleranceAmbiguity, "matches 2 joints"),
    ],
)
def test_reference_elements_must_permute_the_orbit(orbit, turn, error, match, monkeypatch):
    c, s = math.cos(math.pi * turn), math.sin(math.pi * turn)
    mats = [np.eye(2), np.array([[c, -s], [s, c]])]
    monkeypatch.setattr(chartables, "_close_under_multiplication", lambda *a: (mats, np.array(orbit)))
    with pytest.raises(error, match=match):
        chartables.reference_group.__wrapped__("C2", 2)


def test_project_and_decompose_roundtrip():
    t = character_table("Td")
    rows = {r.name: r.values for r in t.rows}
    combo = [
        1 * a1 + 2 * e + 1 * t2
        for a1, e, t2 in zip(rows["A1"], rows["E"], rows["T2"])
    ]
    assert t.decompose(combo) == {"A1": 1, "A2": 0, "E": 2, "T1": 0, "T2": 1}
    raw = t.project(combo)
    assert raw["E"] == pytest.approx(2.0)

    # negative multiplicities are legitimate for difference characters
    diff = [t2 - a1 for a1, t2 in zip(rows["A1"], rows["T2"])]
    assert t.decompose(diff) == {"A1": -1, "A2": 0, "E": 0, "T1": 0, "T2": 1}


def test_decompose_rejects_non_characters():
    t = character_table("C2v")
    with pytest.raises(NonIntegralMultiplicity):
        t.decompose((1.5, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        t.project((1.0, 1.0))  # wrong column count


def test_table_for_detected_groups_aligns():
    for f in (platonic("octahedron"), platonic("icosahedron")):
        info = detect_point_group(f)
        t = table_for_group(info)
        assert t.schoenflies == info.schoenflies
        assert t.class_keys == tuple(c.key for c in info.classes)
        assert t.class_sizes == tuple(c.size for c in info.classes)

    for key in ("C2", "C3", "Cs_in", "C2v", "C3v_in"):
        info = detect_point_group(fig2_examples(key))
        t = table_for_group(info)
        assert t.dimension == 2
        assert t.class_keys == tuple(c.key for c in info.classes)


# axial groups past the catalog, which stops at n = 6; the value is the
# group's cyclic axis half when it is of dihedral type, else None
AXIAL_BEYOND_CATALOG = [
    case
    for n in range(7, 13)
    for case in (
        (f"C{n}v", 2, f"C{n}"),
        (f"C{n}v", 3, f"C{n}"),
        (f"D{n}", 3, f"C{n}"),
        (f"D{n}d", 3, f"S{2 * n}" if n % 2 == 0 else None),
        (f"D{n}h", 3, None),
        (f"C{n}h", 3, None),
        (f"S{2 * n}", 3, None),
    )
]


@pytest.mark.parametrize("label,dim,axis_half", AXIAL_BEYOND_CATALOG)
def test_axial_tables_beyond_catalog(label, dim, axis_half):
    t = character_table(label, dim)
    g = t.order
    assert t.schoenflies == label
    for a, ra in enumerate(t.rows):
        for b, rb in enumerate(t.rows):
            acc = sum(
                s * x * y for s, x, y in zip(t.class_sizes, ra.values, rb.values)
            )
            want = (2 * g if ra.paired else g) if a == b else 0
            assert abs(acc - want) < 1e-9 * g, (ra.name, rb.name)
    assert sum(2 if r.paired else r.dim * r.dim for r in t.rows) == g
    if axis_half is None:
        return
    half = character_table(axis_half, dim)
    assert 2 * half.order == g
    columns = [t.class_keys.index(key) for key in half.class_keys]
    assert sorted(columns) == [
        c for c, key in enumerate(t.class_keys) if key.role == ""
    ]
    half_rows = {r.name: r.values for r in half.rows}
    bases = set()
    for row in t.rows:
        # A1, A2 -> A; B1, B2 -> B; E_l -> E_l
        base = row.name[0] if row.name[0] in "AB" else row.name
        restricted = tuple(row.values[c] for c in columns)
        assert restricted == pytest.approx(half_rows[base], abs=1e-12), row.name
        assert not row.paired
        bases.add(base)
    assert bases == set(half_rows)
