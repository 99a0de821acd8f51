"""Framework construction, validation, counting, and JSON round trips."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import isoframe as iso
from isoframe import core
from isoframe.errors import (
    DanglingEndpoint,
    DuplicateBar,
    DuplicateJoint,
    IsoframeError,
    NonFiniteEntry,
    ParseError,
    SelfLoop,
    ZeroLengthBar,
)
from oracles import bar_ends_per_row, check_json_rows_per_row, new_framework_per_joint


def triangle():
    return iso.new_framework(
        2, [(0.0, 0.0), (2.0, 0.0), (0.7, 1.5)], [(0, 1), (1, 2), (0, 2)]
    )


def test_basic_counts():
    f = triangle()
    assert f.dimension == 2
    assert f.joint_count == 3
    assert f.bar_count == 3
    assert iso.maxwell_count(f) == 0


def test_bar_ends_are_sorted_and_ids_sequential():
    f = iso.new_framework(
        2, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(2, 0), (1, 0), (2, 1)]
    )
    assert f.ends.tolist() == [[0, 2], [0, 1], [1, 2]]
    assert (f.joint_count, f.bar_count) == (3, 3)


def test_coordinates_are_read_only():
    f = triangle()
    with pytest.raises(ValueError):
        f.coordinates[0, 0] = 9.0


def test_duplicate_joint_rejected():
    # separation is measured in units of the diameter, here 1
    with pytest.raises(DuplicateJoint):
        iso.new_framework(2, [(0.0, 0.0), (1e-14, 0.0), (0.0, 1.0)], [(0, 1)])


def test_duplicate_joint_names_first_pair():
    # pairs (1, 3) and (2, 4) coincide; (2, 4) comes first along x, and
    # joint 3 sorts before joint 1, yet the message names (1, 3)
    pts = [(0.0, 0.0), (5.0 + 1e-12, 5.0), (1.0, 1.0), (5.0, 5.0), (1.0, 1.0)]
    with pytest.raises(DuplicateJoint, match="joints 1 and 3 coincide"):
        iso.new_framework(2, pts, [(0, 1)])


def test_far_apart_joints_do_not_overflow():
    # the squared coordinate difference overflows to inf, which is no
    # coincidence and no error
    f = iso.new_framework(2, [(1e200, 0.0), (-1e200, 0.0)], [(0, 1)])
    assert f.joint_count == 2
    assert f.diameter() == 2e200


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        iso.new_framework(2, [(0.0, 0.0), (1.0, 0.0)], [(1, 1)])


def test_duplicate_bar_rejected_both_orientations():
    with pytest.raises(DuplicateBar):
        iso.new_framework(
            2, [(0.0, 0.0), (1.0, 0.0)], [(0, 1), (1, 0)]
        )


def test_dangling_endpoint_rejected():
    with pytest.raises(DanglingEndpoint):
        iso.new_framework(2, [(0.0, 0.0), (1.0, 0.0)], [(0, 2)])


def test_non_finite_rejected():
    with pytest.raises(NonFiniteEntry):
        iso.new_framework(2, [(0.0, 0.0), (math.nan, 1.0)], [(0, 1)])


def test_zero_length_guard_is_separation_based():
    # two joints closer than the separation tolerance collide, whether
    # construction catches them or the rank step meets the bar between them
    pts = [(0.0, 0.0, 0.0), (0.0, 0.0, 1e-14), (1.0, 0.0, 0.0)]
    with pytest.raises(DuplicateJoint):
        iso.new_framework(3, pts, [(0, 1)])
    raw = iso.Framework(3, np.array(pts), np.array([[0, 1]]))
    with pytest.raises(ZeroLengthBar):
        iso.build_system(raw)


@pytest.mark.parametrize("scale", [1e-13, 1e-15, 1e160, 1e300, 1e308])
def test_uniform_shrink_keeps_verdict(octahedron, scale):
    # group, order, m and s at unit scale; both pass the necessary counts.
    # At the largest scales the diameters (2e308, 1.8e308) exceed the
    # largest float; the banana's coordinates reach 1.8, so it stops at 5e307
    cases = [
        (octahedron, scale, ("Oh", 48, 0, 0)),
        (iso.double_banana(), min(scale, 5e307), ("C1", 1, 1, 1)),
    ]
    for f, factor, verdict in cases:
        small = iso.new_framework(
            f.dimension, f.coordinates * factor, f.ends.tolist()
        )
        group = iso.detect_point_group(small)
        ks = iso.mobility(small)
        assert (group.schoenflies, group.order, ks.m, ks.s) == verdict
        assert iso.isostatic_necessary(small, group).passed


def test_maxwell_count_3d(octahedron):
    assert iso.maxwell_count(octahedron) == 3 * 6 - 12 - 6 == 0


def test_in_scope_boundaries():
    tri3 = iso.new_framework(
        3,
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
        [(0, 1), (1, 2), (0, 2)],
    )
    assert not iso.in_scope(tri3)
    assert iso.in_scope(iso.platonic("tetrahedron"))
    two = iso.new_framework(2, [(0.0, 0.0), (1.0, 0.0)], [(0, 1)])
    assert not iso.in_scope(two)
    assert iso.in_scope(triangle())


def test_json_round_trip(octahedron):
    text = iso.to_json(octahedron)
    back = iso.from_json(text)
    assert back.dimension == octahedron.dimension
    assert back.ends.tolist() == octahedron.ends.tolist()
    assert np.array_equal(back.coordinates, octahedron.coordinates)


def test_json_dict_shape(banana):
    data = iso.to_json_dict(banana)
    assert set(data) == {"dimension", "joints", "bars"}
    assert data["dimension"] == 3
    assert len(data["joints"]) == 8
    assert all(len(p) == 3 for p in data["joints"])
    assert sorted(map(tuple, data["bars"])) == sorted(map(tuple, banana.ends.tolist()))


@pytest.mark.parametrize(
    "payload",
    [
        "[]",
        '{"dimension": 4, "joints": [], "bars": []}',
        '{"dimension": 2, "joints": [[0, 0], [1]], "bars": []}',
        '{"dimension": 2, "joints": [[0, 0], [1, 0]], "bars": [[0]]}',
        '{"dimension": 2, "joints": [[0, 0], [1, 0]], "bars": [[0, "x"]]}',
        '{"joints": [[0, 0], [1, 0]], "bars": [[0, 1]]}',
    ],
)
def test_from_json_rejects_malformed(payload):
    with pytest.raises(ParseError):
        iso.from_json(payload)


class Row(list):
    pass


# Bar lists on J joints, each built afresh for every call: the bad lists
# the CLI's pebble tests name (the first eleven), then further faults,
# and valid lists in other forms than JSON gives.  A list or tuple gets
# PAD appended, enough bars for bar_ends to check it as an array first.
J = 70
PAD = [[k, k + 1] for k in range(3, J - 1)]
BAR_LISTS = {
    "self-loop": lambda: [[1, 1]],
    "past the last joint": lambda: [[0, J]],
    "negative": lambda: [[0, -1]],
    "repeated": lambda: [[0, 1], [0, 1]],
    "reversed repeat": lambda: [[0, 1], [1, 0]],
    "bool": lambda: [[0, True]],
    "float": lambda: [[0, 1.0]],
    "three ids": lambda: [[0, 1, 2]],
    "one id": lambda: [[0]],
    "not a list": lambda: {"0": [0, 1]},
    "bare int row": lambda: [[0, 1], 2],
    "negative pair": lambda: [[0, 1], [-2, -1]],
    "above int64": lambda: [[0, 2**63]],
    "above uint64": lambda: [[2**70, 0]],
    "below int64": lambda: [[0, -(2**63) - 1]],
    "bools only": lambda: [[True, False]],
    "bool self-loop": lambda: [[0, 1], [1, True]],
    "fractional float": lambda: [[0, 1.5]],
    "nan": lambda: [[0, math.nan]],
    "string id": lambda: [[0, "1"]],
    "None id": lambda: [[0, None]],
    "ragged": lambda: [[0, 1], [0]],
    "list subclass loop": lambda: [Row([0, 1]), Row([2, 2])],
    "later reversed repeat": lambda: [[0, 1], [1, 2], [2, 1]],
    "loop before dangling before repeat": lambda: [[0, 0], [0, J], [0, 1], [1, 0]],
    "dangling before repeat": lambda: [[0, 1], [0, J], [1, 0]],
    "repeat before loop": lambda: [[0, 1], [1, 0], [2, 2]],
    "repeat of a padding bar": lambda: [[J - 1, J - 2]],
    # ids of 2**32 or more can give two pairs one array code
    "one code, two pairs": lambda: [[1, 2], [0, 2**32 + 2]],
    "large repeat": lambda: [[2**40, 2**40 + 1], [0, 2], [2**40 + 1, 2**40]],
    "valid": lambda: [[0, 1], [2, 1], [0, 2]],
    "valid tuples": lambda: ((0, 1), (2, 1), (0, 2)),
    "valid numpy rows": lambda: [np.array([1, 0]), np.array([2, 1])],
    "valid int32 rows": lambda: [np.array([1, 0], np.int32), np.array([2, 1], np.int32)],
    "valid numpy ints": lambda: [[np.int64(2), np.int64(0)], [np.int64(1), np.int64(2)]],
    "valid generator": lambda: ((k, (k + 1) % 3) for k in range(3)),
    "valid list subclass": lambda: [Row([0, 1]), Row([2, 1])],
    "valid array": lambda: np.array([[0, 1], [1, 2]]),
    # 70 rows: an array is checked as one array too
    "valid long array": lambda: np.array([[0, 1], [2, 1], [0, 2], [3, 0]] + PAD),
    "long array with a reversed repeat": lambda: np.array([[0, 1], [1, 2], [2, 0], [1, 0]] + PAD),
    "empty": lambda: [],
}
CIRCLE = [[math.cos(k), math.sin(k)] for k in range(J)]
ENTRIES = {
    "new_framework": lambda bars: iso.new_framework(2, CIRCLE, bars),
    "from_json_dict": lambda bars: iso.from_json_dict(
        {"dimension": 2, "joints": CIRCLE, "bars": bars}
    ),
    # these two ids name the bare graph built from id pairs, on J joints
    # and on so many that ids of 2**32 and more reach the aliasing path
    "Graph.from_pairs": lambda bars: iso.Graph(J, bars),
    "huge Graph.from_pairs": lambda bars: iso.Graph(2**63 - 1, bars),
}


def _outcome(entry, name):
    bars = BAR_LISTS[name]()
    if isinstance(bars, (list, tuple)):
        bars = bars + type(bars)(PAD)
    try:
        return "built", ENTRIES[entry](bars)
    except Exception as e:  # the class and message are what is compared
        return type(e), str(e)


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("name", BAR_LISTS)
def test_bar_checks_match_the_per_row_loop(monkeypatch, entry, name):
    got = _outcome(entry, name)
    monkeypatch.setattr(core, "bar_ends", bar_ends_per_row)
    monkeypatch.setattr(core, "check_json_rows", check_json_rows_per_row)
    assert got == _outcome(entry, name)


class NoRows(np.ndarray):
    """An array that refuses to be walked row by row."""

    def __iter__(self):
        raise AssertionError("the bars went to the per-row loop")


@pytest.mark.parametrize(
    "pairs",
    [
        [(1, 0), (2, 1)],  # the loop
        [[k + 1, k] for k in range(69)],  # a list checked as one array
        np.array([[k + 1, k] for k in range(69)]).view(NoRows),  # an array, not walked
    ],
    ids=["loop", "list", "array"],
)
def test_bar_ends_returns_a_new_int64_array(pairs):
    before = np.array(pairs)
    ends = core.bar_ends(70, pairs)
    assert type(ends) is np.ndarray and ends.dtype == np.int64
    assert ends.shape == (len(pairs), 2)
    assert ends.tolist() == np.sort(before, axis=1).tolist()
    assert np.array_equal(np.array(pairs), before)  # the input is left as it was
    assert ends.flags.writeable and not np.shares_memory(ends, np.asarray(pairs))
    assert not iso.Graph(70, pairs).ends.flags.writeable
    assert core.bar_ends(3, []).shape == (0, 2)


INT_ARRAYS = {
    "valid": [],
    "self-loop": [[5, 5]],
    "reversed repeat": [[1, 0]],
    "past the last joint": [[0, J]],
    "above int64": [[0, 2**63]],
}


@pytest.mark.parametrize(
    "dtype, name",
    [
        (dtype, name)
        for dtype in ("int8", "int16", "int32", "uint16", "uint32", "uint64")
        for name, extra in INT_ARRAYS.items()
        if np.can_cast(np.min_scalar_type(max(map(max, PAD + extra))), dtype)
    ],
)
def test_bar_arrays_of_any_integer_dtype_match_the_per_row_loop(dtype, name):
    pairs = np.array([[0, 1], [0, 2]] + PAD + INT_ARRAYS[name], dtype=dtype)
    assert len(pairs) >= 64
    outcomes = []
    for check in (core.bar_ends, bar_ends_per_row):
        try:
            outcomes.append(check(J, pairs).tolist())
        except IsoframeError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    if name == "valid":  # checked as one array, never walked row by row
        assert core.bar_ends(J, pairs.view(NoRows)).tolist() == outcomes[0]


@pytest.mark.parametrize(
    "joints",
    [
        [[0.0, 0.0], [1.0, True], [0.0, 1.0]],
        [[0.0, 0.0], [1.0, "0"], [0.0, 1.0]],
        [[0.0, 0.0], (1.0, 0.0), [0.0, 1.0]],
        [[0.0, 0.0], Row([1.0, 0.0]), [0.0, 1.0]],
        [[0, 0], [1, 0], [0, 1.5]],
        [[0.0, 0.0], [1.0, None], 7],
        [[0.0, 0.0], [1.0, [0.0]], [0.0, 1.0]],
    ],
)
def test_joint_row_checks_match_the_per_row_loop(monkeypatch, joints):
    data = {"dimension": 2, "joints": joints, "bars": [[0, 1]]}

    def outcome():
        try:
            return iso.from_json_dict(data)
        except Exception as e:
            return type(e), str(e)

    got = outcome()
    monkeypatch.setattr(core, "check_json_rows", check_json_rows_per_row)
    assert got == outcome()


# Joint lists, as (dimension, positions), each built afresh for every
# call: valid ones in the forms callers pass, then faults the per-joint
# loop names.
SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
JOINT_LISTS = {
    "float array": lambda: (2, np.array(SQUARE)),
    "int array": lambda: (2, np.array([[0, 0], [1, 0], [1, 1], [0, 1]])),
    "float32 array": lambda: (2, np.array(SQUARE, np.float32) / 3),
    "3d list": lambda: (3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    "tuple rows": lambda: (2, [tuple(p) for p in SQUARE]),
    "tuple of tuples": lambda: (2, tuple(tuple(p) for p in SQUARE)),
    "generator of rows": lambda: (2, (p for p in SQUARE)),
    "numpy rows": lambda: (2, [np.array(p) for p in SQUARE]),
    "numeric string": lambda: (2, [[0.0, 0.0], ["1.5", "0"], [1.0, 1.0]]),
    "Fraction": lambda: (2, [[0.0, 0.0], [Fraction(1, 3), 0.0], [1.0, 1.0]]),
    "bool": lambda: (2, [[0.0, 0.0], [True, False], [1.0, 1.0]]),
    "negative zero": lambda: (2, [[-0.0, 0.0], [1.0, -0.0], [1.0, 1.0]]),
    "empty": lambda: (2, []),
    "nan at joint 2": lambda: (2, [[0.0, 0.0], [1.0, 0.0], [1.0, math.nan]]),
    "inf at joint 1": lambda: (2, np.array([[0.0, 0.0], [math.inf, 0.0], [1.0, 1.0]])),
    "None": lambda: (2, [[0.0, 0.0], [1.0, None], [1.0, 1.0]]),
    "abc": lambda: (2, [[0.0, 0.0], [1.0, "abc"], [1.0, 1.0]]),
    "complex": lambda: (2, [[0.0, 0.0], [1j, 0.0], [1.0, 1.0]]),
    "above float": lambda: (2, [[0.0, 0.0], [10**400, 0.0], [1.0, 1.0]]),
    "ragged": lambda: (2, [[0.0, 0.0], [1.0], [1.0, 1.0]]),
    "three coordinates in 2d": lambda: (2, [[0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0]]),
    "(j, 3) array in 2d": lambda: (2, np.zeros((3, 3))),
    "bare number row": lambda: (2, [[0.0, 0.0], 7, [1.0, 1.0]]),
    "nested entry": lambda: (2, [[0.0, 0.0], [1.0, [0.0]], [1.0, 1.0]]),
    "dimension 4": lambda: (4, SQUARE),
}


@pytest.mark.parametrize("name", JOINT_LISTS)
def test_joint_checks_match_the_per_joint_loop(name):
    def outcome(build):
        dimension, positions = JOINT_LISTS[name]()
        bars = [[0, 1]] if name != "empty" else []
        try:
            return "built", build(dimension, positions, bars)
        except Exception as e:  # the class and message are what is compared
            return type(e), str(e)

    got = outcome(iso.new_framework)
    assert got == outcome(new_framework_per_joint)
    if got[0] == "built":
        f = got[1]
        assert f.coordinates.dtype == np.float64
        assert f.coordinates.shape == (f.joint_count, f.dimension)


def test_equal_frameworks_hash_alike():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    f = iso.new_framework(2, pts, [(0, 1), (1, 2)])
    signed = iso.new_framework(2, [[-0.0, 0.0], [1.0, -0.0], [0.0, 1.0]], [(0, 1), (1, 2)])
    from_arrays = iso.new_framework(2, np.array(pts), np.array([[1, 0], [2, 1]]))
    for g in (signed, from_arrays):
        assert g == f and hash(g) == hash(f)
    assert {f: "found"}[signed] == "found"
    other = iso.new_framework(2, pts, [(0, 1), (0, 2)])
    assert other != f
    assert iso.new_framework(3, [p + [0.0] for p in pts], [(0, 1), (1, 2)]) != f


def test_framework_keeps_no_reference_to_its_inputs():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pairs = np.array([[1, 0], [1, 2]], dtype=np.int64)
    f = iso.new_framework(2, coords, pairs)
    assert coords.flags.writeable and pairs.flags.writeable
    coords[0, 0], pairs[0, 0] = 5.0, 2
    assert f.coordinates.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    assert f.ends.tolist() == [[0, 1], [1, 2]]
    assert f.ends.dtype == np.int64
    with pytest.raises(ValueError):
        f.coordinates[0, 0] = 9.0
    with pytest.raises(ValueError):
        f.ends[0, 0] = 2
    # what bench/test_bench.py reads of each framework
    assert [b.ends for b in f.bars] == [tuple(e) for e in f.ends.tolist()]


def test_centroid_and_diameter():
    f = triangle()
    assert np.allclose(f.centroid(), np.mean(f.coordinates, axis=0))
    d = max(
        np.linalg.norm(f.coordinates[a] - f.coordinates[b])
        for a in range(3)
        for b in range(3)
    )
    assert math.isclose(f.diameter(), d)


def test_has_bar_and_pair_lookup():
    f = iso.new_framework(2, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1), (2, 1)])
    assert f.has_bar(0, 1) and f.has_bar(1, 0)
    assert f.has_bar(1, 2) and f.has_bar(2, 1)
    assert not f.has_bar(0, 2) and not f.has_bar(2, 0) and not f.has_bar(0, 0)
