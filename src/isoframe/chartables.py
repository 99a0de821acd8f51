"""Real character tables for the finite point groups, built on demand.

Complex one-dimensional irreducible representations come in conjugate
pairs whose characters sum to a real function; the tables here merge
each such pair into a single row (flagged paired, dimension 2) so every
entry is real.  Columns are merged conjugacy classes keyed by ClassKey,
matching PointGroupInfo.classes exactly.

A table is built from the PointGroupInfo it describes, reading only its
classes, their ClassKey roles and its multiplication table.  Matrices
only generate the reference groups, whose elements are told apart by
their images of a point that no element fixes; no matrix is matched
against another.  By family: a cyclic group takes its rows from
discrete logarithms along a generator; T, Td, O and I are literals;
the others extend the table of an index-2 subgroup, classified as a
group of its own (_half).  A dihedral-type group extends its cyclic
axis half, the classes of role ""; a direct product H x {E, w}, w a
central improper element, extends H, the group of its own proper
elements.  Every table is self-checked against the row orthogonality
relations.  A merged pair row has self-norm 2 * |G| instead of |G|;
decompose() accounts for that by returning the pair multiplicity
doubled, which conveniently equals the stored row dimension on the
regular representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InternalInconsistency, NonIntegralMultiplicity, UnrecognizedGroup
from .symdetect import (
    ClassKey,
    PointGroupInfo,
    _matched_permutations,
    _parse_label,
    classify_group,
)

GROUP_ALIASES = {
    "C1v": "Cs",
    "C1h": "Cs",
    "S2": "Ci",
    "S3": "C3h",
    "D1": "C2",
    "D1h": "C2v",
    "D1d": "C2h",
}

CATALOG_2D = (
    "C1", "C2", "C3", "C4", "C5", "C6",
    "Cs", "C2v", "C3v", "C4v", "C5v", "C6v",
)

CATALOG_3D = (
    "C1", "C2", "C3", "C4", "C5", "C6",
    "Cs", "Ci", "S4", "S6",
    "C2v", "C3v", "C4v", "C5v", "C6v",
    "C2h", "C3h", "C4h", "C5h", "C6h",
    "D2", "D3", "D4", "D5", "D6",
    "D2d", "D3d", "D4d", "D5d", "D6d",
    "D2h", "D3h", "D4h", "D5h", "D6h",
    "T", "Td", "Th", "O", "Oh", "I", "Ih",
)

_GOLDEN = (1 + math.sqrt(5)) / 2


@dataclass(frozen=True)
class IrrepRow:
    """One row of a real character table.

    paired rows are merged conjugate pairs of complex 1D irreps; their
    dim is 2 and their self-norm is twice the group order.
    """

    name: str
    dim: int
    paired: bool
    values: tuple[float, ...]


@dataclass(frozen=True)
class CharacterTable:
    schoenflies: str
    dimension: int
    order: int
    class_keys: tuple[ClassKey, ...]
    class_sizes: tuple[int, ...]
    class_labels: tuple[str, ...]
    rows: tuple[IrrepRow, ...]

    def regular_values(self) -> tuple[float, ...]:
        """Per-class values of the regular representation."""
        return tuple(
            float(self.order) if key.kind == "E" else 0.0 for key in self.class_keys
        )

    def project(self, values) -> dict[str, float]:
        """Raw multiplicities of each row in a per-class function.

        For a paired row this is twice the multiplicity of either
        complex constituent.
        """
        vals = tuple(float(v) for v in values)
        if len(vals) != len(self.class_keys):
            raise ValueError(
                f"expected {len(self.class_keys)} per-class values, got {len(vals)}"
            )
        out: dict[str, float] = {}
        for row in self.rows:
            acc = sum(
                size * chi * v
                for size, chi, v in zip(self.class_sizes, row.values, vals)
            )
            out[row.name] = acc / self.order
        return out

    def decompose(self, values, tol: float = 1e-6) -> dict[str, int]:
        """Integer multiplicities, verified by reconstruction.

        Raises NonIntegralMultiplicity when the input is not a
        difference of characters of this group.
        """
        raw = self.project(values)
        vals = tuple(float(v) for v in values)
        out: dict[str, int] = {}
        for name, m in raw.items():
            r = round(m)
            if abs(m - r) > tol:
                raise NonIntegralMultiplicity(
                    f"multiplicity of {name} in the {self.schoenflies} "
                    f"decomposition is {m}, not an integer"
                )
            out[name] = int(r)
        recon = [0.0] * len(vals)
        for row in self.rows:
            coeff = out[row.name] / 2 if row.paired else out[row.name]
            for c, chi in enumerate(row.values):
                recon[c] += coeff * chi
        scale = max(1.0, max(abs(v) for v in vals))
        worst = max(abs(a - b) for a, b in zip(recon, vals))
        if worst > tol * scale:
            raise NonIntegralMultiplicity(
                f"reconstruction residual {worst:g} after decomposing in "
                f"{self.schoenflies}"
            )
        return out


def canonical_label(label: str) -> str:
    return GROUP_ALIASES.get(label, label)


def _rotation_about(axis, angle: float) -> np.ndarray:
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


def _rot2(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


_SIGMA_H = np.diag([1.0, 1.0, -1.0])
_SIGMA_XZ = np.diag([1.0, -1.0, 1.0])
_C2X = np.diag([1.0, -1.0, -1.0])
_CYCLE_XYZ = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

# on no mirror and no rotation axis of any reference group
_FREE_POINT = np.array([0.31, 0.47, 0.83])


def _generators(label: str, dimension: int) -> list[np.ndarray]:
    if label == "C1":
        return [np.eye(dimension)]
    if dimension == 2:
        if label == "Cs":
            return [np.diag([1.0, -1.0])]
        head, n, suffix = _parse_label(label)
        if head == "C" and suffix == "":
            return [_rot2(2 * math.pi / n)]
        if head == "C" and suffix == "v":
            return [_rot2(2 * math.pi / n), np.diag([1.0, -1.0])]
        raise UnrecognizedGroup(f"{label} is not a 2D point group")
    if label == "Cs":
        return [_SIGMA_H]
    if label == "Ci":
        return [-np.eye(3)]
    if label == "T":
        return [np.diag([-1.0, -1.0, 1.0]), _CYCLE_XYZ]
    if label == "Th":
        return [np.diag([-1.0, -1.0, 1.0]), _CYCLE_XYZ, -np.eye(3)]
    if label == "Td":
        return [_rotation_about((0, 0, 1), math.pi / 2) @ _SIGMA_H, _CYCLE_XYZ]
    if label == "O":
        return [_rotation_about((0, 0, 1), math.pi / 2), _CYCLE_XYZ]
    if label == "Oh":
        return [_rotation_about((0, 0, 1), math.pi / 2), _CYCLE_XYZ, -np.eye(3)]
    if label in ("I", "Ih"):
        five = _rotation_about((0.0, 1.0, _GOLDEN), 2 * math.pi / 5)
        gens = [five, np.diag([-1.0, -1.0, 1.0])]
        if label == "Ih":
            gens.append(-np.eye(3))
        return gens
    head, n, suffix = _parse_label(label)
    rotz = _rotation_about((0, 0, 1), 2 * math.pi / n)
    if head == "C" and suffix == "":
        return [rotz]
    if head == "C" and suffix == "v":
        return [rotz, _SIGMA_XZ]
    if head == "C" and suffix == "h":
        return [rotz, _SIGMA_H]
    if head == "S" and suffix == "" and n % 2 == 0:
        return [_rotation_about((0, 0, 1), 2 * math.pi / n) @ _SIGMA_H]
    if head == "D" and suffix == "":
        return [rotz, _C2X]
    if head == "D" and suffix == "h":
        return [rotz, _C2X, _SIGMA_H]
    if head == "D" and suffix == "d":
        return [_rotation_about((0, 0, 1), math.pi / n) @ _SIGMA_H, _C2X]
    raise UnrecognizedGroup(f"{label} is not a supported point group")


def _close_under_multiplication(
    gens: list[np.ndarray], d: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """The elements the generators generate, and their images of _FREE_POINT.

    No element fixes _FREE_POINT, so two elements are the same exactly
    when they move it to the same image; the images are its orbit.
    """
    point = _FREE_POINT[:d]
    elems: list[np.ndarray] = [np.eye(d)]
    orbit = point[None, :]
    # elems grows as it is walked, so the walk is breadth first
    for A in elems:
        for B in gens:
            prod = A @ B
            image = prod @ point
            if np.abs(orbit - image).max(axis=1).min() <= 1e-6:
                continue
            if len(elems) == 1000:
                raise InternalInconsistency(
                    "group closure did not terminate; bad reference generators"
                )
            orbit = np.vstack([orbit, image])
            elems.append(prod)
    return elems, orbit


@lru_cache(maxsize=None)
def reference_group(label: str, dimension: int = 3) -> PointGroupInfo:
    """A concrete realization of the group from reference generators.

    Its joint_perms permute the free orbit, and give each element's
    order; it has no bar_perms.
    """
    label = canonical_label(label)
    mats, orbit = _close_under_multiplication(_generators(label, dimension), dimension)
    mats = np.array(mats)
    ids, perms, _, error = _matched_permutations(orbit, mats, 1e-6)
    if error:
        raise error
    if len(ids) < len(mats):
        raise InternalInconsistency(f"an element of {label} does not permute its free orbit")
    info = classify_group(mats, perms)
    if info.schoenflies != label:
        raise InternalInconsistency(
            f"reference generators for {label} closed into {info.schoenflies}"
        )
    return info


def _rows_cyclic(info: PointGroupInfo) -> list[IrrepRow]:
    m = info.order
    for gen in range(m):
        # discrete logarithms along gen, which generates when they cover the group
        logs: dict[int, int] = {}
        cur = 0
        for p in range(m):
            logs[cur] = p
            cur = int(info.mult_table[cur, gen])
        if len(logs) == m:
            break
    else:
        raise InternalInconsistency(f"{info.schoenflies} is not cyclic")
    reps = [cls.rep_id for cls in info.classes]
    rows = [IrrepRow("A", 1, False, tuple(1.0 for _ in reps))]
    if m % 2 == 0:
        rows.append(
            IrrepRow("B", 1, False, tuple(float((-1) ** logs[r]) for r in reps))
        )
    pair_count = (m - 1) // 2
    for j in range(1, pair_count + 1):
        name = "E" if pair_count == 1 else f"E{j}"
        vals = tuple(2 * math.cos(2 * math.pi * j * logs[r] / m) for r in reps)
        rows.append(IrrepRow(name, 2, True, vals))
    return rows


def _half(info: PointGroupInfo, members: list[int]) -> tuple[CharacterTable, dict[int, int]]:
    """The table of the subgroup on members, ascending element ids, and
    each member's column in it.

    The subgroup is classified anew, each member as in info, whose
    elements are in canonical order, so the stable sort in classify_group
    keeps the ascending members in place: its element y is members[y].
    """
    half = classify_group([info.elements[x].matrix for x in members], info.joint_perms[members])
    column = {members[y]: ci for ci, cls in enumerate(half.classes) for y in cls.member_ids}
    return _table_from_info(half), column


# how a 1D row of the axis half extends over the one or two flip classes
_FLIP_VALUES = {
    "A": (("A1", (1.0, 1.0)), ("A2", (-1.0, -1.0))),
    "B": (("B1", (1.0, -1.0)), ("B2", (-1.0, 1.0))),
}


def _rows_dihedral(info: PointGroupInfo) -> list[IrrepRow]:
    """Rows of a dihedral-type group, extended from its cyclic axis half.

    The axis half is the classes of role "": the identity and the
    rotations and rotoreflections about the principal axis.  Every other
    class is a class of flips.  Each 1D row of the half splits in two
    (_FLIP_VALUES); each pair row becomes one real 2D row, 0 on the flips.
    """
    flip_classes = [ci for ci, c in enumerate(info.classes) if c.key.role != ""]
    members = sorted(x for c in info.classes if c.key.role == "" for x in c.member_ids)
    if 2 * len(members) != info.order:
        raise InternalInconsistency(
            f"{info.schoenflies} did not split evenly into an axis half and flips"
        )
    half_table, column = _half(info, members)
    if _rows_builder(half_table.schoenflies) is not _rows_cyclic:
        raise InternalInconsistency(
            f"the axis half of {info.schoenflies} is not cyclic"
        )
    if len(flip_classes) != 2 - half_table.order % 2:
        raise InternalInconsistency(
            f"{info.schoenflies} has {len(flip_classes)} flip classes"
        )
    renames = {"A1": "A", "A2": "B1", "B1": "B2", "B2": "B3"} if info.schoenflies == "D2" else {}
    rows: list[IrrepRow] = []
    for hrow in half_table.rows:
        for name, flip_vals in _FLIP_VALUES.get(hrow.name, ((hrow.name, (0.0, 0.0)),)):
            vals = tuple(
                hrow.values[column[c.rep_id]]
                if c.key.role == ""
                else flip_vals[flip_classes.index(ci)]
                for ci, c in enumerate(info.classes)
            )
            rows.append(IrrepRow(renames.get(name, name), hrow.dim, False, vals))
    return rows


_LITERAL_ROWS: dict[str, list[tuple[str, int, bool, tuple[float, ...]]]] = {
    # columns in canonical class order
    # T: E, 8C3 (merged with its inverse class), 3C2
    "T": [
        ("A", 1, False, (1, 1, 1)),
        ("E", 2, True, (2, -1, 2)),
        ("T", 3, False, (3, 0, -1)),
    ],
    # Td: E, 8C3, 3C2, 6S4, 6sigma_d
    "Td": [
        ("A1", 1, False, (1, 1, 1, 1, 1)),
        ("A2", 1, False, (1, 1, 1, -1, -1)),
        ("E", 2, False, (2, -1, 2, 0, 0)),
        ("T1", 3, False, (3, 0, -1, 1, -1)),
        ("T2", 3, False, (3, 0, -1, -1, 1)),
    ],
    # O: E, 6C4, 8C3, 3C2, 6C2'
    "O": [
        ("A1", 1, False, (1, 1, 1, 1, 1)),
        ("A2", 1, False, (1, -1, 1, 1, -1)),
        ("E", 2, False, (2, 0, -1, 2, 0)),
        ("T1", 3, False, (3, 1, 0, -1, -1)),
        ("T2", 3, False, (3, -1, 0, -1, 1)),
    ],
    # I: E, 12C5, 12C5^2, 20C3, 15C2
    "I": [
        ("A", 1, False, (1, 1, 1, 1, 1)),
        ("T1", 3, False, (3, _GOLDEN, 1 - _GOLDEN, 0, -1)),
        ("T2", 3, False, (3, 1 - _GOLDEN, _GOLDEN, 0, -1)),
        ("G", 4, False, (4, -1, -1, 1, 0)),
        ("H", 5, False, (5, 0, 0, -1, 1)),
    ],
}

_LITERAL_KEYS: dict[str, tuple[ClassKey, ...]] = {
    "T": (
        ClassKey("E", 0, 0, ""),
        ClassKey("C", 3, 1, ""),
        ClassKey("C", 2, 1, ""),
    ),
    "Td": (
        ClassKey("E", 0, 0, ""),
        ClassKey("C", 3, 1, ""),
        ClassKey("C", 2, 1, ""),
        ClassKey("S", 4, 1, ""),
        ClassKey("sigma", 0, 0, "d"),
    ),
    "O": (
        ClassKey("E", 0, 0, ""),
        ClassKey("C", 4, 1, ""),
        ClassKey("C", 3, 1, ""),
        ClassKey("C", 2, 1, ""),
        ClassKey("C", 2, 1, "alt"),
    ),
    "I": (
        ClassKey("E", 0, 0, ""),
        ClassKey("C", 5, 1, ""),
        ClassKey("C", 5, 2, ""),
        ClassKey("C", 3, 1, ""),
        ClassKey("C", 2, 1, ""),
    ),
}


def _rows_literal(info: PointGroupInfo) -> list[IrrepRow]:
    label = info.schoenflies
    expected_keys = _LITERAL_KEYS[label]
    actual_keys = tuple(c.key for c in info.classes)
    if actual_keys != expected_keys:
        raise InternalInconsistency(
            f"classes of {label} came out as {actual_keys}, expected {expected_keys}"
        )
    return [
        IrrepRow(name, dim, paired, tuple(float(v) for v in vals))
        for name, dim, paired, vals in _LITERAL_ROWS[label]
    ]


def _rows_product(info: PointGroupInfo) -> list[IrrepRow]:
    """Rows of H x {E, w} from the rows of H, w a central improper element.

    H is the group of info's own proper elements.  As w is central, each
    class of proper elements is a class of H, and an improper element r
    takes the H-class of w r.
    """
    kinds = [op.kind for op in info.elements]
    if "i" in kinds:
        w, suffix_even, suffix_odd = kinds.index("i"), "g", "u"
    elif "sigma" in kinds:
        w, suffix_even, suffix_odd = kinds.index("sigma"), "'", "''"
    else:
        raise InternalInconsistency(f"{info.schoenflies} has no central improper element")
    proper = [kind in ("E", "C") for kind in kinds]
    half_table, column = _half(info, [x for x in range(info.order) if proper[x]])
    column_map = [
        (column[r if proper[r] else int(info.mult_table[w, r])], proper[r])
        for r in (cls.rep_id for cls in info.classes)
    ]
    rows: list[IrrepRow] = []
    for parity, suffix in ((1.0, suffix_even), (-1.0, suffix_odd)):
        for hrow in half_table.rows:
            vals = tuple(
                hrow.values[hc] * (1.0 if is_proper else parity)
                for hc, is_proper in column_map
            )
            rows.append(IrrepRow(hrow.name + suffix, hrow.dim, hrow.paired, vals))
    return rows


def _rows_builder(label: str) -> Callable[[PointGroupInfo], list[IrrepRow]]:
    """The rows function of the label's family."""
    if label in ("Ci", "Cs", "Th", "Oh", "Ih"):
        return _rows_product
    if label in ("T", "Td", "O", "I"):
        return _rows_literal
    head, n, suffix = _parse_label(label)
    if head == "C" and suffix == "":
        return _rows_cyclic
    if head == "C" and suffix == "v":
        return _rows_dihedral
    if head == "C" and suffix == "h":
        return _rows_product
    if head == "S":
        return _rows_cyclic if n % 4 == 0 else _rows_product
    if head == "D" and suffix == "":
        return _rows_dihedral
    if head == "D" and suffix == "d":
        return _rows_dihedral if n % 2 == 0 else _rows_product
    if head == "D" and suffix == "h":
        return _rows_product
    raise UnrecognizedGroup(f"{label} is not a supported point group")


def _verify_table(table: CharacterTable) -> None:
    g = table.order
    for a, ra in enumerate(table.rows):
        for b, rb in enumerate(table.rows):
            acc = sum(
                s * x * y
                for s, x, y in zip(table.class_sizes, ra.values, rb.values)
            )
            if a == b:
                expected = 2 * g if ra.paired else g
            else:
                expected = 0
            if abs(acc - expected) > 1e-6 * max(1, g):
                raise InternalInconsistency(
                    f"rows {ra.name} and {rb.name} of {table.schoenflies} have "
                    f"inner product {acc}, expected {expected}"
                )
    dims = sum(2 if r.paired else r.dim * r.dim for r in table.rows)
    if dims != g:
        raise InternalInconsistency(
            f"squared dimensions in {table.schoenflies} sum to {dims}, not {g}"
        )


def _table_from_info(info: PointGroupInfo) -> CharacterTable:
    rows = _rows_builder(info.schoenflies)(info)
    table = CharacterTable(
        schoenflies=info.schoenflies,
        dimension=info.dimension,
        order=info.order,
        class_keys=tuple(c.key for c in info.classes),
        class_sizes=tuple(c.size for c in info.classes),
        class_labels=tuple(c.label for c in info.classes),
        rows=tuple(rows),
    )
    _verify_table(table)
    return table


@lru_cache(maxsize=None)
def character_table(label: str, dimension: int = 3) -> CharacterTable:
    """The real character table of a point group by Schoenflies label."""
    info = reference_group(canonical_label(label), dimension)
    return _table_from_info(info)


def table_for_group(info: PointGroupInfo) -> CharacterTable:
    """The character table whose columns align with info.classes."""
    table = character_table(info.schoenflies, info.dimension)
    keys = tuple(c.key for c in info.classes)
    sizes = tuple(c.size for c in info.classes)
    if keys != table.class_keys or sizes != table.class_sizes:
        raise InternalInconsistency(
            f"detected {info.schoenflies} classes {keys} with sizes {sizes} do "
            f"not match the reference table ({table.class_keys}, "
            f"{table.class_sizes})"
        )
    return table
