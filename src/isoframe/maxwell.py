"""Symmetry-extended counting rules for pin-jointed frameworks.

The scalar bar-joint count generalizes, class by class, to a vector of
character values: the joint permutation character times the translation
character, minus the bar permutation character, minus the rigid-body
character.  Each conjugacy class of the framework's point group then
yields one scalar equation that an isostatic framework must satisfy.
This module assembles those traces and evaluates the per-operation
necessary conditions: one builder, dispatching on dimension and kind,
makes one check per equation of the paper, and its verdict is
lhs == rhs in exact integer arithmetic, except where an irrational
cosine decides the equation outright.  It also screens groups for
compatibility with fully generic component placement, and projects
trace vectors onto irreducible characters for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chartables import CharacterTable, reference_group, table_for_group
from .core import Framework, maxwell_count
from .errors import InternalInconsistency
from .symdetect import (
    IsometryOp,
    PointGroupInfo,
    UnshiftedCounts,
    detect_point_group,
    unshifted_counts,
)

# 2*cos(2*pi/n) is an integer exactly at the crystallographic orders.
TWO_COS_EXACT = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}

# The only 2D point groups an isostatic framework can have.
WHITELIST_2D = frozenset({"C1", "C2", "C3", "Cs", "C2v", "C3v"})

# Groups whose rigid-body character is a multiple of the regular one,
# so that a framework with every joint and bar in general position can
# still be isostatic.
FREE_PLACEMENT_2D = frozenset({"C1", "C3"})
FREE_PLACEMENT_3D = frozenset({"C1", "Cs", "Ci", "C3", "C3h", "C3v", "S6"})

_CROSSCHECK_TOL = 1e-9


def two_cos(n: int, k: int = 1) -> int | float:
    """2*cos(2*pi*k/n), an exact int for n in {1, 2, 3, 4, 6}.

    For those orders the value is independent of any k coprime to n,
    which is the only way classified operations store k.
    """
    if n in TWO_COS_EXACT:
        return TWO_COS_EXACT[n]
    return 2.0 * math.cos(2.0 * math.pi * k / n)


@dataclass(frozen=True)
class TraceVector:
    """Per-conjugacy-class character values of one group action.

    values follow the group's canonical class order.  Entries known in
    exact integer arithmetic are stored as ints with exact=True; the
    rest are floats (this happens only for rotation orders whose
    cosine is irrational, e.g. fivefold axes).
    """

    group: PointGroupInfo = field(repr=False, compare=False)
    values: tuple[int | float, ...] = ()
    exact: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if len(self.values) != len(self.group.classes) or len(self.values) != len(
            self.exact
        ):
            raise InternalInconsistency(
                f"trace vector has {len(self.values)} values and "
                f"{len(self.exact)} exactness flags for "
                f"{len(self.group.classes)} classes"
            )
        for cls, v in zip(self.group.classes, self.values):
            if cls.key.kind == "E" and not isinstance(v, int):
                raise InternalInconsistency(
                    f"identity-class trace {v!r} is not an integer"
                )

    def by_label(self) -> dict[str, int | float]:
        return {
            cls.label: v for cls, v in zip(self.group.classes, self.values)
        }

    def max_abs(self) -> float:
        return max((abs(float(v)) for v in self.values), default=0.0)


@dataclass(frozen=True)
class ConditionCheck:
    """One scalar equation attached to one conjugacy class."""

    class_label: str
    eq_id: str
    equation: str
    inputs: dict[str, int]
    lhs: int | float
    rhs: int
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    """Every per-operation necessary condition, evaluated on one framework."""

    group: PointGroupInfo = field(repr=False, compare=False)
    schoenflies: str = ""
    dimension: int = 0
    checks: tuple[ConditionCheck, ...] = ()
    admissible_2d: bool | None = None
    notes: tuple[str, ...] = ()
    passed: bool = False


@dataclass(frozen=True)
class ScreenReport:
    """Whether a group permits isostatic frameworks with all parts generic.

    The discrepancy entries are (d_rig/|G|) * regular trace minus the
    rigid-body trace, per class; an isostatic framework with every
    joint and bar in a free (regular) orbit exists only if the group
    order divides the rigid-body dimension and the discrepancy
    vanishes identically.
    """

    schoenflies: str
    dimension: int
    order: int
    order_allowed: bool
    discrepancy: TraceVector
    vanishes: bool
    admissible: bool
    decomposition: tuple[tuple[str, int], ...]
    note: str


def gamma_rigid_body(
    op: IsometryOp, dimension: int
) -> tuple[int | float, int | float]:
    """Traces of the translation and rotation blocks under one operation."""
    if dimension == 2:
        if op.kind == "E":
            return 2, 1
        if op.kind == "C":
            # a plane rotation fixes the single angular coordinate
            return two_cos(op.n, op.k), 1
        if op.kind == "sigma":
            return 0, -1
        raise ValueError(f"operation kind {op.kind!r} is not a 2D isometry")
    if op.kind == "E":
        return 3, 3
    if op.kind == "C":
        tc = two_cos(op.n, op.k)
        return tc + 1, tc + 1
    if op.kind == "i":
        return -3, 3
    if op.kind == "sigma":
        return 1, -1
    if op.kind == "S":
        tc = two_cos(op.n, op.k)
        return tc - 1, 1 - tc
    raise ValueError(f"unknown operation kind {op.kind!r}")


def _permutation_trace(
    group: PointGroupInfo, perms: np.ndarray | None
) -> tuple[int, ...]:
    """Fixed-point counts per class of the group's stacked permutations,
    verified constant across each class."""
    if perms is None:
        raise ValueError("group element carries no joint/bar permutation")
    fixed = (perms == np.arange(perms.shape[1])).sum(axis=1).tolist()
    values = []
    for cls in group.classes:
        counts = {fixed[m] for m in cls.member_ids}
        if len(counts) != 1:
            raise InternalInconsistency(
                f"unshifted counts differ within class {cls.label}: "
                f"{sorted(counts)}"
            )
        values.append(counts.pop())
    return tuple(values)


def gamma_joint(f: Framework, group: PointGroupInfo) -> TraceVector:
    """Per-class count of joints left in place (the joint permutation trace)."""
    values = _permutation_trace(group, group.joint_perms)
    return TraceVector(group, values, (True,) * len(values))


def gamma_bar(f: Framework, group: PointGroupInfo) -> TraceVector:
    """Per-class count of bars left in place setwise (the bar permutation trace)."""
    values = _permutation_trace(group, group.bar_perms)
    return TraceVector(group, values, (True,) * len(values))


def gamma_regular(group: PointGroupInfo) -> TraceVector:
    """The regular representation: |G| at the identity, 0 elsewhere."""
    values = tuple(
        group.order if cls.key.kind == "E" else 0 for cls in group.classes
    )
    return TraceVector(group, values, (True,) * len(values))


def _closed_form(
    op: IsometryOp, dimension: int, j: int, b: int, jf: int, bf: int
) -> int | float:
    """The bottom-row formula for one class, from its fixed joints and bars."""
    if dimension == 2:
        if op.kind == "E":
            return 2 * j - b - 3
        if op.kind == "C":
            if op.n == 2:
                return -2 * jf - bf + 1
            return two_cos(op.n, op.k) * (jf - 1) - 1
        if op.kind == "sigma":
            return 1 - bf
        raise InternalInconsistency(f"no 2D closed form for kind {op.kind!r}")
    if op.kind == "E":
        return 3 * j - b - 6
    if op.kind == "C":
        return (two_cos(op.n, op.k) + 1) * (jf - 2) - bf
    if op.kind == "sigma":
        return jf - bf
    if op.kind == "i":
        return -3 * jf - bf
    if op.kind == "S":
        return jf * (two_cos(op.n, op.k) - 1) - bf
    raise InternalInconsistency(f"no closed form for kind {op.kind!r}")


def maxwell_trace(f: Framework, group: PointGroupInfo) -> TraceVector:
    """Mechanism-minus-self-stress trace, one value per conjugacy class.

    Assembled as joint trace times translation trace, minus bar trace,
    minus the rigid-body trace, then cross-checked against the
    closed-form expression in the same fixed joint and bar counts.  A
    mismatch is a bug in the counting machinery, never a property of
    the input.
    """
    d = f.dimension
    j_trace = gamma_joint(f, group).values
    b_trace = gamma_bar(f, group).values
    values: list[int | float] = []
    exact: list[bool] = []
    for cls, jf, bf in zip(group.classes, j_trace, b_trace):
        op = group.elements[cls.rep_id]
        txyz, trot = gamma_rigid_body(op, d)
        v = jf * txyz - bf - txyz - trot
        ref = _closed_form(op, d, f.joint_count, f.bar_count, jf, bf)
        is_exact = isinstance(txyz, int) and isinstance(trot, int)
        if is_exact:
            if v != ref:
                raise InternalInconsistency(
                    f"assembled trace {v} for class {cls.label} does not "
                    f"match the closed form {ref}"
                )
        elif abs(v - ref) > _CROSSCHECK_TOL:
            raise InternalInconsistency(
                f"assembled trace {v} for class {cls.label} is off the "
                f"closed form {ref} by {abs(v - ref):g}"
            )
        values.append(v if is_exact else float(v))
        exact.append(is_exact)
    e_index = next(
        i for i, cls in enumerate(group.classes) if cls.key.kind == "E"
    )
    if values[e_index] != maxwell_count(f):
        raise InternalInconsistency(
            f"identity-class trace {values[e_index]} does not equal the "
            f"scalar count {maxwell_count(f)}"
        )
    return TraceVector(group, tuple(values), tuple(exact))


_PARITY_NOTES_2D = {
    "C2": "j is even and b is odd",
    "C2v": "j is even and b is odd",
    "Cs": "b is odd",
    "C3": "j and b are both multiples of 3",
    "C3v": "j is a multiple of 3 and b is 3 mod 6",
}


def _class_checks(
    label: str, counts: UnshiftedCounts, d: int, j: int, b: int
) -> list[ConditionCheck]:
    """The paper's conditions for one class, one check per equation.

    Dispatches on (dimension, kind), a rotation's kind split into C2
    and Cn.  `check` builds every row: it owns the class label, the
    "2D:" or "3D:" prefix of the id and the verdict lhs == rhs.  Only
    the rows whose cosine may be irrational (2D Cn, 3D Sn) pass a
    verdict of their own, so no float is compared for equality.
    """
    jf, bf, n, k = counts.joints_unshifted, counts.bars_unshifted, counts.n, counts.k
    kind = counts.kind
    if kind == "C":
        kind = "C2" if n == 2 else "Cn"

    def check(
        eq: str,
        equation: str,
        inputs: dict[str, int],
        lhs: int | float,
        rhs: int,
        note: str = "",
        passed: bool | None = None,
    ) -> ConditionCheck:
        if passed is None:
            passed = lhs == rhs
        return ConditionCheck(label, f"{d}D:{eq}", equation, inputs, lhs, rhs, passed, note)

    match (d, kind):
        case (2, "E"):
            return [check("E", "2j - b = 3", {"j": j, "b": b}, 2 * j - b, 3)]
        case (2, "C2"):
            note = "the only admissible solution is j_c = 0, b_2 = 1"
            return [check("C2", "2*j_c + b_2 = 1", {"j_c": jf, "b_2": bf}, 2 * jf + bf, 1, note)]
        case (2, "Cn"):
            tc = two_cos(n, k)
            passed, note = None, ""
            if not isinstance(tc, int):
                passed = False
                note = (
                    f"2*cos(2*pi*{k}/{n}) is irrational, so the equation has "
                    "no integer solution for any j_c"
                )
            elif n != 3:
                note = (
                    f"2*cos(2*pi*{k}/{n}) = {tc}; with j_c at most 1 the "
                    "left side can never reach 1, so no framework with "
                    f"a {n}-fold rotation satisfies this"
                )
            equation = "(j_c - 1) * 2*cos(2*pi*k/n) = 1"
            inputs = {"j_c": jf, "n": n, "k": k}
            return [check("Cn", equation, inputs, tc * (jf - 1), 1, note, passed)]
        case (2, "sigma"):
            return [check("sigma", "b_sigma = 1", {"j_sigma": jf, "b_sigma": bf}, bf, 1)]
        case (3, "E"):
            return [check("E", "3j - b = 6", {"j": j, "b": b}, 3 * j - b, 6)]
        case (3, "C2"):
            along = list(counts.bar_tags.values()).count("along_axis")
            note = "admissible splits are (2,0), (1,1) and (0,2)"
            equation = "bars counted in b_2 lie perpendicular to the axis"
            return [
                check("C2", "j_2 + b_2 = 2", {"j_2": jf, "b_2": bf}, jf + bf, 2, note),
                check("C2-perp", equation, {"b_2": bf, "b_along_axis": along}, along, 0),
            ]
        case (3, "Cn"):
            note = (
                "(j_n - 2)(2*cos(2*pi*k/n) + 1) = b_n, combined with "
                "the conditions for the powers of the same axis, "
                "forces b_n = 0 beyond order 2"
            )
            checks = [check("Cn", "b_n = 0", {"j_n": jf, "b_n": bf, "n": n}, bf, 0, note)]
            if n != 3:
                note = (
                    "every rotation axis of order above 3 must pass "
                    "through exactly two joints"
                )
                checks.append(check("Cn-axis", "j_n = 2", {"j_n": jf, "n": n}, jf, 2, note))
            return checks
        case (3, "sigma"):
            return [check("sigma", "j_sigma = b_sigma", {"j_sigma": jf, "b_sigma": bf}, jf, bf)]
        case (3, "i"):
            note = "no joint at the centre and no bar centred on it"
            return [check("i", "3*j_c + b_c = 0", {"j_c": jf, "b_c": bf}, 3 * jf + bf, 0, note)]
        case (3, "S"):
            tc = two_cos(n, k)
            passed, note = None, ""
            if not isinstance(tc, int):
                passed = jf == 0 and bf == 0
                note = (
                    f"2*cos(2*pi*{k}/{n}) is irrational, so only "
                    "j_c = 0 with b_nc = 0 can satisfy the equation"
                )
            equation = "j_c * (2*cos(2*pi*k/n) - 1) = b_nc"
            inputs = {"j_c": jf, "b_nc": bf, "n": n, "k": k}
            return [check("Sn", equation, inputs, jf * (tc - 1), bf, note, passed)]
    raise InternalInconsistency(f"no {d}D condition for kind {counts.kind!r}")


def isostatic_necessary(
    f: Framework, group: PointGroupInfo | None = None
) -> ConditionReport:
    """Evaluate every per-operation necessary condition for isostaticity.

    Unshifted joints and bars are counted from the group's permutations,
    not from coordinates.  All verdicts use exact integer arithmetic;
    rotation orders with an irrational cosine get an explicit
    unsatisfiability note instead of a floating-point comparison.
    Failures are report content, never exceptions.
    """
    if group is None:
        group = detect_point_group(f)
    d = f.dimension
    j, b = f.joint_count, f.bar_count
    if group.bar_perms is None:
        raise ValueError("the group carries no bar permutations; detect it on the framework")
    checks: list[ConditionCheck] = []
    for cls in group.classes:
        x = cls.rep_id
        counts = unshifted_counts(f, group.elements[x], group.joint_perms[x], group.bar_perms[x])
        checks.extend(_class_checks(cls.label, counts, d, j, b))
    notes: list[str] = []
    admissible_2d: bool | None = None
    if d == 2:
        admissible_2d = group.schoenflies in WHITELIST_2D
        if not admissible_2d:
            notes.append(
                f"group {group.schoenflies} is not one of the six 2D "
                "groups an isostatic framework can have: "
                + ", ".join(sorted(WHITELIST_2D))
            )
        parity = _PARITY_NOTES_2D.get(group.schoenflies)
        if parity is not None:
            notes.append(
                f"{group.schoenflies} forces {parity} (here j={j}, b={b})"
            )
    passed = all(c.passed for c in checks) and admissible_2d is not False
    return ConditionReport(
        group=group,
        schoenflies=group.schoenflies,
        dimension=d,
        checks=tuple(checks),
        admissible_2d=admissible_2d,
        notes=tuple(notes),
        passed=passed,
    )


def free_placement_screen(
    group: PointGroupInfo | str,
    dimension: int | None = None,
) -> ScreenReport:
    """Screen a group for isostatic frameworks with fully generic parts.

    When every joint and bar orbit is free (regular), the joint and bar
    traces are multiples of the regular representation, so the whole
    counting rule reduces to (d_rig/|G|) * regular trace minus the
    rigid-body trace.  That discrepancy must vanish and |G| must divide
    the rigid-body dimension.
    """
    if isinstance(group, str):
        info = reference_group(group, 3 if dimension is None else dimension)
    else:
        info = group
        if dimension is not None and dimension != info.dimension:
            raise ValueError(
                f"group {info.schoenflies} is {info.dimension}D, "
                f"not {dimension}D"
            )
    d = info.dimension
    d_rig = 3 if d == 2 else 6
    order_allowed = d_rig % info.order == 0
    values: list[int | float] = []
    exact: list[bool] = []
    for cls in info.classes:
        op = info.elements[cls.rep_id]
        txyz, trot = gamma_rigid_body(op, d)
        reg = d_rig if cls.key.kind == "E" else 0
        v = reg - txyz - trot
        values.append(v)
        exact.append(isinstance(v, int))
    discrepancy = TraceVector(info, tuple(values), tuple(exact))
    vanishes = discrepancy.max_abs() <= _CROSSCHECK_TOL
    admissible = order_allowed and vanishes
    decomposition: tuple[tuple[str, int], ...] = ()
    note_parts: list[str] = []
    if not order_allowed:
        note_parts.append(
            f"|G| = {info.order} does not divide the rigid-body "
            f"dimension {d_rig}"
        )
    if vanishes:
        note_parts.append("fully generic placement is not obstructed")
    else:
        note_parts.append("fully generic placement is obstructed")
        if order_allowed:
            decomposition = tuple(decompose_irreps(discrepancy))
            gains = [name for name, m in decomposition if m > 0]
            losses = [name for name, m in decomposition if m < 0]
            if gains:
                note_parts.append(
                    "net mechanisms of symmetry " + ", ".join(gains)
                )
            if losses:
                note_parts.append(
                    "net self-stresses of symmetry " + ", ".join(losses)
                )
    return ScreenReport(
        schoenflies=info.schoenflies,
        dimension=d,
        order=info.order,
        order_allowed=order_allowed,
        discrepancy=discrepancy,
        vanishes=vanishes,
        admissible=admissible,
        decomposition=decomposition,
        note="; ".join(note_parts),
    )


def decompose_irreps(
    trace: TraceVector, table: CharacterTable | None = None
) -> list[tuple[str, int]]:
    """Integer irreducible-character multiplicities of a trace vector.

    Multiplicities may be negative: a mechanism-minus-stress trace is a
    difference of characters, not a character.  Rows with multiplicity
    zero are omitted, so a zero trace decomposes to an empty list.
    """
    if table is None:
        table = table_for_group(trace.group)
    mult = table.decompose(trace.values)
    return [(name, m) for name, m in mult.items() if m != 0]
