"""Expected answers, written down without running the program under test.

Gallery fixtures come from a hand-written table.  Its sources are the
README and PAPER.md (isostatic constructions, the double banana with
m = s = 1, the blocked planar groups), the acceptance criteria in the
test suite (twisted caps have groups T/O/I, the planar six-group
fixtures are isostatic, the counterexamples fail their rotation-class
equation, the double banana's cap-8 screen is clean) and the geometry
of each construction (capping one face of a Platonic solid leaves the
threefold axis and its mirrors: C3v).  The m and s of the blocked
planar fixtures obey m - s = 2j - b - 3; the harness self-tests check
every m and s in the table against an independent rank computation.

Generated inputs take their answer from the construction: a Henneberg
framework is tight (m = s = 0), one extra bar makes it dependent with
s = 1, one bar fewer makes it underbraced with m = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

TIGHT = "tight"
DEPENDENT = "dependent"
UNDERBRACED = "independent-but-underbraced"
CLEAN = "clean"  # 3D subgraph screen found no overbraced subgraph

# Known defects of the program: the outcome a job may show in place of
# its answer, and a text the outcome's detail must contain.
# The recursive DFS of pebble_game_2_3 overflows on long chain graphs.
RECURSION = ("crash", "RecursionError:")
# The cap-8 3D screen spends its whole subgraph budget on the j=72
# twisted icosahedron and gives up (exit 3 from check --sufficient).
SCREEN_BUDGET = ("undecided", "more than 2000000 connected subgraphs within cap 8")


@dataclass(frozen=True)
class Fixture:
    dimension: int
    group: str
    m: int
    s: int
    necessary: bool
    sparsity: str  # pebble verdict in 2D, screen outcome in 3D


def _iso3(group: str) -> Fixture:
    return Fixture(3, group, 0, 0, True, CLEAN)


def _iso2(group: str) -> Fixture:
    return Fixture(2, group, 0, 0, True, TIGHT)


FIXTURES: dict[str, Fixture] = {
    "tetrahedron": _iso3("Td"),
    "tetrahedron_capped": _iso3("Td"),
    "tetrahedron_twisted": _iso3("T"),
    "tetrahedron_single_cap": _iso3("C3v"),
    "tetrahedron_hat3": _iso3("C3v"),
    "octahedron": _iso3("Oh"),
    "octahedron_capped": _iso3("Oh"),
    "octahedron_twisted": _iso3("O"),
    "octahedron_single_cap": _iso3("C3v"),
    "octahedron_hat3": _iso3("C3v"),
    "icosahedron": _iso3("Ih"),
    "icosahedron_capped": _iso3("Ih"),
    "icosahedron_twisted": _iso3("I"),
    "icosahedron_twisted_36deg": _iso3("I"),
    "icosahedron_single_cap": _iso3("C3v"),
    "icosahedron_hat3": _iso3("C3v"),
    "planar_C1": _iso2("C1"),
    "planar_C2": _iso2("C2"),
    "planar_C3": _iso2("C3"),
    "planar_Cs_perp": _iso2("Cs"),
    "planar_Cs_in": _iso2("Cs"),
    "planar_C2v": _iso2("C2v"),
    "planar_C3v_perp": _iso2("C3v"),
    "planar_C3v_in": _iso2("C3v"),
    # j=8, b=14: one bar over 2j-3, so dependent with a self-stress
    "blocked_C4": Fixture(2, "C4", 0, 1, False, DEPENDENT),
    # j=10, b=15: two bars short
    "blocked_C5": Fixture(2, "C5", 2, 0, False, UNDERBRACED),
    # j=12, b=21 = 2j-3 and generically tight, yet the symmetric
    # placement forces a mechanism and a self-stress
    "blocked_C6": Fixture(2, "C6", 1, 1, False, TIGHT),
    # j=8, b=12: one bar short, plus a symmetry-forced stress
    "blocked_C4v": Fixture(2, "C4v", 2, 1, False, UNDERBRACED),
    "double_banana": Fixture(3, "C1", 1, 1, True, CLEAN),
    # a hat stack with its hats spread far up the axis: still a chain
    # of 3-valent vertex additions on an isostatic seed
    "icosahedron_hat_stack": _iso3("C3v"),
}


def generated(variant: str) -> Fixture:
    """The answer a Henneberg construction fixes for a planar framework
    with random (hence trivial, C1) symmetry."""
    m, s, sparsity = {
        "tight": (0, 0, TIGHT),
        "dependent": (0, 1, DEPENDENT),
        "underbraced": (1, 0, UNDERBRACED),
    }[variant]
    return Fixture(2, "C1", m, s, m == 0 and s == 0, sparsity)


@dataclass(frozen=True)
class Expect:
    """The fields one job's answer must match; None means not checked.
    ``defect`` is a known defect the job may show instead (see RECURSION)."""

    exit: int
    group: str | None = None
    m: int | None = None
    s: int | None = None
    necessary: bool | None = None
    sparsity: str | None = None
    defect: tuple[str, str] | None = None


def for_command(fx: Fixture, command: str) -> Expect:
    """What ``isoframe <command> --json`` must report on a fixture."""
    iso = fx.m == 0 and fx.s == 0
    if command == "analyze":
        return Expect(0 if iso else 1, fx.group, fx.m, fx.s, fx.necessary, fx.sparsity)
    if command == "check":
        return Expect(0 if fx.necessary else 1, fx.group, necessary=fx.necessary)
    if command == "check --sufficient":
        ok = fx.necessary and fx.sparsity == CLEAN
        return Expect(0 if ok else 1, fx.group, necessary=fx.necessary, sparsity=fx.sparsity)
    if command == "detect":
        return Expect(0, fx.group)
    if command == "pebble":
        return Expect(0 if fx.sparsity == TIGHT else 1, sparsity=fx.sparsity)
    raise ValueError(f"no expectation for command {command!r}")


def _screen(violations) -> str:
    if violations is None:
        return "aborted"
    return "violations" if violations else CLEAN


def observed(command: str, bundle: dict) -> dict:
    """The checked fields of a CLI report, named as in Expect."""
    out: dict = {}
    if "group" in bundle:
        out["group"] = bundle["group"]["schoenflies"]
    if "kinematics" in bundle:
        out["m"] = bundle["kinematics"]["mechanisms"]
        out["s"] = bundle["kinematics"]["self_stresses"]
    if "conditions" in bundle:
        out["necessary"] = bundle["conditions"]["passed"]
    if command == "pebble" or (command == "analyze" and "sparsity" in bundle):
        out["sparsity"] = bundle["sparsity"]["verdict"]
    elif command == "analyze" and "screen_violations" in bundle:
        out["sparsity"] = _screen(bundle["screen_violations"])
    elif command == "check --sufficient" and "sufficiency" in bundle:
        # only 3D fixtures take this command here
        out["sparsity"] = _screen(bundle["sufficiency"]["screen_violations"])
    return out


def mismatches(expect: Expect, exit_code: int, seen: dict) -> list[str]:
    """Human-readable differences between an expectation and an answer."""
    diffs = []
    if exit_code != expect.exit:
        diffs.append(f"exit {exit_code} != {expect.exit}")
    for name in ("group", "m", "s", "necessary", "sparsity"):
        want = getattr(expect, name)
        if want is not None and seen.get(name) != want:
            diffs.append(f"{name} {seen.get(name)!r} != {want!r}")
    return diffs
