"""Combinatorial 2D isostaticity and the 3D subgraph count scan.

A generic 2D framework is isostatic exactly when its graph is
(2,3)-tight: b = 2j - 3 and no subset of bars spans fewer than the
count allows.  The pebble game decides that without enumerating
subsets.  It first peels the joints of at most 2 bars, repeatedly, and
places their bars with no search and no out-list entry, since no
search can reach them; only the core that is left, where every joint
keeps 3 or more bars, holds directed edges and pays the O(j*b) pebble
searches.  A graph grown by vertex additions peels to nothing.  Edge-split graphs
keep their whole core, and so does the span of a chain between the
ends of one added bar.  The game reads a core.Graph, its ends and its
kept peel; a Framework is a Graph, so its bars are read where they
are, never copied.  With symmetry, tightness plus a handful of
fixed-component counts upgrades the necessary conditions to sufficient
ones for some groups; those verdicts carry their epistemic status,
because for the reflection-rich groups the sufficiency is conjectured,
not proved.  In 3D no counting characterization exists.  The count
screen first undoes vertex additions and edge splits (Tay & Whiteley
1985) and vertex splits (Whiteley 1990, "Vertex splitting in isostatic
frameworks"), which keep bars independent, and ranks the core left, if
any (else all bars), exactly over GF(p) at random points: when every bar
is independent, no joint set can span more bars than its count allows,
so the screen is clean without a scan.
Only a graph whose bars are dependent there is scanned, over its small
connected subgraphs.  The scan keeps joint sets as int bitmasks, so
each visited subgraph costs a few integer operations: its bar count is
carried over from its parent, and bar ids are listed only for hits.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .core import Framework, Graph
from .errors import CapExceeded, GroupOutsideWhitelist
from .maxwell import WHITELIST_2D, ConditionCheck, ConditionReport
from .symdetect import PointGroupInfo

_SCAN_BUDGET = 2_000_000
SCAN_MAX_CAP = 12  # the largest cap subgraph_maxwell_scan_3d accepts
_PRIME = 2**31 - 1  # products of two residues stay below 2**62
_RANK_SEED = 1  # generic_rank draws its points from this seed

_THEOREM_GROUPS = frozenset({"C1", "Cs", "C2", "C3"})


class PebbleState:
    """Mutable pebble-game position: pebbles per joint plus edge orientations.

    Placing an edge costs one pebble from its tail, so the total of
    free pebbles and placed edges is pinned at 2j throughout.  Each
    joint's out-neighbours are kept in ascending order as edges are
    placed and reversed, so a search reads them without sorting.  The
    out-lists hold only the edges a search can walk: `pebble_game_2_3`
    spends a pebble for each peeled bar and lists none of them.
    """

    def __init__(self, joint_count: int) -> None:
        self.joint_count = joint_count
        self.pebbles = [2] * joint_count
        self.out: list[list[int]] = [[] for _ in range(joint_count)]
        self.placed = 0

    def check_invariant(self) -> None:
        total = sum(self.pebbles)
        if total + self.placed != 2 * self.joint_count:
            raise AssertionError(
                f"{total} pebbles + {self.placed} edges != "
                f"{2 * self.joint_count}"
            )
        if any(p < 0 or p > 2 for p in self.pebbles):
            raise AssertionError(f"pebble counts out of range: {self.pebbles}")

    def _dfs_free_pebble(self, root: int, blocked: int) -> list[int] | None:
        """Depth-first path from root to any joint with a free pebble.

        Neighbors are explored in ascending id order and the blocked
        joint (the edge's other endpoint) is never entered, so results
        are deterministic and its pebbles are never raided.  The walk
        keeps an explicit stack of neighbor iterators, one per joint on
        the path, so long paths cannot exhaust the interpreter stack.
        """
        visited = {root, blocked}
        path = [root]
        stack = [iter(self.out[root])]
        while stack:
            y = next((y for y in stack[-1] if y not in visited), None)
            if y is None:
                stack.pop()
                path.pop()
                continue
            visited.add(y)
            path.append(y)
            if self.pebbles[y] > 0:
                return path
            stack.append(iter(self.out[y]))
        return None

    def _pull_pebble(self, root: int, blocked: int) -> bool:
        found = self._dfs_free_pebble(root, blocked)
        if found is None:
            return False
        self.pebbles[found[-1]] -= 1
        self.pebbles[root] += 1
        for a, b in zip(found, found[1:]):
            self.out[a].remove(b)
            bisect.insort(self.out[b], a)
        return True

    def gather(self, u: int, v: int) -> bool:
        """Try to collect 4 pebbles on the pair (u, v)."""
        while self.pebbles[u] + self.pebbles[v] < 4:
            if self.pebbles[u] < 2 and self._pull_pebble(u, v):
                continue
            if self.pebbles[v] < 2 and self._pull_pebble(v, u):
                continue
            return False
        return True

    def place(self, u: int, v: int) -> None:
        tail = u if self.pebbles[u] > 0 else v
        head = v if tail == u else u
        self.pebbles[tail] -= 1
        bisect.insort(self.out[tail], head)
        self.placed += 1

    def _reach(self, roots: list[int], blocked: int | None) -> set[int]:
        region: set[int] = set()
        stack = list(roots)
        while stack:
            x = stack.pop()
            if x in region:
                continue
            region.add(x)
            stack.extend(y for y in self.out[x] if y != blocked)
        return region

    def failure_region(self, u: int, v: int) -> set[int]:
        """The joint set certifying that the pair (u, v) cannot be braced.

        When both endpoint searches ran and failed, every joint
        reachable from the pair is pebble-free beyond the endpoints and
        the region is closed under placed edges.  When one endpoint
        was skipped because it already holds 2 pebbles, only the other
        endpoint's blocked search failed, and the sound region is its
        reach plus the saturated endpoint.  Either way the bars induced
        on the region, plus the rejected bar, exceed the subset count.
        """
        if self.pebbles[u] == 2:
            return self._reach([v], blocked=u) | {u}
        if self.pebbles[v] == 2:
            return self._reach([u], blocked=v) | {v}
        return self._reach([u, v], blocked=None)


@dataclass(frozen=True)
class SparsityReport:
    """Outcome of the (2,3) pebble game on one graph."""

    verdict: str
    joint_count: int
    bar_count: int
    free_pebbles: int
    witness_joint_ids: tuple[int, ...] = ()
    witness_bar_ids: tuple[int, ...] = ()
    witness_joint_total: int = 0
    witness_bar_total: int = 0

    def __post_init__(self) -> None:
        if self.verdict == "dependent":
            js, bs = self.witness_joint_total, self.witness_bar_total
            if bs <= 2 * js - 3:
                raise AssertionError(
                    f"witness with {bs} bars on {js} joints does not "
                    "violate the subset count"
                )
        elif self.witness_bar_ids or self.witness_joint_ids:
            raise AssertionError("witness present on a non-dependent verdict")


def pebble_game_2_3(
    g: Graph,
    on_move: Callable[[PebbleState], None] | None = None,
) -> SparsityReport:
    """Decide (2,3)-tightness by the pebble game.

    Bars are offered in id order; a bar is placed when 4 pebbles can be
    gathered on its endpoints.  The first rejected bar stops the game
    and its reachability region becomes the dependence witness.
    on_move, when given, is called after every placed bar (and once at
    the start) so tests can audit the invariant.

    First the joints of at most 2 bars are peeled, repeatedly
    (`peel_low_degree`, kept by the graph as `Graph.peel`).  Every
    (2,3)-circuit has minimum degree 3, so a bar that leaves with a
    peeled joint lies in no circuit and is never rejected: it is counted
    as placed at once and paid from the own 2 pebbles of its owner, the
    joint the peel's owner array names for it (-1 for a core bar).
    No core joint would get an edge directed into a peeled one, so no
    search from the core could walk such a bar, and it enters no
    out-list; only the core's bars gather pebbles.  The report is the
    plain game's: at the first rejected bar k, bars 0..k-1 are placed,
    and the witness is the smallest joint set that holds both ends of k
    and spans 2|S| - 3 of them, which those bars alone decide.

    When every bar has an owner and no on_move is given, every bar
    is placed so, and the report is closed-form: 2j - b free pebbles,
    tight exactly when that is 3; no state is built and no bar played.
    """
    j = g.joint_count
    if j < 2:
        raise ValueError(f"the pebble game needs at least 2 joints, got {j}")
    owner = g.peel(2)[1]  # before the lists of ends: one copy at a time
    if on_move is None and (owner >= 0).all():
        free = 2 * j - g.bar_count
        verdict = "tight" if free == 3 else "independent-but-underbraced"
        return SparsityReport(verdict, j, g.bar_count, free)
    us, vs = g.ends.T.tolist()
    tails = owner.tolist()  # the peeled joint that pays for each bar, -1 in the core
    state = PebbleState(j)
    if on_move is not None:
        on_move(state)
    for bar_id, (u, v, tail) in enumerate(zip(us, vs, tails)):
        if tail >= 0:
            state.pebbles[tail] -= 1
            state.placed += 1
        elif state.gather(u, v):
            state.place(u, v)
        else:
            region = state.failure_region(u, v)
            js = len(region)
            # every offered bar so far was placed, so the induced bars
            # are exactly the placed ones inside the region, plus the
            # rejected bar itself
            witness_bars = [k for k in range(bar_id + 1) if us[k] in region and vs[k] in region]
            bs = len(witness_bars)
            return SparsityReport(
                verdict="dependent",
                joint_count=j,
                bar_count=len(us),
                free_pebbles=sum(state.pebbles),
                witness_joint_ids=tuple(sorted(region)),
                witness_bar_ids=tuple(witness_bars),
                witness_joint_total=js,
                witness_bar_total=bs,
            )
        if on_move is not None:
            on_move(state)
    free = sum(state.pebbles)
    verdict = "tight" if free == 3 else "independent-but-underbraced"
    return SparsityReport(verdict, j, len(us), free)


@dataclass(frozen=True)
class SymmetricLamanReport:
    """Sufficiency verdict for a symmetric 2D framework.

    passed means: the graph is (2,3)-tight and the fixed-component
    counts of the detected group hold.  For C1, Cs, C2 and C3 that is a
    proved characterization of isostaticity at configurations generic
    subject to the symmetry; for C2v and C3v it is conjectured.  The
    epistemic tag is part of the schema so the distinction survives
    serialization.
    """

    group: PointGroupInfo = field(repr=False, compare=False)
    schoenflies: str = ""
    pebble: SparsityReport | None = None
    count_checks: tuple[ConditionCheck, ...] = ()
    passed: bool = False
    epistemic: str = ""
    notes: tuple[str, ...] = ()


def symmetric_laman(
    f: Framework, necessary: ConditionReport
) -> SymmetricLamanReport:
    """Combinatorial sufficiency check for symmetric 2D frameworks.

    necessary is isostatic_necessary's report on f; its group and
    count checks are reused, not recomputed.
    """
    if f.dimension != 2:
        raise ValueError("the symmetric sufficiency check is 2D only")
    group = necessary.group
    label = group.schoenflies
    if label not in WHITELIST_2D:
        raise GroupOutsideWhitelist(
            f"no 2D isostatic framework has group {label}; the admissible "
            "groups are " + ", ".join(sorted(WHITELIST_2D))
        )
    pebble = pebble_game_2_3(f)
    passed = pebble.verdict == "tight" and necessary.passed
    epistemic = "theorem-backed" if label in _THEOREM_GROUPS else "conjectural"
    notes = [
        "sufficiency assumes coordinates generic subject to the symmetry; "
        "special positions can still introduce extra mechanisms"
    ]
    if epistemic == "conjectural":
        notes.append(
            f"for {label} the sufficiency of these conditions is "
            "conjectured, not proved; a pass is not an unqualified "
            "isostaticity claim"
        )
    if pebble.verdict != "tight":
        notes.append(f"the underlying graph is {pebble.verdict}, not tight")
    for check in necessary.checks:
        if not check.passed:
            notes.append(
                f"count condition failed for class {check.class_label}: "
                f"{check.equation} (lhs {check.lhs}, rhs {check.rhs})"
            )
    return SymmetricLamanReport(
        group=group,
        schoenflies=label,
        pebble=pebble,
        count_checks=necessary.checks,
        passed=passed,
        epistemic=epistemic,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class CountViolation:
    """A connected induced subgraph with more bars than its count allows."""

    joint_ids: tuple[int, ...]
    bar_ids: tuple[int, ...]
    joint_total: int
    bar_total: int
    slack: int

    def __post_init__(self) -> None:
        if self.slack >= 0:
            raise AssertionError("a violation must have negative slack")


def subgraph_maxwell_scan_3d(
    f: Framework, max_subgraph_joints: int = 8
) -> list[CountViolation]:
    """Scan small connected induced subgraphs for 3j' - b' - 6 < 0.

    Each hit certifies a state of self-stress.  An empty result proves
    nothing: the scan is a necessary screen, bounded by the cap, and 3D
    has no subset count characterizing isostaticity.  Sets of joints are int
    bitmasks, so a visited subgraph costs a few integer operations: its
    bar count is its parent's plus the popcount of the new joint's
    adjacency inside the parent, and bar ids are listed only for hits.
    """
    cap = _checked_cap(f, max_subgraph_joints)
    n = f.joint_count
    ends = f.ends.tolist()
    adj = [0] * n
    for u, v in ends:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    violations: list[CountViolation] = []
    visited_budget = _SCAN_BUDGET - n  # every visit counts, singletons too

    # visit each connected induced subgraph once: grow only with joints
    # above the anchor, never retry a candidate an earlier branch declined;
    # a call visits the children subset + {w}, w in ext, each before its subtree
    def extend(subset: int, bs: int, boundary: int, ext: list[int], above: int) -> None:
        nonlocal visited_budget
        visited_budget -= len(ext)
        if visited_budget < 0:
            raise CapExceeded(
                f"more than {_SCAN_BUDGET} connected subgraphs within "
                f"cap {cap}; the framework is too large for an "
                "exhaustive scan"
            )
        js = subset.bit_count() + 1  # joints in each child
        limit = 3 * js - 6  # bars a child may carry
        closed = subset | boundary
        for i, w in enumerate(ext):
            aw = adj[w]
            child_bs = bs + (aw & subset).bit_count()
            if child_bs > limit and js >= 3:
                child = subset | 1 << w
                violations.append(
                    CountViolation(
                        joint_ids=tuple(_bits(child)),
                        bar_ids=tuple(
                            k
                            for k, (u, v) in enumerate(ends)
                            if child >> u & child >> v & 1
                        ),
                        joint_total=js,
                        bar_total=child_bs,
                        slack=limit - child_bs,
                    )
                )
            if js < cap:
                grown = ext[i + 1 :] + _bits(aw & above & ~closed)
                extend(subset | 1 << w, child_bs, boundary | aw, grown, above)

    for v0 in range(n):
        above = -1 << (v0 + 1)
        extend(1 << v0, 0, adj[v0], _bits(adj[v0] & above), above)

    violations.sort(key=lambda c: (c.joint_total, c.joint_ids))
    return violations


def _checked_cap(f: Framework, max_subgraph_joints: int) -> int:
    if f.dimension != 3:
        raise ValueError("the subgraph count scan applies to 3D frameworks")
    cap = int(max_subgraph_joints)
    if cap < 3:
        raise ValueError(f"cap {cap} is below the smallest meaningful subgraph")
    if cap > SCAN_MAX_CAP:
        raise CapExceeded(
            f"cap {cap} exceeds the exhaustive enumeration bound "
            f"{SCAN_MAX_CAP}"
        )
    return cap


def count_screen_3d(f: Framework, cap: int) -> list[CountViolation]:
    """The 3D count screen up to cap joints, scanning only when it must.

    When b <= 3j - 6 and the bars are independent at generic real
    points (`_core_is_independent`, else `generic_rank`), every joint
    set S with |S| >= 3 spans at most 3|S| - 6 bars: the result is [],
    exactly what a completed scan returns.  On every 3D gallery shape but
    the double banana no core is left to rank.  Otherwise the result is
    subgraph_maxwell_scan_3d(f, cap), CapExceeded included; the
    certificates decide only whether the scan runs.
    """
    cap = _checked_cap(f, cap)
    b = f.bar_count
    if b <= 3 * f.joint_count - 6 and (_core_is_independent(f) or generic_rank(f, 3) == b):
        return []
    return subgraph_maxwell_scan_3d(f, cap)


def _core_is_independent(g: Graph) -> bool:
    """Whether g's bars are surely independent in 3D.  A joint of at most
    3 bars goes (a vertex addition undone); one of 4 goes, and the missing
    bar of least degree sum, ties by ids, between two of its neighbours
    comes in (an edge split undone), unless they form a K4.  When neither
    applies, the bar of least degree sum, ties by ids, whose ends share
    exactly two neighbours is contracted into its lower end (a vertex split
    undone).  Run forwards all three keep bars generically independent (Tay
    & Whiteley 1985; Whiteley 1990), so only the core left is ranked, with
    no Graph built for generic_rank.  A heap keeps the contractible bars.
    """
    order, owner = g.peel(3)  # the vertex additions undone first, kept by g
    nbrs = {v: set() for v in np.delete(np.arange(g.joint_count), order).tolist()}
    for u, v in g.ends[owner < 0].tolist():
        nbrs[u].add(v)
        nbrs[v].add(u)
    todo, changed, splits = list(nbrs), set(nbrs), []
    while nbrs and (todo or changed):
        if not todo:  # no Henneberg move applies: undo a vertex split, if any
            for u in changed & nbrs.keys():
                for w in nbrs[u]:  # a bar between two changed joints once
                    if (u < w or w not in changed) and len(nbrs[u] & nbrs[w]) == 2:
                        heapq.heappush(splits, (len(nbrs[u]) + len(nbrs[w]), min(u, w), max(u, w)))
            changed.clear()
            while splits:  # an entry is stale once its bar or a degree changed
                n, u, w = heapq.heappop(splits)
                if w in nbrs.get(u, ()) and n == len(nbrs[u]) + len(nbrs[w]):
                    if len(nbrs[u] & nbrs[w]) == 2:
                        nbrs[u] = (nbrs[u] | nbrs.pop(w)) - {u, w}
                        for x in nbrs[u]:
                            nbrs[x] = nbrs[x] - {w} | {u}
                        changed |= nbrs[u] | {u}
                        todo += [x for x in sorted(changed) if len(nbrs[x]) <= 4]
                        break
            continue
        around = nbrs.get(v := todo.pop())
        if around is None or len(around) > 4:
            continue
        if len(around) == 4:
            gaps = [(a, c) for a in around for c in around if a < c and c not in nbrs[a]]
            if not gaps:
                continue
            _, a, c = min((len(nbrs[a]) + len(nbrs[c]), a, c) for a, c in gaps)
            nbrs[a].add(c)
            nbrs[c].add(a)
        del nbrs[v]
        changed |= around
        for w in around:
            nbrs[w].discard(v)
            if len(nbrs[w]) <= 4:
                todo.append(w)
    ids = {v: i for i, v in enumerate(nbrs)}  # ascending: nbrs keeps its insertion order
    ends = np.array([(ids[u], ids[w]) for u in ids for w in nbrs[u] if w > u], dtype=np.int64)
    core = SimpleNamespace(joint_count=len(ids), bar_count=len(ends), ends=ends.reshape(-1, 2))
    return generic_rank(core, 3) == core.bar_count


def generic_rank(g: Graph, d: int) -> int:
    """Rank of g's rigidity matrix in dimension d, exactly, over GF(p).

    The joints sit at seeded random points of GF(p)^d, p = 2^31 - 1,
    and the integer rigidity matrix is row-reduced in numpy int64.
    Every product of two residues is below 2^62, so nothing overflows
    and no float is involved.  A nonzero minor mod p is a nonzero
    integer, so the result never exceeds the generic rank over the
    reals; it falls below it only when the points are unlucky, with
    probability at most b/p (Schwartz-Zippel on a b x b minor).
    """
    j, b = g.joint_count, g.bar_count
    if b == 0:
        return 0
    points = np.random.default_rng(_RANK_SEED).integers(0, _PRIME, size=(j, d))
    u, v = g.ends.T
    diff = (points[u] - points[v]) % _PRIME
    rows = np.arange(b)
    m = np.zeros((b, j, d), dtype=np.int64)
    m[rows, u] = diff
    m[rows, v] = (_PRIME - diff) % _PRIME
    return _rank_mod_p(m.reshape(b, j * d))


def _rank_mod_p(m: np.ndarray) -> int:
    """Rank of an int64 matrix of residues mod _PRIME; m is overwritten.
    Each pivot row clears its column from the others, then is zeroed."""
    rank = 0
    for c in range(m.shape[1]):
        live = np.flatnonzero(m[:, c])
        if live.size == 0:
            continue
        pivot, below = live[0], live[1:]
        if below.size:
            factor = m[below, c] * pow(int(m[pivot, c]), -1, _PRIME) % _PRIME
            m[below, c:] = (m[below, c:] - factor[:, None] * m[pivot, c:]) % _PRIME
        m[pivot] = 0
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def _bits(mask: int) -> list[int]:
    """The set bits of a non-negative int, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
