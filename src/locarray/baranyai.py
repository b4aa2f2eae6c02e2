"""Step-by-step realization of admissible types as disjoint partial spread systems.

Elements 1..n are assigned one at a time. After placing the first tau
elements, the state invariant is that every pair (S, m) of a current block S
and a target size m occurs exactly C(n - tau, m - |S|) times across all
groups. Each step then reduces to an exact-demand assignment problem: the
fractional solution routes (m - |S|) / (n - tau) of every incomplete block
toward its cell (the equivalence class of blocks with the same content and
target), and an integral rounding within one unit per aggregated arc always
exists because the constraint matrix is a network matrix. The rounding is
found by flooring and routing the leftovers along augmenting paths.

Determinism contract: elements are placed in increasing order; group classes
are processed in lexicographic order of their encoded state; within a class,
cells are served in index order with skips last and member groups in index
order; the augmenting search scans classes and cells in that same order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .combinatorics import binomial
from .spread_types import FullType, VType, make_full

__all__ = [
    "DEFAULT_MAX_N",
    "FILL",
    "REQUESTED",
    "CapExceededError",
    "Cell",
    "ClassNode",
    "Group",
    "RealizationCheck",
    "RealizationState",
    "Spread",
    "SpreadSystem",
    "StepInfeasibleError",
    "StepNetwork",
    "advance",
    "build_step_network",
    "check_realization",
    "init_realization",
    "integral_step_assignment",
    "realize",
]

DEFAULT_MAX_N = 16

REQUESTED = "requested"
FILL = "fill"

Block = tuple[int, ...]


class CapExceededError(RuntimeError):
    """Ground set too large for the configured cap."""


class StepInfeasibleError(RuntimeError):
    """The per-step assignment has no solution; indicates a corrupted state."""


@dataclass(frozen=True)
class Group:
    """One future partial spread: current blocks and their target sizes."""

    blocks: tuple[Block, ...]
    targets: tuple[int, ...]
    tag: str


@dataclass(frozen=True)
class RealizationState:
    n: int
    tau: int
    groups: tuple[Group, ...]


@dataclass(frozen=True)
class RealizationCheck:
    """Counting-invariant verdict; falsy with the first offending (block, target)."""

    ok: bool
    block: Block | None = None
    target: int | None = None
    observed: int | None = None
    expected: int | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Cell:
    """All blocks with the same content and target size form one demand node."""

    block: Block
    target: int
    demand: int


@dataclass(frozen=True)
class ClassNode:
    """Groups with identical (block, target) multisets, merged for the step solve.

    arcs holds (cell index, numerator, block position); the fractional flow on
    an arc is numerator / denominator.
    """

    members: tuple[int, ...]
    arcs: tuple[tuple[int, int, int], ...]
    skip_numerator: int


@dataclass(frozen=True)
class StepNetwork:
    n: int
    tau: int
    den: int  # n - tau, the common denominator of all fractional arc values
    chi: int  # number of groups that must skip this element
    cells: tuple[Cell, ...]
    classes: tuple[ClassNode, ...]


def init_realization(full_type: FullType | VType) -> RealizationState:
    """Start a realization with every block empty.

    The input must be full: exactly C(n, x) slots of every size x. Plain
    admissible types go through make_full (or realize) first. A bare VType is
    accepted and treated as all-requested.
    """
    if isinstance(full_type, VType):
        full_type = FullType(full_type.n, full_type, {})
    n = full_type.n
    for x in range(n + 1):
        have = full_type.sigma(x)
        want = binomial(n, x)
        if have != want:
            raise ValueError(f"type is not full: {have} slots of size {x}, need {want}")
    groups: list[Group] = []
    for shape, count in full_type.requested.items():
        targets = shape.entries
        empty = ((),) * len(targets)
        for _ in range(count):
            groups.append(Group(empty, targets, REQUESTED))
    for shape, count in sorted(full_type.fill.items()):
        targets = shape.entries
        empty = ((),) * len(targets)
        for _ in range(count):
            groups.append(Group(empty, targets, FILL))
    total = sum(sum(g.targets) for g in groups)
    if total != n * (1 << (n - 1)):
        raise RuntimeError("internal: slot total of a full type is off")
    return RealizationState(n, 0, tuple(groups))


def check_realization(state: RealizationState) -> RealizationCheck:
    """Verify the counting invariant of a partial realization.

    Every realized (block, target) pair must occur exactly
    C(n - tau, target - |block|) times, and every pair with a positive
    expected count must be realized.
    """
    n, tau = state.n, state.tau
    counts: dict[tuple[Block, int], int] = {}
    for g in state.groups:
        for blk, m in zip(g.blocks, g.targets):
            counts[(blk, m)] = counts.get((blk, m), 0) + 1
    for (blk, m), observed in sorted(counts.items()):
        expected = binomial(n - tau, m - len(blk))
        if observed != expected:
            return RealizationCheck(False, blk, m, observed, expected)
    if sum(counts.values()) != 1 << n:
        # all realized pairs match, so some expected pair is missing entirely
        for size in range(tau + 1):
            for subset in combinations(range(1, tau + 1), size):
                for m in range(size, n + 1):
                    expected = binomial(n - tau, m - size)
                    if expected and (subset, m) not in counts:
                        return RealizationCheck(False, subset, m, 0, expected)
    return RealizationCheck(True)


def build_step_network(state: RealizationState) -> StepNetwork:
    """Set up the exact-demand assignment that places element tau + 1."""
    n, tau = state.n, state.tau
    if tau >= n:
        raise ValueError("realization is already complete")
    den = n - tau
    k = len(state.groups)
    chi = k - (1 << (n - 1))
    if chi < 0:
        raise ValueError("not a realization state: too few groups for a full type")

    open_pairs: set[tuple[Block, int]] = set()
    for g in state.groups:
        for blk, m in zip(g.blocks, g.targets):
            if m > len(blk):
                open_pairs.add((blk, m))
    cells: list[Cell] = []
    cell_index: dict[tuple[Block, int], int] = {}
    for blk, m in sorted(open_pairs):
        cell_index[(blk, m)] = len(cells)
        cells.append(Cell(blk, m, binomial(den - 1, m - 1 - len(blk))))
    if sum(c.demand for c in cells) + chi != k:
        raise ValueError("not a realization state: cell demands do not balance")

    by_key: dict[tuple, list[int]] = {}
    for gi, g in enumerate(state.groups):
        key = tuple(sorted(zip(g.blocks, g.targets)))
        by_key.setdefault(key, []).append(gi)

    classes: list[ClassNode] = []
    for key in sorted(by_key):
        members = tuple(by_key[key])
        g = state.groups[members[0]]
        per_cell: dict[int, tuple[int, int]] = {}  # cell -> (weight, first block pos)
        for pos, (blk, m) in enumerate(zip(g.blocks, g.targets)):
            if m > len(blk):
                ci = cell_index[(blk, m)]
                weight, first = per_cell.get(ci, (0, pos))
                per_cell[ci] = (weight + 1, first)
        arcs = []
        used = 0
        nmem = len(members)
        for ci in sorted(per_cell):
            weight, first = per_cell[ci]
            num = nmem * weight * (cells[ci].target - len(cells[ci].block))
            arcs.append((ci, num, first))
            used += num
        skip_num = nmem * den - used
        if skip_num < 0:
            raise ValueError("not a realization state: open slots exceed remaining elements")
        classes.append(ClassNode(members, tuple(arcs), skip_num))
    return StepNetwork(n, tau, den, chi, tuple(cells), tuple(classes))


def integral_step_assignment(net: StepNetwork) -> tuple[int | None, ...]:
    """Pick, for every group, the block that receives the next element (None = skip).

    Floors the fractional flow on every aggregated arc, then routes the
    leftover units along augmenting paths over the arcs that carry a
    fractional part. The result meets every cell demand exactly, sends chi
    groups to the skip option, and stays within one unit of the fractional
    flow on each aggregated arc.
    """
    den = net.den
    ncells = len(net.cells)
    skip = ncells  # option index for skipping
    nclasses = len(net.classes)

    base: list[dict[int, int]] = []
    frac_opts: list[list[int]] = []
    rem_supply = [0] * nclasses
    rem_demand = [c.demand for c in net.cells] + [net.chi]

    for cls in net.classes:
        z: dict[int, int] = {}
        opts: list[int] = []
        assigned = 0
        for cell_i, num, _pos in cls.arcs:
            q, r = divmod(num, den)
            if q:
                z[cell_i] = q
                rem_demand[cell_i] -= q
                assigned += q
            if r:
                opts.append(cell_i)
        q, r = divmod(cls.skip_numerator, den)
        if q:
            z[skip] = q
            rem_demand[skip] -= q
            assigned += q
        if r:
            opts.append(skip)
        base.append(z)
        frac_opts.append(opts)
        rem_supply[len(base) - 1] = len(cls.members) - assigned

    if min(rem_demand, default=0) < 0 or min(rem_supply, default=0) < 0:
        raise StepInfeasibleError("floor assignment oversubscribed a node")

    # one extra unit may ride on each fractional arc
    extra: list[set[int]] = [set() for _ in range(nclasses)]
    holders: list[list[int]] = [[] for _ in range(ncells + 1)]

    for start in range(nclasses):
        while rem_supply[start] > 0:
            parent_opt: dict[int, int] = {}
            parent_cls: dict[int, int] = {}
            queue = deque([start])
            seen_cls = {start}
            goal = -1
            while queue and goal < 0:
                ci = queue.popleft()
                for opt in frac_opts[ci]:
                    if opt in parent_opt or opt in extra[ci]:
                        continue
                    parent_opt[opt] = ci
                    if rem_demand[opt] > 0:
                        goal = opt
                        break
                    for other in holders[opt]:
                        if other not in seen_cls:
                            seen_cls.add(other)
                            parent_cls[other] = opt
                            queue.append(other)
            if goal < 0:
                raise StepInfeasibleError("no augmenting path; state is not a valid realization")
            rem_demand[goal] -= 1
            rem_supply[start] -= 1
            opt = goal
            while True:
                ci = parent_opt[opt]
                extra[ci].add(opt)
                holders[opt].append(ci)
                if ci == start:
                    break
                prev = parent_cls[ci]
                extra[ci].remove(prev)
                holders[prev].remove(ci)
                opt = prev

    if any(rem_demand):
        raise StepInfeasibleError("unmet demand after assignment")

    choices: dict[int, int | None] = {}
    for ci, cls in enumerate(net.classes):
        counts = dict(base[ci])
        for opt in sorted(extra[ci]):
            counts[opt] = counts.get(opt, 0) + 1
        pos_of = {cell_i: pos for cell_i, _num, pos in cls.arcs}
        idx = 0
        for opt in sorted(counts):
            pos = None if opt == skip else pos_of[opt]
            for _ in range(counts[opt]):
                choices[cls.members[idx]] = pos
                idx += 1
        if idx != len(cls.members):
            raise StepInfeasibleError("class assignment does not cover its groups")
    return tuple(choices[i] for i in range(len(choices)))


def advance(state: RealizationState) -> RealizationState:
    """Place element tau + 1 and return the next state."""
    net = build_step_network(state)
    choice = integral_step_assignment(net)
    elem = state.tau + 1
    new_groups = list(state.groups)
    for gi, pos in enumerate(choice):
        if pos is None:
            continue
        g = new_groups[gi]
        blocks = list(g.blocks)
        blocks[pos] = blocks[pos] + (elem,)  # elem exceeds everything placed so far
        new_groups[gi] = Group(tuple(blocks), g.targets, g.tag)
    return RealizationState(state.n, state.tau + 1, tuple(new_groups))


@dataclass(frozen=True)
class Spread:
    blocks: tuple[Block, ...]
    tag: str


@dataclass(frozen=True)
class SpreadSystem:
    n: int
    spreads: tuple[Spread, ...]


def realize(
    t: VType | FullType,
    include_fill: bool = False,
    max_n: int = DEFAULT_MAX_N,
) -> SpreadSystem:
    """Build a disjoint partial spread system of the given admissible type.

    Each requested shape becomes one spread whose block sizes match the shape
    exactly, and no block (as a set) occurs twice anywhere in the system.
    Pass include_fill=True to also return the padding spreads that complete
    the powerset. Identical inputs produce identical systems.
    """
    n = t.n
    if n > max_n:
        raise CapExceededError(f"ground set size {n} exceeds the realization cap ({max_n})")
    full = t if isinstance(t, FullType) else make_full(t)
    state = init_realization(full)
    for _ in range(n):
        state = advance(state)
    spreads = []
    for g in state.groups:
        if g.tag != REQUESTED and not include_fill:
            continue
        for blk, m in zip(g.blocks, g.targets):
            if len(blk) != m:
                raise StepInfeasibleError("internal: a block missed its target size")
        spreads.append(Spread(g.blocks, g.tag))
    return SpreadSystem(n, tuple(spreads))
