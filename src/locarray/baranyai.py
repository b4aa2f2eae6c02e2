"""Step-by-step realization of admissible types as disjoint partial spread systems.

Elements 1..n are assigned one at a time, and only the requested groups are
kept. After placing the first tau elements, the state invariant is that no
pair (S, m) of a current block S and a target size m occurs more than
C(n - tau, m - |S|) times, and no block holds an element above tau; the gap to
the bound is the padding that would complete the powerset, never built. Each
step is then a bounded assignment problem: the fractional solution routes
(m - |S|) / (n - tau) of every incomplete block toward its cell (the blocks
with the same content and target), each cell total must stay within the
bounds that keep the invariant, and an integral rounding within one unit per
aggregated arc exists because the constraint matrix is a network matrix. It is
found by flooring and routing the leftovers along augmenting paths: to cells
below their lower bound first, then to any option below its upper bound.

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
from .spread_types import VType, make_full

__all__ = [
    "DEFAULT_MAX_N",
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

Block = tuple[int, ...]


class CapExceededError(RuntimeError):
    """Ground set too large for the configured cap."""


class StepInfeasibleError(RuntimeError):
    """The per-step assignment has no solution; indicates a corrupted state."""


@dataclass(frozen=True)
class Group:
    """One requested partial spread: current blocks and their target sizes."""

    blocks: tuple[Block, ...]
    targets: tuple[int, ...]


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
    expected: int | None = None  # the most occurrences the invariant allows

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Cell:
    """Blocks with the same content and target; low to high of them get the next element."""

    block: Block
    target: int
    low: int
    high: int


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
    tau: int
    den: int  # n - tau, the common denominator of all fractional arc values
    cells: tuple[Cell, ...]
    classes: tuple[ClassNode, ...]


def init_realization(t: VType) -> RealizationState:
    """Start a realization of t, one group of empty blocks per shape.

    make_full is the admissibility gate; the padding that would complete the
    powerset stays implicit as the slack of the counting invariant.
    """
    groups: list[Group] = []
    for shape, count in make_full(t).items():
        targets = shape.entries
        empty = ((),) * len(targets)
        groups.extend(Group(empty, targets) for _ in range(count))
    return RealizationState(t.n, 0, tuple(groups))


def check_realization(state: RealizationState) -> RealizationCheck:
    """Verify the counting invariant of a partial realization.

    Every (block, target) pair may occur at most C(n - tau, target - |block|)
    times, and at most zero times if the block holds an element outside 1..tau.
    """
    n, tau = state.n, state.tau
    counts: dict[tuple[Block, int], int] = {}
    for g in state.groups:
        for blk, m in zip(g.blocks, g.targets):
            counts[(blk, m)] = counts.get((blk, m), 0) + 1
    for (blk, m), observed in sorted(counts.items()):
        placed = all(1 <= e <= tau for e in blk)
        expected = binomial(n - tau, m - len(blk)) if placed else 0
        if observed > expected:
            return RealizationCheck(False, blk, m, observed, expected)
    return RealizationCheck(True)


def build_step_network(state: RealizationState) -> StepNetwork:
    """Set up the bounded assignment that places element tau + 1.

    A cell holding c blocks that still need `need` elements keeps the
    invariant when between c - C(den - 1, need) and C(den - 1, need - 1) of
    them receive the element.
    """
    n, tau = state.n, state.tau
    if tau >= n:
        raise ValueError("realization is already complete")
    den = n - tau

    open_counts: dict[tuple[Block, int], int] = {}
    for g in state.groups:
        for blk, m in zip(g.blocks, g.targets):
            if m > len(blk):
                open_counts[(blk, m)] = open_counts.get((blk, m), 0) + 1
    cells: list[Cell] = []
    cell_index: dict[tuple[Block, int], int] = {}
    for (blk, m), count in sorted(open_counts.items()):
        need = m - len(blk)
        low = count - binomial(den - 1, need)
        high = binomial(den - 1, need - 1)
        if low > high:
            raise ValueError("not a realization state: a cell holds more blocks than it may")
        cell_index[(blk, m)] = len(cells)
        cells.append(Cell(blk, m, low, high))

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
    return StepNetwork(tau, den, tuple(cells), tuple(classes))


def integral_step_assignment(net: StepNetwork) -> tuple[int | None, ...]:
    """Pick, for every group, the block that receives the next element (None = skip).

    Floors the fractional flow on every aggregated arc, then routes the
    leftover units along augmenting paths over the arcs that carry a
    fractional part: first to cells below their lower bound, then to any
    option below its upper bound (skipping has none). The result keeps every
    cell within its bounds and stays within one unit of the fractional flow
    on each aggregated arc.
    """
    den = net.den
    ncells = len(net.cells)
    skip = ncells  # option index for skipping
    nclasses = len(net.classes)

    base: list[dict[int, int]] = []
    frac_opts: list[list[int]] = []
    rem_supply: list[int] = []
    tally = [0] * (ncells + 1)  # units each option receives so far

    for cls in net.classes:
        z: dict[int, int] = {}
        opts: list[int] = []
        for opt, num in [(ci, num) for ci, num, _pos in cls.arcs] + [(skip, cls.skip_numerator)]:
            q, r = divmod(num, den)
            if q:
                z[opt] = q
                tally[opt] += q
            if r:
                opts.append(opt)
        base.append(z)
        frac_opts.append(opts)
        rem_supply.append(len(cls.members) - sum(z.values()))

    low = [c.low for c in net.cells] + [0]
    high = [c.high for c in net.cells] + [sum(len(cls.members) for cls in net.classes)]
    if any(t > h for t, h in zip(tally, high)) or min(rem_supply, default=0) < 0:
        raise StepInfeasibleError("floor assignment oversubscribed a node")

    # one extra unit may ride on each fractional arc
    extra: list[set[int]] = [set() for _ in range(nclasses)]
    holders: list[list[int]] = [[] for _ in range(ncells + 1)]

    # Phase 1 meets the lower bounds. When a search fails, no class it saw can
    # reach a cell below its lower bound, now or after later augmentations, so
    # all of them drop out. Phase 2 places the rest under the upper bounds.
    for cap, phase_one in ((low, True), (high, False)):
        dead = [False] * nclasses
        for start in range(nclasses):
            while rem_supply[start] > 0 and not dead[start]:
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
                        if tally[opt] < cap[opt]:
                            goal = opt
                            break
                        for other in holders[opt]:
                            if other not in seen_cls and not dead[other]:
                                seen_cls.add(other)
                                parent_cls[other] = opt
                                queue.append(other)
                if goal < 0:
                    if not phase_one:
                        raise StepInfeasibleError("no augmenting path; corrupted state")
                    for ci in seen_cls:
                        dead[ci] = True
                    continue
                tally[goal] += 1
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

    if any(t < lo for t, lo in zip(tally, low)):
        raise StepInfeasibleError("a cell stays below its lower bound after assignment")

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
        new_groups[gi] = Group(tuple(blocks), g.targets)
    return RealizationState(state.n, state.tau + 1, tuple(new_groups))


@dataclass(frozen=True)
class Spread:
    blocks: tuple[Block, ...]
    tag: str  # "requested", or "fill" for a padding singleton


@dataclass(frozen=True)
class SpreadSystem:
    n: int
    spreads: tuple[Spread, ...]


def realize(t: VType, include_fill: bool = False,
            max_n: int = DEFAULT_MAX_N) -> SpreadSystem:
    """Build a disjoint partial spread system of the given admissible type.

    The cap on n is checked first, then admissibility (InadmissibleTypeError).
    Each requested shape becomes one spread whose block sizes match the shape
    exactly, and no block (as a set) occurs twice anywhere in the system.
    Pass include_fill=True to also return one singleton padding spread for
    every subset no requested block uses, by size and then lexicographically,
    so that the blocks form the powerset. Identical inputs produce identical
    systems.
    """
    n = t.n
    if n > max_n:
        raise CapExceededError(f"ground set size {n} exceeds the realization cap ({max_n})")
    state = init_realization(t)
    for _ in range(n):
        state = advance(state)
    spreads = []
    for g in state.groups:
        for blk, m in zip(g.blocks, g.targets):
            if len(blk) != m:
                raise StepInfeasibleError("internal: a block missed its target size")
        spreads.append(Spread(g.blocks, "requested"))
    if include_fill:
        used = {blk for sp in spreads for blk in sp.blocks}
        for size in range(n + 1):
            for blk in combinations(range(1, n + 1), size):
                if blk not in used:
                    spreads.append(Spread((blk,), "fill"))
    return SpreadSystem(n, tuple(spreads))
