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
below their lower bound first, then to any cell below its upper bound. The
last step is forced (den = 1: each open block takes n); its network is built
for the bound checks only, and n joins the blocks in the final decode walk.

The state holds one run of consecutive, identical groups per class of groups
with the same slot multiset, and runs only split: each group gets the element
in exactly one block, so different multisets stay different, and a class
serves its members in index order, so those taking one cell stay a run.

Determinism contract: elements are placed in increasing order; classes are
processed in order of their sorted slots; within a class, cells are served in
index order and member groups in index order. A leftover unit's breadth-first
search scans its own class's cells in that order, then full cells in
discovery order and each cell's holders in the order they took it; this
reaches classes in the order of a search that queues classes, and finds the
same paths.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import NamedTuple

from .combinatorics import binomial
from .spread_types import VType, make_full

__all__ = [
    "DEFAULT_MAX_N",
    "CapExceededError",
    "SpreadSystem",
    "StepInfeasibleError",
    "advance",
    "check_realization",
    "decode_slot",
    "init_realization",
    "realize",
]

DEFAULT_MAX_N = 16

Block = tuple[int, ...]


class CapExceededError(RuntimeError):
    """Ground set too large for the configured cap."""


class StepInfeasibleError(RuntimeError):
    """The per-step assignment has no solution; indicates a corrupted state."""


def encode_slot(n: int, block: Block, target: int) -> int:
    """One block and its target size as a single int: a slot of the realization state.

    In base n + 1: the block's elements, most significant first and padded with
    zeros to n digits, then its size, then the target. Integer order on slots
    is (block, target) order, and an empty block's slot is its target.
    """
    base = n + 1
    digits = sum(e * base ** (n - 1 - i) for i, e in enumerate(block))
    return (digits * base + len(block)) * base + target


def decode_slot(n: int, slot: int) -> tuple[Block, int]:
    """The (block, target) pair a slot encodes."""
    base = n + 1
    rest, target = divmod(slot, base)
    digits, size = divmod(rest, base)
    digits //= base ** (n - size)
    block = [0] * size
    for i in reversed(range(size)):
        digits, block[i] = divmod(digits, base)
    return tuple(block), target


def slot_increments(n: int) -> tuple[tuple[int, ...], ...]:
    """inc[e][s]: what placing element e into a block of size s adds to its slot."""
    base = n + 1
    return tuple(tuple(e * base ** (n + 1 - s) + base for s in range(n)) for e in range(n + 1))


class RealizationState(NamedTuple):
    """After placing elements 1..tau: runs (slots, first, count), ordered by sorted slots.

    Groups first to first + count - 1 each hold slots: one int per block, in shape order."""

    n: int
    tau: int
    runs: tuple[tuple[tuple[int, ...], int, int], ...]

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Per group, in index order, its slots: a view the engine never reads.

        The benchmark's tracer reads it, so deleting it waits on a change to the benchmark."""
        return tuple(slots for slots, _first, count in sorted(self.runs, key=lambda run: run[1])
                     for _ in range(count))


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


class Cell(NamedTuple):
    """Blocks with the same slot; low to high of them get the next element."""

    slot: int
    low: int
    high: int


class ClassNode(NamedTuple):
    """Groups with identical slot multisets, merged for the step solve: one run.

    arcs holds (cell index, numerator, block position) in cell order; the
    fractional flow on an arc is numerator / denominator. skip_numerator is
    always 0; it stays because the benchmark's tracer reads it.
    """

    members: range
    arcs: tuple[tuple[int, int, int], ...]
    skip_numerator: int


class StepNetwork(NamedTuple):
    tau: int
    den: int  # n - tau, the common denominator of all fractional arc values
    cells: tuple[Cell, ...]
    classes: tuple[ClassNode, ...]


def init_realization(t: VType) -> RealizationState:
    """Start a realization of t, one group of empty blocks per shape.

    make_full is the realization gate; the padding that would complete the
    powerset stays implicit as the slack of the counting invariant.
    """
    runs, first = [], 0
    for shape, count in make_full(t).items():
        runs.append((shape.entries, first, count))  # the slot of an empty block is its target
        first += count
    return RealizationState(t.n, 0, tuple(sorted(runs)))


def check_realization(state: RealizationState) -> RealizationCheck:
    """Verify the counting invariant of a partial realization.

    Every (block, target) pair may occur at most C(n - tau, target - |block|)
    times, and at most zero times if the block holds an element outside 1..tau.
    """
    n, tau = state.n, state.tau
    counts: Counter[int] = Counter()
    for slots, _first, count in state.runs:
        counts.update({s: count * slots.count(s) for s in slots})
    for s, observed in sorted(counts.items()):
        blk, m = decode_slot(n, s)
        expected = binomial(n - tau, m - len(blk)) if all(1 <= e <= tau for e in blk) else 0
        if observed > expected:
            return RealizationCheck(False, blk, m, observed, expected)
    return RealizationCheck(True)


def build_step_network(state: RealizationState) -> StepNetwork:
    """Set up the bounded assignment that places element tau + 1.

    A cell holding c blocks that still need `need` elements keeps the
    invariant when between c - C(den - 1, need) and C(den - 1, need - 1) of
    them receive the element. A group's open blocks need den elements in all.
    """
    n, tau = state.n, state.tau
    if tau >= n:
        raise ValueError("realization is already complete")
    den, base = n - tau, n + 1

    counts: dict[int, int] = {}
    for slots, _first, count in state.runs:
        for s in slots:
            counts[s] = counts.get(s, 0) + count
    choose = [binomial(den - 1, j) for j in range(n + 1)]
    cells: list[Cell] = []
    open_cell: dict[int, tuple[int, int]] = {}  # slot -> (cell index, elements it still needs)
    for s in sorted(counts):
        need = s % base - s // base % base
        if need > 0:  # target above size: the block is open
            low, high = counts[s] - choose[need], choose[need - 1]
            if low > high:
                raise ValueError("not a realization state: a cell holds more blocks than it may")
            open_cell[s] = (len(cells), need)
            cells.append(Cell(s, low, high))
    classes: list[ClassNode] = []
    for slots, first, count in state.runs:
        arcs = []
        for s in sorted(set(slots)):  # one arc per distinct open slot, in cell order
            if s in open_cell:
                ci, need = open_cell[s]
                arcs.append((ci, count * slots.count(s) * need, slots.index(s)))
        if count * den != sum([num for _ci, num, _pos in arcs]):
            raise ValueError("not a realization state: open slots and remaining elements differ")
        classes.append(ClassNode(range(first, first + count), tuple(arcs), 0))
    return StepNetwork(tau, den, tuple(cells), tuple(classes))


def integral_step_assignment(net: StepNetwork) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per class, (block position, count) pairs: how many of its groups take each cell.

    Pairs come in the class's arc order, positive counts only. Floors the
    fractional flow on every aggregated arc, then routes the leftover units
    along augmenting paths over the arcs that carry a fractional part: first to
    cells below their lower bound, then to any cell below its upper bound; a
    cell's holders are walked only when the search dequeues it. The result
    keeps every cell within its bounds and stays within one unit of the
    fractional flow on each aggregated arc.
    """
    den, nclasses = net.den, len(net.classes)

    frac_cells: list[tuple[int, ...]] = []
    rem_supply: list[int] = []
    tally = [0] * len(net.cells)  # units each cell receives so far
    for cls in net.classes:
        for cell, num, _pos in cls.arcs:
            tally[cell] += num // den
        frac_cells.append(tuple([cell for cell, num, _pos in cls.arcs if num % den]))
        rem_supply.append(len(cls.members) - sum([num // den for _cell, num, _pos in cls.arcs]))

    low = [c.low for c in net.cells]
    high = [c.high for c in net.cells]
    if any(t > h for t, h in zip(tally, high)) or min(rem_supply, default=0) < 0:
        raise StepInfeasibleError("floor assignment oversubscribed a node")

    # one extra unit may ride on each fractional arc; only classes on a path get an entry
    extra: dict[int, tuple[int, ...]] = {}
    holders: dict[int, list[int]] = {}

    # Phase 1 meets the lower bounds. When a search fails, no class it saw can
    # reach a cell below its lower bound, now or after later augmentations, so
    # all of them drop out. Phase 2 places the rest under the upper bounds.
    for cap, phase_one in ((low, True), (high, False)):
        dead = [False] * nclasses
        for start in range(nclasses):
            while rem_supply[start] > 0 and not dead[start]:
                parent_cell: dict[int, int] = {}
                parent_cls: dict[int, int] = {}  # every class the search reached
                queue = deque([-1])  # full cells in discovery order; -1 walks the start class
                goal = -1
                while queue and goal < 0:
                    via = queue.popleft()
                    for ci in holders.get(via, ()) if via >= 0 else (start,):
                        if ci in parent_cls or dead[ci]:
                            continue
                        parent_cls[ci] = via
                        ex = extra.get(ci, ())
                        for cell in frac_cells[ci]:
                            if cell in parent_cell or cell in ex:
                                continue
                            parent_cell[cell] = ci
                            if tally[cell] < cap[cell]:
                                goal = cell
                                break
                            queue.append(cell)
                        if goal >= 0:
                            break
                if goal < 0:
                    if not phase_one:
                        raise StepInfeasibleError("no augmenting path; corrupted state")
                    for ci in parent_cls:
                        dead[ci] = True
                    continue
                tally[goal] += 1
                rem_supply[start] -= 1
                cell = goal
                while True:
                    ci = parent_cell[cell]
                    extra[ci] = extra.get(ci, ()) + (cell,)
                    holders.setdefault(cell, []).append(ci)
                    if ci == start:
                        break
                    prev = parent_cls[ci]
                    extra[ci] = tuple([c for c in extra[ci] if c != prev])
                    holders[prev].remove(ci)
                    cell = prev

    if any(t < lo for t, lo in zip(tally, low)):
        raise StepInfeasibleError("a cell stays below its lower bound after assignment")

    result = []
    for ci, cls in enumerate(net.classes):
        ex = extra.get(ci, ())
        pairs = tuple([(pos, c) for cell, num, pos in cls.arcs
                       if (c := num // den + (cell in ex)) > 0])
        if sum([c for _pos, c in pairs]) != len(cls.members):
            raise StepInfeasibleError("class assignment does not cover its groups")
        result.append(pairs)
    return tuple(result)


def advance(state: RealizationState) -> RealizationState:
    """Place element tau + 1: each run splits into one run per cell its class took."""
    assignment = integral_step_assignment(build_step_network(state))
    n, elem = state.n, state.tau + 1
    base, inc = n + 1, slot_increments(n)[elem]
    runs = []
    for (slots, first, _count), pairs in zip(state.runs, assignment):
        for pos, count in pairs:
            s = slots[pos]  # elem exceeds all placed elements: it becomes digit |block|
            child = slots[:pos] + (s + inc[s // base % base],) + slots[pos + 1:]
            runs.append((child, first, count))
            first += count
    runs.sort(key=lambda run: sorted(run[0]))
    return RealizationState(n, elem, tuple(runs))


@dataclass(frozen=True)
class SpreadSystem:
    """Spreads of 1..n. realize lists each one's blocks in (size, elements) order;
    spreads_to_array gives block i of a spread symbol i."""
    n: int
    spreads: tuple[tuple[Block, ...], ...]  # one tuple of blocks per spread


def _finish(state: RealizationState) -> list[tuple[Block, ...]]:
    """At tau = n - 1, add n to every open block and decode the runs, in group order.

    The last network's bounds let an open slot occur once in all and need one
    element, and a group hold exactly one; it is built for those checks only.
    """
    n, base, inc, spreads = state.n, state.n + 1, slot_increments(state.n)[state.n], []
    open_slots = {cell.slot for cell in build_step_network(state).cells}
    for slots, _first, count in sorted(state.runs, key=lambda run: run[1]):
        blocks = []
        for s in slots:
            if s in open_slots:
                s += inc[s // base % base]
            elif s % base != s // base % base:
                raise StepInfeasibleError("internal: a block missed its target size")
            blocks.append(decode_slot(n, s)[0])
        spreads += [tuple(blocks)] * count
    return spreads


def realize(t: VType, max_n: int = DEFAULT_MAX_N) -> SpreadSystem:
    """Build a disjoint partial spread system of the given admissible type.

    The cap on n is checked first, then make_full's gate (ValueError). Each
    requested shape becomes a spread partitioning 1..n with the shape's block
    sizes exactly, and no block (as a set) occurs twice anywhere in the system.
    Elements 1..n-1 go through advance; the last step builds its network for
    the bound checks, then finishes in the walk that decodes the runs.
    Spreads come in the order of the type's shapes, and identical inputs
    produce identical systems.
    """
    n = t.n
    if n > max_n:
        raise CapExceededError(f"ground set size {n} exceeds the realization cap ({max_n})")
    state = init_realization(t)
    for _ in range(n - 1):
        state = advance(state)
    return SpreadSystem(n, tuple(_finish(state)))
