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
order. A leftover unit's breadth-first search scans its own class's options
in that order, then full options in discovery order and each option's holders
in the order they took it; this reaches classes in the order of a search that
queues classes, and finds the same paths.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .combinatorics import binomial
from .spread_types import VType, make_full

__all__ = [
    "DEFAULT_MAX_N",
    "CapExceededError",
    "Cell",
    "ClassNode",
    "RealizationCheck",
    "RealizationState",
    "Spread",
    "SpreadSystem",
    "StepInfeasibleError",
    "StepNetwork",
    "advance",
    "build_step_network",
    "check_realization",
    "decode_slot",
    "encode_slot",
    "init_realization",
    "integral_step_assignment",
    "realize",
    "slot_increments",
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
    """After placing elements 1..tau: per group, one slot int per block, in shape order."""

    n: int
    tau: int
    groups: tuple[tuple[int, ...], ...]


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
    """Groups with identical slot multisets, merged for the step solve.

    arcs holds (cell index, numerator, block position); the fractional flow on
    an arc is numerator / denominator.
    """

    members: tuple[int, ...]
    arcs: tuple[tuple[int, int, int], ...]
    skip_numerator: int


class StepNetwork(NamedTuple):
    tau: int
    den: int  # n - tau, the common denominator of all fractional arc values
    cells: tuple[Cell, ...]
    classes: tuple[ClassNode, ...]


def init_realization(t: VType) -> RealizationState:
    """Start a realization of t, one group of empty blocks per shape.

    make_full is the admissibility gate; the padding that would complete the
    powerset stays implicit as the slack of the counting invariant.
    """
    # the slot of an empty block is its target
    groups = tuple(shape.entries for shape, count in make_full(t).items() for _ in range(count))
    return RealizationState(t.n, 0, groups)


def check_realization(state: RealizationState) -> RealizationCheck:
    """Verify the counting invariant of a partial realization.

    Every (block, target) pair may occur at most C(n - tau, target - |block|)
    times, and at most zero times if the block holds an element outside 1..tau.
    """
    n, tau = state.n, state.tau
    counts = Counter(s for slots in state.groups for s in slots)
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
    them receive the element.
    """
    n, tau = state.n, state.tau
    if tau >= n:
        raise ValueError("realization is already complete")
    den, base = n - tau, n + 1

    by_key: dict[tuple[int, ...], list[int]] = {}
    for gi, slots in enumerate(state.groups):
        by_key.setdefault(tuple(sorted(slots)), []).append(gi)

    open_counts: dict[int, int] = {}
    for key, members in by_key.items():
        for s in key:
            if s % base > s // base % base:  # target above size: the block is open
                open_counts[s] = open_counts.get(s, 0) + len(members)
    choose = [binomial(den - 1, j) for j in range(n + 1)]
    cells: list[Cell] = []
    for s in sorted(open_counts):
        need = s % base - s // base % base
        low = open_counts[s] - choose[need]
        high = choose[need - 1]
        if low > high:
            raise ValueError("not a realization state: a cell holds more blocks than it may")
        cells.append(Cell(s, low, high))
    cell_index = {c.slot: ci for ci, c in enumerate(cells)}

    classes: list[ClassNode] = []
    for key in sorted(by_key):
        members = by_key[key]
        nmem = len(members)
        rep = state.groups[members[0]]
        arcs = []
        for i, s in enumerate(key):
            ci = cell_index.get(s)
            if ci is not None and (i == 0 or key[i - 1] != s):  # one arc per distinct open slot
                arcs.append((ci, nmem * key.count(s) * (s % base - s // base % base), rep.index(s)))
        skip_num = nmem * den - sum([num for _ci, num, _pos in arcs])
        if skip_num < 0:
            raise ValueError("not a realization state: open slots exceed remaining elements")
        classes.append(ClassNode(tuple(members), tuple(arcs), skip_num))
    return StepNetwork(tau, den, tuple(cells), tuple(classes))


def integral_step_assignment(net: StepNetwork) -> tuple[int | None, ...]:
    """Pick, for every group, the block that receives the next element (None = skip).

    Floors the fractional flow on every aggregated arc, then routes the
    leftover units along augmenting paths over the arcs that carry a
    fractional part: first to cells below their lower bound, then to any
    option below its upper bound (skipping has none). Each search scans the
    start class's options in arc order, queues the full ones in discovery
    order, and walks an option's holders, in the order they took it, only when
    it dequeues that option; this finds the same paths as a search that queues
    classes. The result keeps every cell within its bounds and stays within
    one unit of the fractional flow on each aggregated arc.
    """
    den, ncells, nclasses = net.den, len(net.cells), len(net.classes)
    skip = ncells  # option index for skipping

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
                parent_cls: dict[int, int] = {}  # every class the search reached
                queue = deque([-1])  # full options in discovery order; -1 walks the start class
                goal = -1
                while queue and goal < 0:
                    via = queue.popleft()
                    for ci in holders[via] if via >= 0 else (start,):
                        if ci in parent_cls or dead[ci]:
                            continue
                        parent_cls[ci] = via
                        for opt in frac_opts[ci]:
                            if opt in parent_opt or opt in extra[ci]:
                                continue
                            parent_opt[opt] = ci
                            if tally[opt] < cap[opt]:
                                goal = opt
                                break
                            queue.append(opt)
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

    choices: list[int | None] = [None] * high[skip]  # the skip bound counts every group
    for ci, cls in enumerate(net.classes):
        counts = dict(base[ci])
        for opt in extra[ci]:
            counts[opt] = counts.get(opt, 0) + 1
        opts = [opt for opt in sorted(counts) for _ in range(counts[opt])]
        if len(opts) != len(cls.members):
            raise StepInfeasibleError("class assignment does not cover its groups")
        pos_of = {cell_i: pos for cell_i, _num, pos in cls.arcs}  # skipping has none
        for gi, opt in zip(cls.members, opts):
            choices[gi] = pos_of.get(opt)
    return tuple(choices)


def advance(state: RealizationState) -> RealizationState:
    """Place element tau + 1 and return the next state."""
    net = build_step_network(state)
    choice = integral_step_assignment(net)
    n, elem = state.n, state.tau + 1
    base, inc = n + 1, slot_increments(n)[elem]
    groups = list(state.groups)
    for gi, pos in enumerate(choice):
        if pos is not None:
            slots = groups[gi]
            s = slots[pos]  # elem exceeds all placed elements: it becomes digit |block|
            groups[gi] = slots[:pos] + (s + inc[s // base % base],) + slots[pos + 1:]
    return RealizationState(n, elem, tuple(groups))


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
    base = n + 1
    if any(s % base != s // base % base for slots in state.groups for s in slots):
        raise StepInfeasibleError("internal: a block missed its target size")
    spreads = [Spread(tuple(decode_slot(n, s)[0] for s in slots), "requested")
               for slots in state.groups]
    if include_fill:
        used = {blk for sp in spreads for blk in sp.blocks}
        spreads += [Spread((blk,), "fill") for size in range(n + 1)
                    for blk in combinations(range(1, n + 1), size) if blk not in used]
    return SpreadSystem(n, tuple(spreads))
