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
found by flooring, filling each cell below its lower bound from the classes
that feed it, and routing the leftovers along augmenting paths to any cell below
its upper bound, over a network of flat int lists. The last step is forced
(den = 1: each open block takes n); its network's arcs give n's row. Each step
writes its element's row.

The state holds one run of consecutive, identical groups per class of groups
with the same slot multiset, and runs only split: each group gets the element
in exactly one block, so different multisets stay different, and a class
serves its groups in index order, so those taking one cell stay a run. A run's
slots stay sorted, its class key, without a sort (see advance).

Determinism contract: elements are placed in increasing order; classes are
processed in order of their sorted slots; within a class, cells are served in
slot order and member groups in index order. Cells are numbered as first met;
those below their lower bound are filled in that order, then the classes with
units left route them on, in class order. Both phases take their paths from one
breadth-first search over classes and cells. It scans a cell's feeders in class
order, a class's cells in arc (slot) order and a cell's holders in the order
they took it, and stops at the first goal it meets.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .combinatorics import binomial
from .spread_types import Row, SpreadSystem, VType, Verdict, make_full

__all__ = [
    "DEFAULT_MAX_N",
    "CapExceededError",
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


def decode_slot(n: int, slot: int) -> tuple[Block, int]:
    """The (block, target) pair a slot encodes: in base n + 1, the block's elements, most
    significant first and padded with zeros to n digits, then its size, then the target.
    Integer order on slots is (block, target) order; an empty block's slot is its target."""
    base = n + 1
    rest, target = divmod(slot, base)
    digits, size = divmod(rest, base)
    digits //= base ** (n - size)
    block = [0] * size
    for i in reversed(range(size)):
        digits, block[i] = divmod(digits, base)
    return tuple(block), target


def slot_increments(n: int, e: int) -> tuple[int, ...]:
    """inc[s]: what placing element e into a block of size s adds to its slot."""
    base = n + 1
    return tuple(e * base ** (n + 1 - s) + base for s in range(n))


def expand_runs(runs) -> tuple[tuple[int, ...], ...]:
    """Per group, in index order, its slots in shape order: slots[i] sits at order[i]."""
    groups: list[tuple[int, ...]] = []
    for slots, order, _first, count in sorted(runs, key=lambda run: run[2]):
        groups += [tuple([s for _pos, s in sorted(zip(order, slots))])] * count
    return tuple(groups)


def _blank_row(runs) -> tuple[Row, list[Row]]:
    """A zero block position per group of the runs, and per position a one-entry row."""
    v = len(runs[0][0]) if runs else 0
    kind = bytearray if v <= 256 else list  # one byte per block position while they fit
    return (kind(bytes(sum([run[3] for run in runs]))), [kind((pos,)) for pos in range(v)])


class RealizationState(NamedTuple):
    """After placing elements 1..tau: runs (slots, order, first, count), in increasing slots.

    Groups first to first + count - 1 each hold slots: one int per block, sorted (empty
    blocks by target and position, then the others by least element), and order[i] is
    the shape position of slots[i]; rows[e - 1][g] is that of the block holding e."""

    n: int
    tau: int
    runs: tuple[tuple[tuple[int, ...], tuple[int, ...], int, int], ...]
    rows: tuple[Row, ...]

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Per group in index order, its shape-order slots; read by the benchmark's tracer only."""
        return expand_runs(self.runs)


class ClassNode(NamedTuple):
    """A class as StepNetwork.classes gives it: arcs as triples, and skip_numerator 0."""

    count: int
    arcs: tuple[tuple[int, int, int], ...]
    skip_numerator: int


class StepNetwork(NamedTuple):
    """One step's bounded assignment. Cell i, the i-th open slot met, gives the element to
    low[i] to high[i] of its blocks. Class c, run c, has counts[c] groups and arcs[c] =
    (cell, numerator, shape position, cell, ...) in slot order, flow numerator / den.
    The engine never reads the views cells and classes, rebuilt on each read; the
    benchmark's tracer does, so deleting them waits on a change to the benchmark."""

    tau: int
    den: int  # n - tau, the common denominator of all fractional arc values
    low: list[int]
    high: list[int]
    counts: list[int]
    arcs: list[tuple[int, ...]]

    @property
    def cells(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.low, self.high))

    @property
    def classes(self) -> tuple[ClassNode, ...]:
        return tuple(ClassNode(count, tuple(zip(*[iter(arcs)] * 3)), 0)
                     for count, arcs in zip(self.counts, self.arcs))


def init_realization(t: VType) -> RealizationState:
    """Start a realization of t, one group of empty blocks per shape.

    make_full is the realization gate; the padding that would complete the
    powerset stays implicit as the slack of the counting invariant.
    """
    runs, first, order = [], 0, tuple(range(t.v))
    for shape, count in make_full(t).items():  # shapes and their entries ascend: sorted slots
        runs.append((shape.entries, order, first, count))  # an empty block's slot: its target
        first += count
    return RealizationState(t.n, 0, tuple(runs), ())


def check_realization(state: RealizationState) -> Verdict:
    """Verify the counting invariant of a partial realization.

    Every (block, target) pair may occur at most C(n - tau, target - |block|)
    times, and at most zero times if the block holds an element outside 1..tau.
    A failing verdict names the first pair, in slot order, that occurs too often.
    """
    n, tau, base = state.n, state.tau, state.n + 1
    held: dict[int, int] = {}  # slot -> blocks holding it
    for slots, _order, _first, count in state.runs:
        for s in slots:
            held[s] = held.get(s, 0) + count
    power = [base ** j for j in range(n + 2)]  # k elements sit at powers n + 2 - k..n + 1
    for s, observed in sorted(held.items()):
        m, size = s % base, s // base % base
        expected = binomial(n - tau, m - size)
        for p in power[n + 2 - size:]:  # every digit: a corrupted block need not be sorted
            if not 1 <= s // p % base <= tau:
                expected = 0
                break
        if observed > expected:
            block, m = decode_slot(n, s)
            reason = f"{block} target {m} occurs {observed} times, at most {expected} allowed"
            return Verdict(False, reason, ((block, m),))
    return Verdict(True)


def build_step_network(state: RealizationState) -> StepNetwork:
    """Set up the bounded assignment that places element tau + 1.

    A cell holding c blocks that still need `need` elements keeps the
    invariant when between c - C(den - 1, need) and C(den - 1, need - 1) of
    them receive the element. A group's open blocks need den elements in all,
    and a closed block holds exactly its target size.
    """
    n, tau = state.n, state.tau
    if tau >= n:
        raise ValueError("realization is already complete")
    den, base = n - tau, n + 1

    cell: dict[int, int] = {}  # open slot -> its cell index, in the order met
    low: list[int] = []  # per cell, the blocks holding it, until the bounds replace them
    arcs: list[tuple[int, ...]] = []
    short = False  # a group's open slots miss den; raised after the cell bounds
    for slots, order, _first, count in state.runs:
        flat: list[int] = []  # a list: a tuple grown by += leaves each smaller copy to free
        i = last = 0
        for s in slots:
            need = s % base - s // base % base
            if need > 0:  # target above size: the block is open
                if (c := cell.get(s)) is None:
                    c = cell[s] = len(low)
                    low.append(0)
                low[c] += count
                if s == last:  # equal slots are adjacent: one arc per distinct slot
                    flat[-2] += count * need
                else:
                    flat += (c, count * need, order[i])
                    last = s
            elif need:
                raise StepInfeasibleError("internal: a block missed its target size")
            i += 1
        short = short or count * den != sum(flat[1::3])
        arcs.append(tuple(flat))
    choose = [binomial(den - 1, j) for j in range(n + 1)]
    high = [s % base - s // base % base for s in cell]  # each cell's need, then its bound
    for c, need in enumerate(high):  # in place: the last step peaks here
        low[c] -= choose[need]
        high[c] = choose[need - 1]
    if any(map(int.__gt__, low, high)):
        raise ValueError("not a realization state: a cell holds more blocks than it may")
    if short:
        raise ValueError("not a realization state: open slots and remaining elements differ")
    return StepNetwork(tau, den, low, high, [run[3] for run in state.runs], arcs)


def _path(first, leave, take, goal) -> list[int]:
    """A shortest alternating path [b, a, b, ..., first] from first to the first node b met
    with goal(b), or [] if there is none. Each a and the b before it gain a unit, each a and
    the b after it give one up: take(a) lists the b that may gain a unit with a, leave(b)
    the a that hold one with b. The search queues the b it meets; when one comes off the
    queue, it scans take(a) of each a in leave(b) not met before."""
    took: dict[int, int] = {}  # b -> the a that takes it on the path
    left: dict[int, int] = {}  # a -> the b it leaves on the path; -1 for first
    queue, via, nodes = deque(), -1, (first,)
    while True:
        for a in nodes:
            if a in left:
                continue
            left[a] = via
            for b in take(a):
                if b in took:
                    continue
                took[b] = a
                if goal(b):
                    path = [b, a]
                    while (b := left[a]) >= 0:
                        path += (b, a := took[b])
                    return path
                queue.append(b)
        if not queue:
            return []
        via = queue.popleft()
        nodes = leave(via)


def _shift(holders: list, classes: list[int], cells: list[int]) -> None:
    """Move held units along a path: classes[i] takes cells[i] and gives up cells[i - 1].
    A cell's holders are a dict, made when it first takes a unit, in the order taken."""
    for i, ci in enumerate(classes):
        if i:
            del holders[cells[i - 1]][ci]
        if not (held := holders[cells[i]]):
            held = holders[cells[i]] = {}
        held[ci] = None


def integral_step_assignment(net: StepNetwork) -> tuple[tuple[int, ...], ...]:
    """Per class, flat (block position, count) pairs: how many of its groups take each cell.

    Pairs come in the class's arc order, positive counts only. Floors the
    fractional flow on every aggregated arc; over the arcs that carry a
    fractional part, phase 1 fills each cell below its lower bound, in cell
    order, from its next feeder with a unit left, and phase 2 routes each
    class's leftover units to cells below their upper bound. Each unit that no
    feeder gives directly moves along a path found by _path, the one
    breadth-first search: from a short cell it queues classes and ends at a
    class with a unit left; from a class it queues cells and ends at a cell
    below its upper bound. _shift then moves the held units along it. The
    result keeps every cell within its bounds and stays within one unit of the
    fractional flow on each aggregated arc.
    """
    den, low, high = net.den, net.low, net.high

    frac_cells, rem_supply = [], []  # per class: its fractional arcs' cells, its units left
    tally = [0] * len(low)  # units each cell receives so far
    for count, arcs in zip(net.counts, net.arcs):
        frac: tuple[int, ...] = ()
        for k in range(0, len(arcs), 3):  # the flat arcs, three at a time
            q, r = divmod(arcs[k + 1], den)
            tally[arcs[k]] += q
            count -= q
            if r:
                frac += (arcs[k],)
        frac_cells.append(frac)
        rem_supply.append(count)

    if any(map(int.__gt__, tally, high)) or min(rem_supply, default=0) < 0:
        raise StepInfeasibleError("floor assignment oversubscribed a node")

    holders: list = [()] * len(low)  # per cell, the classes with an extra unit on it, as taken

    short = [c for c in range(len(low)) if tally[c] < low[c]]
    feeders: dict[int, list[int]] = {c: [] for c in short}
    for ci, frac in enumerate(frac_cells if short else ()):
        for cell in frac:
            if cell in feeders:
                feeders[cell].append(ci)
    for target in short:  # a cell gets holders only in its turn, so none hold it yet
        fed = filter(rem_supply.__getitem__, feeders[target])  # lazily: supplies only fall
        while tally[target] < low[target]:
            path = [ci, target] if (ci := next(fed, -1)) >= 0 else _path(
                target, lambda k: [c for c in frac_cells[k] if k in holders[c]],
                lambda c: [k for k in feeders[c] if k not in holders[c]], rem_supply.__getitem__)
            if not path:
                raise StepInfeasibleError("a cell stays below its lower bound after assignment")
            _shift(holders, path[::2], path[1::2])
            tally[target] += 1
            rem_supply[path[0]] -= 1
    del feeders  # not read again, and the step peaks after phase 1

    for start in [ci for ci, units in enumerate(rem_supply) if units > 0]:
        while rem_supply[start] > 0:
            path = _path(start, holders.__getitem__,
                         lambda k: [c for c in frac_cells[k] if k not in holders[c]],
                         lambda c: tally[c] < high[c])
            if not path:
                raise StepInfeasibleError("no augmenting path; corrupted state")
            _shift(holders, path[::-2], path[-2::-2])
            tally[path[0]] += 1
            rem_supply[start] -= 1

    result = []
    for ci, (count, arcs) in enumerate(zip(net.counts, net.arcs)):
        pairs: list[int] = []
        for k in range(0, len(arcs), 3):
            if (c := arcs[k + 1] // den + (ci in holders[arcs[k]])) > 0:
                pairs += (arcs[k + 2], c)
        if sum(pairs[1::2]) != count:
            raise StepInfeasibleError("class assignment does not cover its groups")
        result.append(tuple(pairs))
    return tuple(result)


def advance(state: RealizationState) -> RealizationState:
    """Place element tau + 1: each run splits into one run per cell its class took, and
    the element's row takes each child run's block position. The element becomes the last
    digit of its block's slot: a nonempty block keeps its leading digit, its least element,
    and its place among the sorted slots; an empty one leads with the largest, at the end."""
    assignment = integral_step_assignment(build_step_network(state))
    n, elem = state.n, state.tau + 1
    base, inc = n + 1, slot_increments(n, elem)
    (row, units), runs = _blank_row(state.runs), []
    orders: dict[tuple[int, ...], tuple[int, ...]] = {}  # one tuple per moved order
    for (slots, order, first, _count), pairs in zip(state.runs, assignment):
        for k in range(0, len(pairs), 2):
            pos, count = pairs[k], pairs[k + 1]
            i = order.index(pos)
            s = slots[i]
            if s < base:  # an empty block's slot is its target
                moved = order[:i] + order[i + 1:] + (pos,)
                runs.append((slots[:i] + slots[i + 1:] + (s + inc[0],),
                             orders.setdefault(moved, moved), first, count))
            else:
                runs.append((slots[:i] + (s + inc[s // base % base],) + slots[i + 1:],
                             order, first, count))
            row[first:first + count] = units[pos] * count
            first += count
    runs.sort(key=lambda run: run[0])  # slots differ between runs
    return RealizationState(n, elem, tuple(runs), state.rows + (row,))


def _finish(state: RealizationState) -> tuple[Row, ...]:
    """At tau = n - 1, give n to every open block: the rows of all n elements.

    The last network has den = 1: its bounds let an open slot occur once in all and
    need one element, and its class sums leave each class one arc: its run's block for n.
    """
    row, units = _blank_row(state.runs)
    for (*_key, first, count), (_ci, _num, pos) in zip(state.runs, build_step_network(state).arcs):
        row[first:first + count] = units[pos] * count
    return state.rows + (row,)


def realize(t: VType, max_n: int = DEFAULT_MAX_N) -> SpreadSystem:
    """Build a disjoint partial spread system of the given admissible type.

    The cap on n is checked first, then make_full's gate (ValueError). Each
    requested shape becomes a spread partitioning 1..n with the shape's block
    sizes exactly, and no block (as a set) occurs twice anywhere in the system.
    Spreads come in the order of the type's shapes, and identical inputs
    produce identical systems.
    """
    n = t.n
    if n > max_n:
        raise CapExceededError(f"ground set size {n} exceeds the realization cap ({max_n})")
    state = init_realization(t)
    for _ in range(n - 1):
        state = advance(state)
    return SpreadSystem(n, t.v, _finish(state))
