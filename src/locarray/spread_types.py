"""Block-size shapes, shape multisets (types), the optimal constructions, spread systems.

A shape records the block sizes of one spread; a v-type is a multiset of
shapes with v entries each, summing to n. A type is admissible when, for every
size x, the number of size-x slots across all its shapes stays within C(n, x),
the number of x-subsets of the ground set; realization takes admissible types
and gives spread systems, held as the rows of their arrays.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, NamedTuple

from .combinatorics import VARIANT_11, Variant, max_columns

__all__ = [
    "InadmissibleTypeError",
    "Row",
    "Shape",
    "SpreadSystem",
    "VType",
    "Verdict",
    "balanced_shape",
    "build_variant_type",
    "is_admissible",
    "make_full",
    "offset_shape",
]


class Shape(tuple):
    """A nonempty multiset of nonnegative block sizes: the tuple of them sorted ascending."""

    __slots__ = ()

    def __new__(cls, entries: Iterable[int]) -> Shape:
        self = super().__new__(cls, sorted(entries))
        if not self or self[0] < 0:
            raise ValueError("a shape needs one or more nonnegative block sizes")
        return self

    entries = property(tuple)  # the sizes as a plain tuple
    total = property(sum)

    def __repr__(self) -> str:
        return f"Shape({list(self)!r})"


class VType(NamedTuple("VType", [("n", int), ("v", int), ("shapes", tuple)])):
    """A multiset of shapes over the ground set {1..n}, with symbol count v: the triple
    (n, v, shapes) of its (shape, multiplicity) pairs, in shape order. Every shape has v
    entries summing to n: the block sizes of one spread."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, n: int, v: int,
                shapes: Mapping[Shape, int] | Iterable[tuple[Shape, int]] = ()) -> VType:
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if v < 2:
            raise ValueError(f"need v >= 2, got {v}")
        items = shapes.items() if isinstance(shapes, Mapping) else shapes
        merged: dict[Shape, int] = {}
        for shape, count in items:
            if count <= 0:
                raise ValueError(f"multiplicity of {shape} must be positive")
            if len(shape) != v or shape.total != n:
                raise ValueError(f"{shape} does not partition {n} elements into {v} blocks")
            merged[shape] = merged.get(shape, 0) + count
        return super().__new__(cls, n, v, tuple(sorted(merged.items())))

    def items(self) -> list[tuple[Shape, int]]:
        """(shape, multiplicity) pairs in canonical (lexicographic) order."""
        return list(self.shapes)

    def size(self) -> int:
        """Total number of shapes, counted with multiplicity."""
        return sum(count for _, count in self.shapes)

    def __repr__(self) -> str:
        body = ", ".join(f"{list(s.entries)}x{c}" for s, c in self.shapes)
        return f"VType(n={self.n}, v={self.v}, [{body}])"


Row = bytearray | list[int]  # an element's row: per spread, the position of its block


class SpreadSystem(NamedTuple):
    """Spreads of 1..n, each of v blocks: rows[e - 1][i] is the position in spread i of
    the block holding e, the symbol spreads_to_array gives it. A system is built from
    its rows only; realize lists each spread's blocks in (size, elements) order."""
    n: int
    v: int
    rows: tuple[Row, ...]  # one per element

    @property
    def spreads(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per spread, its v blocks, derived from the rows on each read: read it once."""
        spreads = []
        for col in zip(*self.rows):
            blocks: list[list[int]] = [[] for _ in range(self.v)]
            for e, pos in enumerate(col, 1):
                blocks[pos].append(e)
            spreads.append(tuple(map(tuple, blocks)))
        return tuple(spreads)


class Verdict(NamedTuple):
    """Outcome of a check; falsy with what is wrong and a witness of the offending items:
    (column, symbol) cells for an array, a size for a type, (block, target) for a state."""

    ok: bool
    reason: str = ""
    witness: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


class InadmissibleTypeError(ValueError):
    """An operation needed an admissible type but the capacity check failed."""

    def __init__(self, verdict: Verdict) -> None:
        self.verdict = verdict
        super().__init__(f"type is not admissible: {verdict.reason}")


def is_admissible(t: VType) -> Verdict:
    """Check sigma(x) <= C(n, x) for x = 0, 1, ... up to the largest block size,
    with every sigma(x) tallied in one pass over the (shape, multiplicity) pairs.

    A failing verdict names the least size x whose slots outnumber the x-subsets."""
    slots: Counter[int] = Counter()
    for shape, count in t.shapes:
        for x in shape:
            slots[x] += count
    capacity = 1  # C(n, x), advanced by C(n, x+1) = C(n, x) * (n-x) / (x+1)
    for x in range(max(slots, default=-1) + 1):
        used = slots[x]
        if used > capacity:
            return Verdict(False, f"{used} slots of size {x}, only {capacity} subsets available",
                           (x,))
        capacity = capacity * (t.n - x) // (x + 1)
    return Verdict(True)


def balanced_shape(n: int, v: int, i: int) -> Shape:
    """The v-shape summing to n whose smallest entry is i and whose remaining
    entries are as equal as possible (they pairwise differ by at most one).

    Defined for 0 <= i <= floor((n+1)/v), except at the top value when
    n = v - 1 (mod v), where the remaining entries would drop below i.
    """
    if n < 1 or v < 2:
        raise ValueError(f"need n >= 1 and v >= 2; got n={n}, v={v}")
    f = (n + 1) // v
    if not 0 <= i <= f:
        raise ValueError(f"smallest entry {i} out of range 0..{f} for n={n}, v={v}")
    q, r = divmod(n - i, v - 1)
    shape = Shape((i,) + (q,) * (v - 1 - r) + (q + 1,) * r)
    if shape.entries[0] != i:
        raise ValueError(f"no such shape: smallest entry {i} unreachable for n={n}, v={v}")
    return shape


def offset_shape(n: int, v: int) -> Shape:
    """The near-balanced v-shape used when n = v - 1 (mod v): two entries one
    below the middle size f, v - 3 entries equal to f, one entry f + 1."""
    if v < 3:
        raise ValueError(f"need v >= 3, got {v}")
    if n % v != v - 1:
        raise ValueError(f"needs n = v-1 (mod v); got n={n}, v={v}")
    f = (n + 1) // v
    return Shape((f - 1, f - 1) + (f,) * (v - 3) + (f + 1,))


def build_variant_type(n: int, v: int, variant: Variant = VARIANT_11) -> VType:
    """The admissible v-type of maximum size for the variant, in one O(f) pass.

    Bottom-up: C(n, i) copies of the balanced shape with minimum i for every
    i < f, walking C(n, i) by its ratio, less the balanced shape with minimum 0
    if variant.drops_zero_shape(v). The top level takes up the difference to
    max_columns: that many balanced shapes with minimum f, or when
    n = v - 1 (mod v), where the difference is at most 0, as many offset
    shapes as it falls short, each in place of two balanced shapes with
    minimum f - 1. Raises ValueError unless n >= 1 and 2 <= v <= max_symbols(n).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    top = variant.max_symbols(n)
    if not 2 <= v <= top:
        need = f"need 2 <= v <= {top}" if top >= 2 else f"v must be at least 2 but is at most {top}"
        raise ValueError(f"{need} for variant {variant.label}; got v={v}, n={n}")
    f = (n + 1) // v
    shapes: Counter[Shape] = Counter()
    c = 1  # C(n, i), advanced by C(n, i+1) = C(n, i) * (n-i) / (i+1)
    for i in range(f):
        shapes[balanced_shape(n, v, i)] += c
        c = c * (n - i) // (i + 1)
    if variant.drops_zero_shape(v):
        shapes[balanced_shape(n, v, 0)] -= 1
    spare = max_columns(n, v, variant) - sum(shapes.values())
    if n % v != v - 1:
        shapes[balanced_shape(n, v, f)] += spare
    elif spare:
        shapes[balanced_shape(n, v, f - 1)] += 2 * spare
        shapes[offset_shape(n, v)] -= spare
    for shape, count in shapes.items():
        if count < 0:
            raise RuntimeError(f"internal: negative count for {shape} at n={n}, v={v}")
    return VType(n, v, {shape: count for shape, count in shapes.items() if count})


def make_full(t: VType) -> VType:
    """The gate of realization: t itself, if it is admissible.

    Realization never builds the padding that would raise t to C(n, x) slots
    of every size x; it stays implicit in the counting invariant."""
    verdict = is_admissible(t)
    if not verdict:
        raise InadmissibleTypeError(verdict)
    return t
