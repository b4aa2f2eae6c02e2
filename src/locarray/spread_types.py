"""Block-size shapes, shape multisets (types), and the optimal constructions.

A shape records the block sizes of one partial spread; a type is a multiset of
shapes. A type is admissible when, for every size x, the number of size-x
slots across all its shapes stays within C(n, x), the number of x-subsets of
the ground set; realization takes admissible types whose shapes sum to n.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .combinatorics import VARIANT_11, Variant, bound_params

__all__ = [
    "Admissibility",
    "InadmissibleTypeError",
    "Shape",
    "VType",
    "balanced_shape",
    "build_variant_type",
    "is_admissible",
    "make_full",
    "offset_shape",
]


@dataclass(frozen=True, order=True)
class Shape:
    """A nonempty multiset of nonnegative block sizes, stored sorted ascending."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        ent = tuple(sorted(self.entries))
        if not ent or ent[0] < 0:
            raise ValueError("a shape needs one or more nonnegative block sizes")
        object.__setattr__(self, "entries", ent)

    @property
    def total(self) -> int:
        return sum(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"Shape({list(self.entries)!r})"


class VType:
    """A multiset of shapes over the ground set {1..n}, with symbol count v.

    Shapes may have any positive number of entries. The size-x slot counts
    sigma(x) are tallied once, while the shapes are merged.
    """

    __slots__ = ("n", "v", "_shapes", "_slots")

    def __init__(
        self,
        n: int,
        v: int,
        shapes: Mapping[Shape, int] | Iterable[tuple[Shape, int]] = (),
    ) -> None:
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if v < 2:
            raise ValueError(f"need v >= 2, got {v}")
        items = shapes.items() if isinstance(shapes, Mapping) else shapes
        merged: dict[Shape, int] = {}
        slots: Counter[int] = Counter()
        for shape, count in items:
            if count <= 0:
                raise ValueError(f"multiplicity of {shape} must be positive")
            if shape.total > n:
                raise ValueError(f"{shape} does not fit in a ground set of size {n}")
            merged[shape] = merged.get(shape, 0) + count
            for x in shape.entries:
                slots[x] += count
        self.n = n
        self.v = v
        self._shapes = dict(sorted(merged.items()))
        self._slots = slots

    def items(self) -> list[tuple[Shape, int]]:
        """(shape, multiplicity) pairs in canonical (lexicographic) order."""
        return list(self._shapes.items())

    def size(self) -> int:
        """Total number of shapes, counted with multiplicity."""
        return sum(self._shapes.values())

    def sigma(self, x: int) -> int:
        """Number of size-x slots across all shapes, counted with multiplicity."""
        return self._slots[x]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VType):
            return NotImplemented
        return (self.n, self.v, self._shapes) == (other.n, other.v, other._shapes)

    def __repr__(self) -> str:
        body = ", ".join(f"{list(s.entries)}x{c}" for s, c in self._shapes.items())
        return f"VType(n={self.n}, v={self.v}, [{body}])"


@dataclass(frozen=True)
class Admissibility:
    """Outcome of the capacity check; falsy with the least oversubscribed size."""

    ok: bool
    size: int | None = None
    used: int | None = None
    capacity: int | None = None

    def __bool__(self) -> bool:
        return self.ok


class InadmissibleTypeError(ValueError):
    """An operation needed an admissible type but the capacity check failed."""

    def __init__(self, verdict: Admissibility) -> None:
        self.verdict = verdict
        super().__init__(
            f"type is not admissible: {verdict.used} slots of size {verdict.size}, "
            f"only {verdict.capacity} subsets available"
        )


def is_admissible(t: VType) -> Admissibility:
    """Check sigma(x) <= C(n, x) for x = 0, 1, ... up to the largest block size."""
    largest = max((shape.entries[-1] for shape, _ in t.items()), default=-1)
    capacity = 1  # C(n, x), advanced by C(n, x+1) = C(n, x) * (n-x) / (x+1)
    for x in range(largest + 1):
        used = t.sigma(x)
        if used > capacity:
            return Admissibility(False, x, used, capacity)
        capacity = capacity * (t.n - x) // (x + 1)
    return Admissibility(True)


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
    i < f, walking C(n, i) by its ratio, then the top level filled to the
    remaining size-f capacity; when n = v - 1 (mod v) the top level instead
    trades pairs of balanced shapes for offset shapes so the capacity works
    out. If variant.drops_zero_shape(v) the balanced shape with minimum 0
    goes, and a d-barred type whose dbar_recovers holds makes up for it with
    one top-level swap. Raises ValueError unless n >= 1 and 2 <= v <= max_symbols(n).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    top = variant.max_symbols(n)
    if not 2 <= v <= top:
        raise ValueError(f"need 2 <= v <= {top} for variant {variant.label}; got v={v}, n={n}")
    p = bound_params(n, v)
    f = p.f
    residue = n % v == v - 1
    shapes: Counter[Shape] = Counter()
    c = 1  # C(n, i), advanced by C(n, i+1) = C(n, i) * (n-i) / (i+1)
    for i in range(f):
        shapes[balanced_shape(n, v, i)] += c
        c = c * (n - i) // (i + 1)
    if not residue:
        shapes[balanced_shape(n, v, f)] += (c - p.s) // p.d
    else:
        offs = -(-p.s_prime // (v + 1))  # ceil
        shapes[balanced_shape(n, v, f - 1)] -= 2 * offs
        if offs:
            shapes[offset_shape(n, v)] += offs
    if variant.drops_zero_shape(v):
        shapes[balanced_shape(n, v, 0)] -= 1
    if variant.d_barred and p.dbar_recovers:
        if not residue:
            shapes[balanced_shape(n, v, f)] += 1
        else:
            shapes[offset_shape(n, v)] -= 1
            shapes[balanced_shape(n, v, f - 1)] += 2
    for shape, count in shapes.items():
        if count < 0:
            raise RuntimeError(f"internal: negative count for {shape} at n={n}, v={v}")
    return VType(n, v, {shape: count for shape, count in shapes.items() if count})


def make_full(t: VType) -> VType:
    """The gate of realization: t itself, if its shapes sum to n and it is admissible.

    Realization never builds the padding that would raise t to C(n, x) slots
    of every size x; it stays implicit in the counting invariant."""
    if short := [shape for shape, _count in t.items() if shape.total != t.n]:
        raise ValueError(f"{short[0]} does not partition a ground set of size {t.n}")
    verdict = is_admissible(t)
    if not verdict:
        raise InadmissibleTypeError(verdict)
    return t
