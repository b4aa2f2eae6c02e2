"""Row/column semantics of test arrays and conversions to and from spread systems.

Rows and columns are 1-indexed; symbols run from 0 to v - 1. An interaction is
a set of (column, symbol) pairs with at most one pair per column; the empty
interaction is covered by every row.
"""

from __future__ import annotations

from dataclasses import dataclass

from .baranyai import DEFAULT_MAX_N, SpreadSystem, realize
from .combinatorics import VARIANT_11, Variant, max_columns
from .spread_types import build_variant_type

__all__ = [
    "TestArray",
    "Verdict",
    "generate_la",
    "spreads_to_array",
    "verify_ca2",
    "verify_da11",
    "verify_la",
]


@dataclass(frozen=True)
class TestArray:
    """An n x k array with entries in 0..v-1."""

    __test__ = False  # not a pytest case, despite the name

    rows: tuple[tuple[int, ...], ...]
    v: int

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if self.v < 1:
            raise ValueError(f"need v >= 1, got {self.v}")
        if rows:
            k = len(rows[0])
            for r in rows:
                if len(r) != k:
                    raise ValueError("rows have unequal lengths")
                for a in r:
                    if not 0 <= a < self.v:
                        raise ValueError(f"entry {a} outside 0..{self.v - 1}")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return len(self.rows[0]) if self.rows else 0


@dataclass(frozen=True)
class Verdict:
    """Outcome of an array property check; falsy with the offending cells named."""

    ok: bool
    reason: str = ""
    witness: tuple[tuple[int, int], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _class_masks(arr: TestArray) -> list[list[int]]:
    """Per column, its v row classes as bitmasks: bit r-1 of class s is set when
    row r shows symbol s. The one place where classes are read off the rows."""
    masks = [[0] * arr.v for _ in range(arr.k)]
    for r, row in enumerate(arr.rows):
        bit = 1 << r
        for classes, s in zip(masks, row):
            classes[s] |= bit
    return masks


def verify_la(arr: TestArray, variant: Variant = VARIANT_11) -> Verdict:
    """Class-distinctness check for the given variant.

    Base condition: all k*v column classes have pairwise distinct row sets.
    d-barred additionally forbids empty classes; t-barred additionally forbids
    a class equal to the full row set.
    """
    full = (1 << arr.n_rows) - 1
    seen: dict[int, tuple[int, int]] = {}
    for c, classes in enumerate(_class_masks(arr), start=1):
        for s, rows in enumerate(classes):
            if variant.d_barred and not rows:
                return Verdict(False, "empty class", ((c, s),))
            if variant.t_barred and rows == full:
                return Verdict(False, "class equals the full row set", ((c, s),))
            if rows in seen:
                return Verdict(False, "two classes with the same row set", (seen[rows], (c, s)))
            seen[rows] = (c, s)
    return Verdict(True)


def verify_ca2(arr: TestArray) -> Verdict:
    """Strength-2 coverage: every symbol pair appears in some row, for every column pair."""
    masks = _class_masks(arr)
    for c1, classes1 in enumerate(masks):
        for c2 in range(c1 + 1, len(masks)):
            for s1, r1 in enumerate(classes1):
                for s2, r2 in enumerate(masks[c2]):
                    if not r1 & r2:
                        return Verdict(
                            False, "uncovered symbol pair", ((c1 + 1, s1), (c2 + 1, s2))
                        )
    return Verdict(True)


def verify_da11(arr: TestArray) -> Verdict:
    """Inclusion-freeness: no column class contained in another (an antichain)."""
    labeled = [
        (c, s, rows)
        for c, classes in enumerate(_class_masks(arr), start=1)
        for s, rows in enumerate(classes)
    ]
    for i, (c1, s1, r1) in enumerate(labeled):
        for j, (c2, s2, r2) in enumerate(labeled):
            if r1 & r2 == r1 and i != j:
                return Verdict(False, "class contained in another", ((c1, s1), (c2, s2)))
    return Verdict(True)


def spreads_to_array(system: SpreadSystem, v: int) -> TestArray:
    """One column per spread; blocks sorted by (size, elements) take symbols 0..v-1.

    Every spread must consist of exactly v blocks that partition {1..n},
    with at most one of them empty.
    """
    n = system.n
    universe = set(range(1, n + 1))
    cols: list[list[int]] = []
    for si, sp in enumerate(system.spreads, start=1):
        blocks = sp.blocks
        if len(blocks) != v:
            raise ValueError(f"spread {si} has {len(blocks)} blocks, expected {v}")
        if sum(1 for b in blocks if not b) > 1:
            raise ValueError(f"spread {si} has more than one empty block")
        elems = [e for b in blocks for e in b]
        if len(elems) != n or set(elems) != universe:
            raise ValueError(f"spread {si} does not partition 1..{n}")
        col = [0] * n
        for sym, b in enumerate(sorted(blocks, key=lambda b: (len(b), b))):
            for e in b:
                col[e - 1] = sym
        cols.append(col)
    rows = tuple(tuple(col[r] for col in cols) for r in range(n))
    return TestArray(rows, v)


def generate_la(
    n: int,
    v: int,
    variant: Variant = VARIANT_11,
    max_n: int = DEFAULT_MAX_N,
) -> TestArray:
    """Construct an optimal array: n rows and max_columns(n, v, variant) columns."""
    k = max_columns(n, v, variant)
    if k <= 0:
        raise ValueError(
            f"no {variant.label} array with positive width exists for n={n}, v={v}"
        )
    t = build_variant_type(n, v, variant)
    arr = spreads_to_array(realize(t, max_n=max_n), v)
    if arr.k != k:
        raise RuntimeError("internal: generated width disagrees with the exact optimum")
    return arr
