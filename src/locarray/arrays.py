"""Row/column semantics of test arrays and conversions to and from spread systems.

Rows and columns are 1-indexed; symbols run from 0 to v - 1. An interaction is
a set of (column, symbol) pairs with at most one pair per column; the empty
interaction is covered by every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

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

    @property
    def too_many_symbols(self) -> bool:
        """v > n + 1, above every variant's max_symbols: each column has 2+ empty classes."""
        return self.v > self.n_rows + 1


@dataclass(frozen=True)
class Verdict:
    """Outcome of an array property check; falsy with the offending cells named."""

    ok: bool
    reason: str = ""
    witness: tuple[tuple[int, int], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _class_forms(arr: TestArray) -> tuple[list[list[int]], list[list[int]]]:
    """Both forms of the column classes, from the one pass that reads them off the rows.

    By column: per column, its v classes as row bitmasks (bit r-1 of class s is
    set when row r shows s). By row, the transpose: per row and symbol s, the
    bitmask of the columns that show s in that row. With too many symbols, each
    column's symbols above n + 1 are renumbered from n + 2, so at most 2n + 2
    classes per column are stored: each verifier's first fault still lies in
    column 1 by symbol n + 1, and only da11's host symbol needs its own name.
    """
    rows, width = arr.rows, arr.v
    if arr.too_many_symbols:
        top = arr.n_rows + 2
        ranks = [{x: top + i for i, x in enumerate({x for x in col if x >= top})}
                 for col in zip(*rows)]
        rows = [tuple(rank.get(x, x) for rank, x in zip(ranks, row)) for row in rows]
        width = top + max(map(len, ranks), default=0)
    by_column = [[0] * width for _ in range(arr.k)]
    by_row = []
    for r, row in enumerate(rows):
        bit = 1 << r
        columns = [0] * width
        for c, (classes, s) in enumerate(zip(by_column, row)):
            classes[s] |= bit
            columns[s] |= 1 << c
        by_row.append(columns)
    return by_column, by_row


def verify_la(arr: TestArray, variant: Variant = VARIANT_11) -> Verdict:
    """Class-distinctness check for the given variant.

    Base condition: all k*v column classes have pairwise distinct row sets.
    d-barred additionally forbids empty classes; t-barred additionally forbids
    a class equal to the full row set.
    """
    full = (1 << arr.n_rows) - 1
    seen: dict[int, tuple[int, int]] = {}
    for c, classes in enumerate(_class_forms(arr)[0], start=1):
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
    """Strength-2 coverage: every symbol pair appears in some row, for every column pair.

    The witness is the first uncovered pair in (c1, c2, s1, s2) order.
    """
    by_column, by_row = _class_forms(arr)
    everything = (1 << arr.k) - 1
    for c1, classes in enumerate(by_column, start=1):
        later = everything >> c1 << c1
        gaps = []
        for s1, rows in enumerate(classes):
            entries = [symbols for r, symbols in enumerate(by_row) if rows >> r & 1]
            for s2 in range(len(classes)):
                # the later columns that show s2 in no row of class (c1, s1);
                # the lowest set bit, as a 1-based column, is the first c2
                missed = later & ~reduce(or_, (symbols[s2] for symbols in entries), 0)
                if missed:
                    gaps.append(((missed & -missed).bit_length(), s1, s2))
        if gaps:
            c2, s1, s2 = min(gaps)
            return Verdict(False, "uncovered symbol pair", ((c1, s1), (c2, s2)))
    return Verdict(True)


def verify_da11(arr: TestArray) -> Verdict:
    """Inclusion-freeness: no column class contained in another (an antichain).

    The witness is the first pair of classes in column-major order.
    """
    by_column, by_row = _class_forms(arr)
    everything = (1 << arr.k) - 1
    for c1, classes in enumerate(by_column, start=1):
        for s1, rows in enumerate(classes):
            entries = [symbols for r, symbols in enumerate(by_row) if rows >> r & 1]
            hosts = []
            for s2 in range(len(classes)):
                # the columns that show s2 in every row of class (c1, s1), all
                # of them when the class is empty, other than c1 itself
                inside = everything & ~(1 << (c1 - 1)) if s2 == s1 else everything
                for symbols in entries:
                    inside &= symbols[s2]
                    if not inside:
                        break
                if inside:
                    hosts.append(((inside & -inside).bit_length(), s2))
            if hosts:
                c2, s2 = min(hosts)
                if rows:  # the one symbol the host shows on the class, as the array names it
                    s2 = arr.rows[(rows & -rows).bit_length() - 1][c2 - 1]
                return Verdict(False, "class contained in another", ((c1, s1), (c2, s2)))
    return Verdict(True)


def spreads_to_array(system: SpreadSystem, v: int) -> TestArray:
    """One column per spread; a spread's blocks take symbols 0..v-1 in list order.

    Every spread must consist of exactly v blocks that partition {1..n},
    with at most one of them empty.
    """
    n = system.n
    cols: list[list[int]] = []
    for si, blocks in enumerate(system.spreads, start=1):
        if len(blocks) != v:
            raise ValueError(f"spread {si} has {len(blocks)} blocks, expected {v}")
        if sum(1 for b in blocks if not b) > 1:
            raise ValueError(f"spread {si} has more than one empty block")
        col = [-1] * n
        for sym, b in enumerate(blocks):
            for e in b:
                if not 1 <= e <= n or col[e - 1] >= 0:  # outside 1..n, or placed twice
                    raise ValueError(f"spread {si} does not partition 1..{n}")
                col[e - 1] = sym
        if sum(map(len, blocks)) != n:  # n distinct elements of 1..n: all of them
            raise ValueError(f"spread {si} does not partition 1..{n}")
        cols.append(col)
    return TestArray(tuple(zip(*cols)) if cols else ((),) * n, v)


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
