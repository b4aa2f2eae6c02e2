"""Row/column semantics of test arrays and conversions to and from spread systems.

Rows and columns are 1-indexed; symbols run from 0 to v - 1. An interaction is
a set of (column, symbol) pairs with at most one pair per column; the empty
interaction is covered by every row.
"""

from __future__ import annotations

from itertools import chain, product, repeat
from operator import and_, or_
from typing import NamedTuple

from .baranyai import DEFAULT_MAX_N, realize
from .combinatorics import VARIANT_11, Variant, max_columns
from .spread_types import SpreadSystem, Verdict, build_variant_type

__all__ = [
    "TestArray",
    "Verdict",
    "generate_la",
    "spreads_to_array",
    "verify_ca2",
    "verify_da11",
    "verify_la",
]


class TestArray(NamedTuple("TestArray", [("rows", tuple), ("v", int)])):
    """An n x k array with entries in 0..v-1, where 1 <= v <= n + 1: the pair (rows, v)."""

    __slots__ = ()
    __test__ = False  # not a pytest case, despite the name
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, rows, v: int) -> TestArray:
        rows = tuple(tuple(r) for r in rows)
        if not 1 <= v <= VARIANT_11.max_symbols(len(rows)):  # one empty class at most
            raise ValueError(f"need 1 <= v <= n + 1, got v={v} with n={len(rows)}")
        for r in rows:
            if len(r) != len(rows[0]):
                raise ValueError("rows have unequal lengths")
            symbols = set(r)  # a few distinct values: cheaper to range-check than the row
            if min(symbols, default=0) < 0 or max(symbols, default=0) >= v:
                bad = next(a for a in r if not 0 <= a < v)
                raise ValueError(f"entry {bad} outside 0..{v - 1}")
        return super().__new__(cls, rows, v)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def _class_forms(arr: TestArray) -> tuple[list[int], list[int]]:
    """Both forms of the column classes, read off the rows by string work in C.

    By class: per class (c, s) in column-major order, its row bitmask (bit r-1
    set when row r shows s in column c). By row: per row, bit (c-1)*v + s set
    when the row shows s in column c. Symbols become characters, which
    str.translate turns into binary digits, symbol by symbol, for int(..., 2)."""
    n, k, v = arr.n_rows, arr.k, arr.v
    lines = ["".join(map(chr, row)) for row in arr.rows]
    # column by column, after a pad chr(v) that reads "0", the last row first
    columns = "".join(chain.from_iterable(zip(chr(v) * k, *reversed(lines))))
    rows = "".join(chr(v) + line[::-1] for line in reversed(lines))  # likewise, row by row
    by_column, digits = [], bytearray(len(rows) * v)
    for s in range(v):
        table = ["0"] * s + ["1"] + ["0"] * (v - s)  # "1" for s only
        bits = columns.translate(table)
        by_column.append([int(bits[i:i + n + 1], 2) for i in range(0, len(bits), n + 1)])
        digits[v - 1 - s::v] = rows.translate(table).encode()  # the v digits of a column, s last
    by_row = [int(digits[i:i + (k + 1) * v], 2) for i in range(0, len(digits), (k + 1) * v)]
    return list(chain.from_iterable(zip(*by_column))), by_row[::-1]


def _class_folds(arr: TestArray, op, empty: int):
    """Per class in column-major order, the op-fold of the by-row masks of its
    rows (`empty` for none) in ceil(n/8) lookups. Four-Russians tables hold, per
    chunk of up to 8 rows, the fold of each subset of them: 2^8 masks of v*k
    bits where the by-row form holds 8, 32 times its memory."""
    classes, by_row = _class_forms(arr)
    tables = []
    for start in range(0, arr.n_rows, 8):
        table = [empty]  # bit i of the index stands for row start + i
        for mask in by_row[start:start + 8]:
            table += list(map(op, table, repeat(mask)))
        tables.append(table)
    for start in range(0, len(classes), 64):  # 64 folds at a time, each step a C loop
        block = classes[start:start + 64]
        chunks = b"".join(map(int.to_bytes, block, repeat(len(tables)), repeat("little")))
        folds = [empty] * len(block)
        for i, table in enumerate(tables):
            folds = list(map(op, folds, map(table.__getitem__, chunks[i::len(tables)])))
        yield from folds


def verify_la(arr: TestArray, variant: Variant = VARIANT_11) -> Verdict:
    """Class-distinctness check for the given variant.

    Base condition: all k*v column classes have pairwise distinct row sets.
    d-barred additionally forbids empty classes; t-barred additionally forbids
    a class equal to the full row set.
    """
    full = (1 << arr.n_rows) - 1
    seen: dict[int, tuple[int, int]] = {}
    for (c, s), rows in zip(product(range(1, arr.k + 1), range(arr.v)), _class_forms(arr)[0]):
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

    The (column, symbol) pairs seen in some row of a class come from tables of
    OR-folds: 2^8 masks of v*k bits per 8 rows, 32 times the by-row form (see
    _class_folds). The witness is the first uncovered pair in (c1, c2, s1, s2) order.
    """
    k, v = arr.k, arr.v
    everything = (1 << k * v) - 1
    gaps = []
    for (c1, s1), covered in zip(product(range(1, k + 1), range(v)), _class_folds(arr, or_, 0)):
        if s1 == 0:
            if gaps:
                break
            later = everything >> c1 * v << c1 * v  # the columns after c1, every symbol
        missed = later & covered ^ later  # the later (c2, s2) in no row of class (c1, s1)
        if missed:  # the lowest bit is the least c2, then s2
            c2, s2 = divmod((missed & -missed).bit_length() - 1, v)
            gaps.append((c1, c2 + 1, s1, s2))
    if not gaps:
        return Verdict(True)
    c1, c2, s1, s2 = min(gaps)
    return Verdict(False, "uncovered symbol pair", ((c1, s1), (c2, s2)))


def verify_da11(arr: TestArray) -> Verdict:
    """Inclusion-freeness: no column class contained in another (an antichain).

    The (column, symbol) pairs seen in every row of a class come from tables of
    AND-folds: 2^8 masks of v*k bits per 8 rows, 32 times the by-row form (see
    _class_folds). The witness is the first pair of classes in column-major order.
    """
    k, v = arr.k, arr.v
    full = (1 << k * v) - 1
    for (c1, s1), inside in zip(product(range(1, k + 1), range(v)), _class_folds(arr, and_, full)):
        # the classes that hold every row of (c1, s1), all when it is empty; it holds itself
        inside ^= 1 << (c1 - 1) * v + s1
        if inside:  # the lowest bit is the least column, then symbol
            c2, s2 = divmod((inside & -inside).bit_length() - 1, v)
            return Verdict(False, "class contained in another", ((c1, s1), (c2 + 1, s2)))
    return Verdict(True)


def spreads_to_array(system: SpreadSystem) -> TestArray:
    """One column per spread; a spread's blocks take symbols 0..v-1 in list order."""
    return TestArray(system.rows, system.v)


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
    arr = spreads_to_array(realize(t, max_n=max_n))
    if arr.k != k:
        raise RuntimeError("internal: generated width disagrees with the exact optimum")
    return arr
