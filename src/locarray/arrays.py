"""Row/column semantics of test arrays and conversions to and from spread systems.

Rows and columns are 1-indexed; symbols run from 0 to v - 1. An interaction is
a set of (column, symbol) pairs with at most one pair per column; the empty
interaction is covered by every row.
"""

from __future__ import annotations

from itertools import product, repeat
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
    """The pair (rows, v): n x k entries in 0..v-1, 1 <= v <= n + 1; bytes rows while v <= 256."""

    __slots__ = ()
    __test__ = False  # not a pytest case, despite the name
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, rows, v: int) -> TestArray:
        rows = tuple(r if isinstance(r, (bytes, bytearray)) else tuple(r) for r in rows)
        if not 1 <= v <= VARIANT_11.max_symbols(len(rows)):  # one empty class at most
            raise ValueError(f"need 1 <= v <= n + 1, got v={v} with n={len(rows)}")
        symbols, lines = bytes(range(min(v, 256))), []
        for r in rows:
            if len(r) != len(rows[0]):
                raise ValueError("rows have unequal lengths")
            try:  # one byte an entry while v <= 256, as the engine writes rows
                line = bytes(r) if v <= 256 else tuple(r)
            except ValueError:  # an entry outside 0..255
                line = r
            # the entries to range-check: the bytes translate leaves, in C, or the distinct ints
            seen = set(line.translate(None, symbols) if type(line) is bytes else line)
            if min(seen, default=0) < 0 or max(seen, default=0) >= v:
                bad = next(a for a in r if not 0 <= a < v)
                raise ValueError(f"entry {bad} outside 0..{v - 1}")
            lines.append(line)
        return super().__new__(cls, tuple(lines), v)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return len(self.rows[0]) if self.rows else 0


# per bit b, the 256-byte table that makes a byte the digit 1 when its bit b is set, else 0
_BITS = [(b"0" * 2**b + b"1" * 2**b) * (128 >> b) for b in range(8)]


def _class_masks(arr: TestArray) -> list[int]:
    """Per class (c, s) in column-major order, its row bitmask: bit r-1 set when row r
    shows s in column c. While v <= 256 it is read by int(..., 2) off the columns
    translated to binary digits; above, each entry sets its bit."""
    n, k, v = arr.n_rows, arr.k, arr.v
    if v > 256:  # no symbol limit: linear in the entries and the masks
        masks = [0] * (k * v)
        for r, line in enumerate(arr.rows):
            bit = 1 << r
            for c, s in enumerate(line):
                masks[c * v + s] |= bit
        return masks
    columns = bytearray(k * n)  # column by column, the last row first
    for i, line in enumerate(reversed(arr.rows)):
        columns[i::n] = line
    marks = [columns.translate(b"0" * s + b"1" + b"0" * (255 - s)) for s in range(v)]
    return [int(bits[i:i + n], 2) for i in range(0, k * n, n) for bits in marks] if k else []


def _class_folds(arr: TestArray, op, empty: int):
    """Per class in column-major order, the op-fold of the by-row masks of its
    rows (`empty` for none) in ceil(n/8) lookups. The class masks become
    ceil(n/8) little-endian bytes each, once; byte i of every class, translated
    by bit b's table, reversed and read in base 2, is the by-row mask of row
    8i + b: bit (c-1)*v + s set when the row shows s in column c. Four-Russians
    tables hold, per chunk of up to 8 rows, the fold of each subset of them: 2^8
    masks of v*k bits where the by-row form holds 8, 32 times its memory."""
    classes = _class_masks(arr)
    if not classes:
        return
    size = (arr.n_rows + 7) // 8  # bytes per class; byte i holds rows 8i..8i+7
    data = b"".join(map(int.to_bytes, classes, repeat(size), repeat("little")))
    tables = []
    for i in range(size):
        byte, table = data[i::size], [empty]  # bit b of the index stands for row 8i + b
        for bits in _BITS[:arr.n_rows - 8 * i]:
            mask = int(byte.translate(bits)[::-1], 2)
            table += list(map(op, table, repeat(mask)))
        tables.append(table)
    for start in range(0, len(classes), 64):  # 64 folds at a time, each step a C loop
        end = min(start + 64, len(classes)) * size
        folds = [empty] * (end // size - start)
        for i, table in enumerate(tables):
            folds = list(map(op, folds, map(table.__getitem__, data[start * size + i:end:size])))
        yield from folds


def verify_la(arr: TestArray, variant: Variant = VARIANT_11) -> Verdict:
    """Class-distinctness check for the given variant.

    Base condition: all k*v column classes have pairwise distinct row sets.
    d-barred additionally forbids empty classes; t-barred additionally forbids
    a class equal to the full row set.
    """
    full = (1 << arr.n_rows) - 1
    seen: dict[int, tuple[int, int]] = {}
    for (c, s), rows in zip(product(range(1, arr.k + 1), range(arr.v)), _class_masks(arr)):
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
