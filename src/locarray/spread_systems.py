"""Spread systems, held as the rows of their arrays.

realize gives a spread system of a type. Each of its n rows holds, per
spread, the position of the block holding that row's element: the symbol the
array shows. The blocks themselves are derived from the rows on request.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Row", "SpreadSystem", "new_row"]

Row = bytearray | list[int]  # an element's row: per spread, the position of its block


def new_row(v: int, entries=b"") -> Row:
    """A row of block positions 0..v-1 holding entries: one byte each while v <= 256."""
    return (bytearray if v <= 256 else list)(entries)


class SpreadSystem(NamedTuple):
    """Spreads of 1..n, each of v blocks: rows[e - 1][i] is the position in spread i of
    the block holding e, the symbol spreads_to_array gives it. realize lists each
    spread's blocks in (size, elements) order."""
    n: int
    v: int
    rows: tuple[Row, ...]  # one per element

    @classmethod
    def from_spreads(cls, n: int, v: int, spreads) -> SpreadSystem:
        """The system of blocks built elsewhere: each spread must consist of exactly v
        blocks that partition {1..n}, with at most one of them empty."""
        rows = tuple(new_row(v) for _ in range(n))
        for si, blocks in enumerate(spreads, start=1):
            if len(blocks) != v:
                raise ValueError(f"spread {si} has {len(blocks)} blocks, expected {v}")
            if sum(1 for b in blocks if not b) > 1:
                raise ValueError(f"spread {si} has more than one empty block")
            if sorted(e for b in blocks for e in b) != list(range(1, n + 1)):
                raise ValueError(f"spread {si} does not partition 1..{n}")
            for pos, b in enumerate(blocks):
                for e in b:
                    rows[e - 1].append(pos)
        return cls(n, v, rows)

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
