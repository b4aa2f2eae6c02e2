"""Stable text and JSON documents for types, spread systems, and arrays.

Array text format: a header line "n k v" followed by n lines of k
space-separated symbols. Type text format: "N <n>" and "v <v>" header lines,
then one "<count> x <sizes...>" line per distinct shape. Spread-system text
format: "N <n>" and "spreads <count>" header lines, then one line per spread
with its tag and comma-joined blocks ("-" for the empty block). JSON mirrors
carry the same fields. Parsers auto-detect JSON input and raise only
ValueError on a malformed document. Table and oracle documents are written
only.
"""

from __future__ import annotations

import json

from .arrays import TestArray
from .baranyai import SpreadSystem
from .combinatorics import Variant
from .spread_types import Shape, VType

__all__ = [
    "format_array",
    "format_oracle",
    "format_spread_system",
    "format_table",
    "format_type",
    "parse_array",
    "parse_type",
]


def _looks_like_json(text: str) -> bool:
    return text.lstrip().startswith("{")


def _fields(doc, *keys: str) -> list:
    """The values of the given keys of a JSON object."""
    if not isinstance(doc, dict) or any(key not in doc for key in keys):
        raise ValueError(f"expected a JSON object with the keys {', '.join(keys)}")
    return [doc[key] for key in keys]


def _list(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a JSON list, got {value!r:.40}")
    return value


def _int(value) -> int:
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r:.40}")
    return value


def format_type(t: VType, fmt: str = "text") -> str:
    if fmt == "json":
        doc = {
            "n": t.n,
            "v": t.v,
            "shapes": [
                {"count": count, "entries": list(shape.entries)} for shape, count in t.items()
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"N {t.n}", f"v {t.v}"]
    for shape, count in t.items():
        lines.append(f"{count} x {' '.join(str(e) for e in shape.entries)}")
    return "\n".join(lines) + "\n"


def parse_type(text: str) -> VType:
    if _looks_like_json(text):
        n, v, items = _fields(json.loads(text), "n", "v", "shapes")
        shapes = []
        for item in _list(items):
            entries, count = _fields(item, "entries", "count")
            shapes.append((Shape(tuple(_int(e) for e in _list(entries))), _int(count)))
        return VType(_int(n), _int(v), shapes)
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = [ln.split() for ln in lines[:2]]
    if [h[0] for h in header] != ["N", "v"] or any(len(h) != 2 for h in header):
        raise ValueError("type document must start with 'N <int>' and 'v <int>' lines")
    n, v = (int(h[1]) for h in header)
    shapes: list[tuple[Shape, int]] = []
    for ln in lines[2:]:
        head, _, tail = ln.partition(" x ")
        if not tail:
            raise ValueError(f"bad shape line: {ln!r}")
        shapes.append((Shape(tuple(int(e) for e in tail.split())), int(head)))
    return VType(n, v, shapes)


def _block_text(block: tuple[int, ...]) -> str:
    return ",".join(str(e) for e in block) if block else "-"


def format_spread_system(system: SpreadSystem, fmt: str = "text") -> str:
    if fmt == "json":
        doc = {
            "n": system.n,
            "spreads": [
                {"tag": sp.tag, "blocks": [list(b) for b in sp.blocks]} for sp in system.spreads
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"N {system.n}", f"spreads {len(system.spreads)}"]
    for sp in system.spreads:
        lines.append(f"{sp.tag}: " + " ".join(_block_text(b) for b in sp.blocks))
    return "\n".join(lines) + "\n"


def format_array(arr: TestArray, fmt: str = "text") -> str:
    if fmt == "json":
        doc = {
            "n": arr.n_rows,
            "k": arr.k,
            "v": arr.v,
            "rows": [list(r) for r in arr.rows],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"{arr.n_rows} {arr.k} {arr.v}"]
    for r in arr.rows:
        lines.append(" ".join(str(a) for a in r))
    return "\n".join(lines) + "\n"


def parse_array(text: str) -> TestArray:
    if _looks_like_json(text):
        n, k, v, rows = _fields(json.loads(text), "n", "k", "v", "rows")
        n, k = _int(n), _int(k)
        arr = TestArray(tuple(tuple(_int(a) for a in _list(r)) for r in _list(rows)), _int(v))
    else:
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty array document")
        header = lines[0].split()
        if len(header) != 3:
            raise ValueError("array header must be 'n k v'")
        n, k, v = (int(x) for x in header)
        body = lines[1:]
        if len(body) < n:
            raise ValueError(f"expected {n} rows, found {len(body)}")
        if any(ln.strip() for ln in body[n:]):
            raise ValueError(f"unexpected lines after the {n} declared rows")
        rows = []
        for ln in body[:n]:
            row = tuple(int(a) for a in ln.split())
            if len(row) != k:
                raise ValueError(f"expected {k} entries per row, got {len(row)}")
            rows.append(row)
        arr = TestArray(tuple(rows), v)
    if arr.n_rows != n or arr.k != k:
        raise ValueError("array header disagrees with its rows")
    return arr


def format_table(variant: Variant, vs: list[int], rows: list[tuple[int, list[int]]],
                 fmt: str = "text") -> str:
    """A grid of optimal column counts: one (n, values for each v in vs) per row."""
    if fmt == "json":
        doc = {
            "variant": variant.label,
            "v": vs,
            "rows": [{"n": n, "values": values} for n, values in rows],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = ["N\\v " + " ".join(str(v) for v in vs)]
    for n, values in rows:
        lines.append(f"{n} " + " ".join(str(x) for x in values))
    return "\n".join(lines) + "\n"


def format_oracle(n: int, v: int, variant: Variant, best: int, witness, fmt: str = "text") -> str:
    """The exhaustive maximum and its witness partitions, classes sorted."""
    if fmt == "json":
        doc = {
            "n": n,
            "v": v,
            "variant": variant.label,
            "max_k": best,
            "witness": [[sorted(cl) for cl in part] for part in witness],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"max-k {best}"]
    for i, part in enumerate(witness, start=1):
        lines.append(f"{i}: " + " ".join(_block_text(tuple(sorted(cl))) for cl in part))
    return "\n".join(lines) + "\n"
