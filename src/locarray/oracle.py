"""Small-scale ground truth, kept independent of the construction modules.

The exhaustive search and the quantifier-level verifier below work straight
from the definitions (partitions with globally distinct classes) and share no
logic with the bound formulas or the realization engine, so they can serve as
oracles for both. They are only meant for tiny ground sets.
"""

from __future__ import annotations

from typing import Iterator

from .arrays import TestArray, Verdict
from .baranyai import CapExceededError
from .combinatorics import VARIANT_11, Variant

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_SEARCH_CAP",
    "Partition",
    "enumerate_partitions",
    "max_k_exhaustive",
    "verify_by_definition",
]

DEFAULT_ENUMERATION_CAP = 8
DEFAULT_SEARCH_CAP = 5

Partition = tuple[frozenset[int], ...]


def enumerate_partitions(
    n: int,
    v: int,
    allow_empty: bool,
    max_n: int = DEFAULT_ENUMERATION_CAP,
) -> Iterator[Partition]:
    """Yield every partition of {1..n} into exactly v classes, each exactly once.

    With allow_empty the padding classes are empty sets, so anywhere between 1
    and v classes are nonempty; otherwise all v classes are nonempty. Classes
    within a partition are ordered canonically and the stream order is fixed.
    """
    if n > max_n:
        raise CapExceededError(f"ground set size {n} exceeds the enumeration cap ({max_n})")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if v < 1:
        raise ValueError(f"need v >= 1, got {v}")

    assign = [0] * n

    def rec(i: int, used: int) -> Iterator[Partition]:
        if i == n:
            if used == v or (allow_empty and used <= v):
                classes: list[list[int]] = [[] for _ in range(used)]
                for e in range(n):
                    classes[assign[e]].append(e + 1)
                part = [frozenset(c) for c in classes]
                part.extend(frozenset() for _ in range(v - used))
                yield tuple(sorted(part, key=lambda c: tuple(sorted(c))))
            return
        for ci in range(min(used + 1, v)):
            assign[i] = ci
            yield from rec(i + 1, used + 1 if ci == used else used)

    yield from rec(0, 0)


def max_k_exhaustive(
    n: int,
    v: int,
    variant: Variant = VARIANT_11,
    max_n: int = DEFAULT_SEARCH_CAP,
) -> tuple[int, list[Partition]]:
    """Exact maximum number of partitions with globally distinct classes.

    Backtracking search over all candidate partitions; two partitions are
    compatible when they share no class, so a valid system is a clique in the
    compatibility graph. Returns (k, witness) with the lexicographically least
    witness of maximum size. Only for small n.
    """
    if n > max_n:
        raise CapExceededError(f"ground set size {n} exceeds the search cap ({max_n})")
    if v < 2:
        raise ValueError(f"need v >= 2, got {v}")
    if n >= 1 and v > n + 1:  # no class repeats, so at most one is empty: at most n + 1 classes
        return 0, []
    full = frozenset(range(1, n + 1))
    candidates: list[Partition] = []
    for part in enumerate_partitions(n, v, allow_empty=not variant.d_barred, max_n=max_n):
        if len(set(part)) != len(part):  # at least two empty padding classes
            continue
        if variant.t_barred and full in part:
            continue
        candidates.append(part)

    m = len(candidates)
    class_sets = [frozenset(p) for p in candidates]
    compat = [0] * m  # bitmask of later compatible candidates
    for i in range(m):
        for j in range(i + 1, m):
            if class_sets[i].isdisjoint(class_sets[j]):
                compat[i] |= 1 << j

    best = 0
    best_witness: list[int] = []
    chosen: list[int] = []

    def extend(pool: int) -> None:
        nonlocal best, best_witness
        if len(chosen) > best:
            best = len(chosen)
            best_witness = chosen[:]
        if len(chosen) + pool.bit_count() <= best:
            return
        p = pool
        while p:
            low = p & -p
            j = low.bit_length() - 1
            p ^= low
            if len(chosen) + 1 + p.bit_count() < best:
                break
            chosen.append(j)
            extend(compat[j] & p)
            chosen.pop()

    extend((1 << m) - 1)
    return best, [candidates[j] for j in best_witness]


def verify_by_definition(arr: TestArray, variant: Variant = VARIANT_11) -> Verdict:
    """Quantifier-level check of the defining property, independent of verify_la.

    Enumerates all allowed families of at most one interaction for the variant
    and compares covered row sets pairwise: distinct families must cover
    distinct row sets.
    """
    n, k, v = arr.n_rows, arr.k, arr.v

    def rows_of(interaction: frozenset[tuple[int, int]]) -> frozenset[int]:
        return frozenset(
            r
            for r in range(1, n + 1)
            if all(arr.rows[r - 1][c - 1] == s for c, s in interaction)
        )

    pool = [frozenset({(c, s)}) for c in range(1, k + 1) for s in range(v)]
    if variant.t_barred:
        pool.append(frozenset())  # the empty interaction: covered by every row
    families = [frozenset({t}) for t in pool]
    if variant.d_barred:
        families.append(frozenset())  # the empty family: covers no rows

    covers = []
    for fam in families:
        rows: frozenset[int] = frozenset()
        for t in fam:
            rows |= rows_of(t)
        covers.append(rows)

    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            if covers[i] == covers[j]:
                pairs = tuple(sorted(p for t in (families[i] | families[j]) for p in t))
                return Verdict(False, "two interaction families cover the same rows", pairs)
    return Verdict(True)
