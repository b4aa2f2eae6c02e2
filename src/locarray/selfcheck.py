"""Diagnostic suites behind the selftest command.

Each suite returns a list of failure messages; an empty list means it passed.
The caps here are chosen so that the whole battery finishes in seconds.
"""

from __future__ import annotations

from collections import Counter

from .baranyai import advance, check_realization, decode_slot, init_realization
from .combinatorics import ALL_VARIANTS, inequality_failures, max_columns
from .oracle import max_k_exhaustive
from .spread_types import VType, build_variant_type, is_admissible

__all__ = [
    "SUITES",
    "formula_failures",
    "oracle_failures",
    "realization_failures",
    "type_failures",
    "type_realization_failures",
]


def formula_failures(max_n: int = 30) -> list[str]:
    """Closed-form spot checks of the optimal column count."""
    fails = []
    for n in range(2, max_n + 1):
        if max_columns(n, 2) != 1 << (n - 1):
            fails.append(f"max_columns({n}, 2) != 2^(n-1)")
    for n in range(3, max_n + 1):
        if max_columns(n, n) != 1:
            fails.append(f"max_columns({n}, {n}) != 1")
        if max_columns(n, n + 1) != 1:
            fails.append(f"max_columns({n}, {n + 1}) != 1")
    return fails


def type_failures(max_n: int = 12) -> list[str]:
    """Variant types: right size, admissible, no zeros when d-barred."""
    fails = []
    for n in range(2, max_n + 1):
        for variant in ALL_VARIANTS:
            for v in range(2, variant.max_symbols(n) + 1):
                t = build_variant_type(n, v, variant)
                where = f"n={n}, v={v}, {variant.label}"
                if t.size() != max_columns(n, v, variant):
                    fails.append(f"type size off at {where}")
                if not is_admissible(t):
                    fails.append(f"type inadmissible at {where}")
                if variant.d_barred and any(s.entries[0] == 0 for s, _ in t.items()):
                    fails.append(f"zero entry in barred type at {where}")
    return fails


def type_realization_failures(t: VType) -> list[str]:
    """Realize one admissible type, checking each step and the result.

    The counting invariant must hold after every step; the requested blocks
    must be pairwise distinct and their spreads must have the type's shapes.
    The padding is every subset no block uses, so the padded system is the
    powerset, once each, exactly when the blocks are also strictly increasing
    tuples inside 1..n.
    """
    n, v = t.n, t.v
    state = init_realization(t)
    for _ in range(n):
        state = advance(state)
        chk = check_realization(state)
        if not chk:
            return [
                f"count invariant broken at n={n}, v={v}, tau={state.tau}: {chk.block} "
                f"target {chk.target} occurs {chk.observed} times, at most {chk.expected} allowed"
            ]
    fails = []
    runs = [([decode_slot(n, s)[0] for s in slots], count) for slots, _first, count in state.runs]
    blocks = {b for run_blocks, _count in runs for b in run_blocks}
    distinct = len(blocks) == sum(count * len(run_blocks) for run_blocks, count in runs)
    if not distinct:
        fails.append(f"block distinctness broken at n={n}, v={v}")
    got: Counter[tuple[int, ...]] = Counter()
    for run_blocks, count in runs:
        got[tuple(sorted(map(len, run_blocks)))] += count
    if got != Counter({shape.entries: count for shape, count in t.items()}):
        fails.append(f"type fidelity broken at n={n}, v={v}")
    ground = set(range(1, n + 1))
    if not distinct or any(sorted(ground.intersection(b)) != list(b) for b in blocks):
        fails.append(f"padded system is not the powerset at n={n}, v={v}")
    return fails


def realization_failures(max_n: int = 6) -> list[str]:
    """Realize every optimal type up to the cap, checking each step and the result."""
    fails = []
    for n in range(2, max_n + 1):
        for v in range(2, n + 2):
            fails += type_realization_failures(build_variant_type(n, v))
    return fails


def oracle_failures(max_n: int = 4) -> list[str]:
    """Exhaustive search agrees with the formula on tiny ground sets."""
    fails = []
    for n in range(1, max_n + 1):
        for variant in ALL_VARIANTS:
            for v in range(2, variant.max_symbols(n) + 1):
                got, _ = max_k_exhaustive(n, v, variant, max_n=max_n)
                want = max_columns(n, v, variant)
                if got != want:
                    fails.append(
                        f"oracle disagrees at n={n}, v={v}, {variant.label}: {got} != {want}"
                    )
    return fails


SUITES = (
    ("formulas", formula_failures),
    ("inequalities", inequality_failures),
    ("types", type_failures),
    ("realization", realization_failures),
    ("oracle", oracle_failures),
)
