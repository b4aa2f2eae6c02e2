"""Diagnostic suites behind the selftest command.

Each suite returns a list of failure messages; an empty list means it passed.
The caps here are chosen so that the whole battery finishes in seconds.
"""

from __future__ import annotations

from collections import Counter

from .baranyai import advance, check_realization, init_realization, realize
from .combinatorics import ALL_VARIANTS, inequality_failures, max_columns
from .oracle import max_k_exhaustive
from .spread_types import VType, build_optimal_type, build_variant_type, is_admissible, make_full

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
    """Optimal and variant types: right size, admissible, no zeros when barred."""
    fails = []
    for n in range(2, max_n + 1):
        for v in range(2, n + 2):
            t = build_optimal_type(n, v)
            if t.size() != max_columns(n, v):
                fails.append(f"optimal type size off at n={n}, v={v}")
            if not is_admissible(t):
                fails.append(f"optimal type inadmissible at n={n}, v={v}")
            for variant in ALL_VARIANTS[1:]:
                if variant.d_barred and v > n:
                    continue
                vt = build_variant_type(n, v, variant)
                if vt.size() != max_columns(n, v, variant):
                    fails.append(f"variant type size off at n={n}, v={v}, {variant.label}")
                if not is_admissible(vt):
                    fails.append(f"variant type inadmissible at n={n}, v={v}, {variant.label}")
                if variant.d_barred and any(s.entries[0] == 0 for s, _ in vt.items()):
                    fails.append(f"zero entry in barred type at n={n}, v={v}, {variant.label}")
    return fails


def type_realization_failures(t: VType) -> list[str]:
    """Realize one admissible type, checking each step and the result.

    The counting invariant must hold after every step; the requested blocks
    must be pairwise distinct and their spreads must have the type's shapes;
    with the padding spreads added, the blocks must be the powerset, once each.
    """
    n, v = t.n, t.v
    state = init_realization(make_full(t))
    for _ in range(n):
        state = advance(state)
        chk = check_realization(state)
        if not chk:
            return [
                f"count invariant broken at n={n}, v={v}, tau={state.tau}: {chk.block} "
                f"target {chk.target} occurs {chk.observed} times, at most {chk.expected} allowed"
            ]
    fails = []
    blocks = [b for g in state.groups for b in g.blocks]
    if len(set(blocks)) != len(blocks):
        fails.append(f"block distinctness broken at n={n}, v={v}")
    got = Counter(tuple(sorted(len(b) for b in g.blocks)) for g in state.groups)
    if got != Counter({shape.entries: count for shape, count in t.items()}):
        fails.append(f"type fidelity broken at n={n}, v={v}")
    padded = [b for sp in realize(t, include_fill=True).spreads for b in sp.blocks]
    ground = set(range(1, n + 1))
    subsets = {b for b in padded if sorted(set(b) & ground) == list(b)}
    if len(subsets) != len(padded) or len(padded) != 1 << n:
        fails.append(f"padded system is not the powerset at n={n}, v={v}")
    return fails


def realization_failures(max_n: int = 6) -> list[str]:
    """Realize every optimal type up to the cap, checking each step and the result."""
    fails = []
    for n in range(2, max_n + 1):
        for v in range(2, n + 2):
            fails += type_realization_failures(build_optimal_type(n, v))
    return fails


def oracle_failures(max_n: int = 4) -> list[str]:
    """Exhaustive search agrees with the formula on tiny ground sets."""
    fails = []
    for n in range(1, max_n + 1):
        for variant in ALL_VARIANTS:
            top = n if variant.d_barred else n + 1
            for v in range(2, top + 1):
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
