"""Shared helpers for the test suite: seeded random generators for arrays and types,
hand-built realization states, and the padding of a spread system."""

import random
from itertools import combinations

from locarray import Shape, TestArray, VType
from locarray.baranyai import RealizationState
from locarray.combinatorics import binomial


def random_array(rng: random.Random, max_rows=6, max_cols=6, max_symbols=4) -> TestArray:
    n = rng.randint(2, max_rows)
    k = rng.randint(1, max_cols)
    v = rng.randint(2, max_symbols)
    rows = tuple(tuple(rng.randrange(v) for _ in range(k)) for _ in range(n))
    return TestArray(rows, v)


def random_admissible_type(rng: random.Random, min_n=2, max_n=10) -> VType:
    """A random admissible type whose shapes sum to n: shapes are accepted greedily
    while capacities allow, and each shape's last entry takes what remains."""
    n = rng.randint(min_n, max_n)
    v = rng.randint(2, min(n + 1, 5))
    sigma = [0] * (n + 1)
    shapes: dict[Shape, int] = {}
    for _ in range(rng.randint(1, 10)):
        length = rng.randint(1, v)
        entries, remaining = [], n
        for _ in range(length - 1):
            e = rng.randint(0, remaining)
            entries.append(e)
            remaining -= e
        shape = Shape((*entries, remaining))
        if all(sigma[x] + shape.entries.count(x) <= binomial(n, x) for x in set(shape.entries)):
            shapes[shape] = shapes.get(shape, 0) + 1
            for x in shape.entries:
                sigma[x] += 1
    if not shapes:
        shapes[Shape((n,))] = 1
    return VType(n, v, shapes)


def padding_blocks(system) -> list[tuple[int, ...]]:
    """Every subset of 1..n that no block of the system uses, by size and then lexicographically."""
    used = {blk for sp in system.spreads for blk in sp}
    return [blk for size in range(system.n + 1)
            for blk in combinations(range(1, system.n + 1), size) if blk not in used]


def state_of_groups(n, tau, groups) -> RealizationState:
    """A hand-built realization state: one run of one group per given slot tuple, in index order."""
    return RealizationState(n, tau, tuple((slots, gi, 1) for gi, slots in enumerate(groups)))
