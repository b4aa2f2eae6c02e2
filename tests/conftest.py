"""Shared helpers for the test suite: seeded random generators for arrays and types,
the reference slot encoder, hand-built realization states and their groups, the
padding of a spread system, the distinct variant types of the small sweeps, and
cached engine walks and realizations, so each type is stepped and realized once.
Every cached walk is checked against the layout of the state's runs."""

import functools
import random
from itertools import combinations
from typing import NamedTuple

import pytest

from locarray import ALL_VARIANTS, Shape, TestArray, VType, build_variant_type, realize
from locarray import baranyai
from locarray.baranyai import (
    RealizationState,
    StepNetwork,
    advance,
    build_step_network,
    expand_runs,
    init_realization,
    integral_step_assignment,
    slot_increments,
)
from locarray.combinatorics import binomial
from locarray.spread_types import SpreadSystem


def random_array(rng: random.Random, max_rows=6, max_cols=6, max_symbols=4) -> TestArray:
    n = rng.randint(2, max_rows)
    k = rng.randint(1, max_cols)
    v = rng.randint(2, min(max_symbols, n + 1))  # a column has at most one empty class
    rows = tuple(tuple(rng.randrange(v) for _ in range(k)) for _ in range(n))
    return TestArray(rows, v)


def random_admissible_type(rng: random.Random, min_n=2, max_n=10) -> VType:
    """A random admissible v-type: shapes of v entries summing to n, cut at distinct
    random points below n, are accepted greedily while capacities allow; if none is,
    the type holds one balanced shape.

    Size 0 has room for one block, so a cut at 0 is drawn only while no shape holds
    a 0 part: no shape has two, and none is refused for the one it has."""
    n = rng.randint(min_n, max_n)
    v = rng.randint(2, min(n + 1, 5))
    sigma = [0] * (n + 1)
    shapes: dict[Shape, int] = {}
    for _ in range(rng.randint(1, 10)):
        points = range(1 if sigma[0] else 0, n)
        if v - 1 > len(points):  # at v = n + 1 every shape has a 0 part
            continue
        cuts = sorted(rng.sample(points, v - 1))
        shape = Shape(tuple(b - a for a, b in zip([0, *cuts], [*cuts, n])))
        if all(sigma[x] + shape.entries.count(x) <= binomial(n, x) for x in set(shape.entries)):
            shapes[shape] = shapes.get(shape, 0) + 1
            for x in shape.entries:
                sigma[x] += 1
    if not shapes:
        q, r = divmod(n, v)
        shapes[Shape((q,) * (v - r) + (q + 1,) * r)] = 1
    return VType(n, v, shapes)


def padding_blocks(system) -> list[tuple[int, ...]]:
    """Every subset of 1..n that no block of the system uses, by size and then lexicographically."""
    used = {blk for sp in system.spreads for blk in sp}
    return [blk for size in range(system.n + 1)
            for blk in combinations(range(1, system.n + 1), size) if blk not in used]


def encode_slot(n: int, block, target: int) -> int:
    """One block and its target size as a single int, as the realization state holds it.

    In base n + 1: the block's elements, most significant first and padded with
    zeros to n digits, then its size, then the target (see baranyai.decode_slot).
    """
    base = n + 1
    digits = sum(e * base ** (n - 1 - i) for i, e in enumerate(block))
    return (digits * base + len(block)) * base + target


def run_of(slots, first, count):
    """A run of the state from its groups' slots in shape order: (sorted slots, the shape
    position of each, first, count), equal slots by position."""
    pairs = sorted(zip(slots, range(len(slots))))
    return tuple([s for s, _pos in pairs]), tuple([pos for _s, pos in pairs]), first, count


def state_of_groups(n, tau, groups) -> RealizationState:
    """A hand-built realization state: one run of one group per given slot tuple, in index
    order, and no rows, which the checks these states are built for never read."""
    return RealizationState(n, tau, tuple(run_of(slots, gi, 1) for gi, slots in enumerate(groups)),
                            ())


def groups_of(state: RealizationState) -> tuple[tuple[int, ...], ...]:
    """Per group, in index order, its slots in shape order."""
    return expand_runs(state.runs)


def assert_run_layout(state: RealizationState, before: RealizationState | None = None):
    """The layout of an engine state's runs, and with the state it was stepped from, that
    every block keeps its shape position.

    Each run's slots are sorted, equal only among empty blocks, which come first and by
    position, then nonempty blocks by least element. Runs increase strictly by slots.
    order is a permutation of range(v), and in shape order each group of the state holds
    the blocks of its group before the step, one of them with element tau added."""
    n, base = state.n, state.n + 1
    top = base ** (n + 1)  # a slot's leading digit, its block's least element, sits here
    for slots, order, _first, _count in state.runs:
        assert sorted(order) == list(range(len(slots))), state.tau
        for s, t, p, q in zip(slots, slots[1:], order, order[1:]):
            assert s < t or s == t < base and p < q, (state.tau, slots, order)
            assert s // top < t // top or t < base, (state.tau, slots)
    keys = [run[0] for run in state.runs]
    assert all(a < b for a, b in zip(keys, keys[1:])), state.tau
    if before is None:
        return
    inc = slot_increments(n, state.tau)
    for old, new in zip(groups_of(before), groups_of(state), strict=True):
        moved = [(a, b) for a, b in zip(old, new, strict=True) if a != b]
        assert len(moved) == 1 and moved[0][1] - moved[0][0] == inc[moved[0][0] // base % base], \
            (state.tau, old, new)


@functools.cache
def distinct_variant_types(max_n: int = 12) -> tuple[VType, ...]:
    """build_variant_type at every (n, v, variant) with n <= max_n, each distinct type once,
    in the order of the sweep over n, then variant, then v.

    For v >= 3 the t-barred variant gives the base type and the both-barred variant the
    d-barred type, and at v = 2 the three barred variants give one type, so up to twelve
    points the 288 points give 145 types."""
    types: dict = {}
    for n in range(1, max_n + 1):
        for variant in ALL_VARIANTS:
            for v in range(2, variant.max_symbols(n) + 1):
                t = build_variant_type(n, v, variant)
                types.setdefault(_key(t), t)
    return tuple(types.values())


class Step(NamedTuple):
    """One call of advance: the state it started from, the network and the assignment it used."""

    state: RealizationState
    network: StepNetwork | None  # None, as the assignment, in a walk that keeps states only
    assignment: tuple | None


class Trajectory(NamedTuple):
    steps: tuple[Step, ...]
    final: RealizationState  # after all n steps


class Realized(NamedTuple):
    system: SpreadSystem
    builds: int  # step networks realize built


# A walk of more groups keeps its states only. The networks of (16, 2)'s 32768
# groups would hold about 15 MiB, and no test compares networks that large.
MAX_GROUPS_WITH_NETWORKS = 2 ** 13

# by type key; every record is immutable, so the tests that read one share it
_trajectories: dict = {}
_realized: dict = {}


def _key(t: VType):
    return t.n, t.v, tuple(t.items())


@pytest.fixture(scope="module", autouse=True)
def _drop_trajectories():
    """A test module's walks go when it ends: their readers share one module, and kept
    longer their named tuples, which the garbage collector never untracks, slow every
    later full collection."""
    yield
    _trajectories.clear()


def trajectory(t: VType) -> Trajectory:
    """advance stepped n times from init_realization(t), once per type in a test module.

    Each step records the network and the assignment advance itself used: the
    engine's two calls are wrapped while it runs, and each step must make one
    build and one rounding of the network it just built. Each state must keep the
    run layout (assert_run_layout).
    """
    key = _key(t)
    if key not in _trajectories:
        nets, assignments = [], []

        def build(state):
            nets.append(build_step_network(state))
            return nets[-1]

        def rounding(net):
            assert net is nets[-1], "the rounding got a network the step did not build"
            assignments.append(integral_step_assignment(net))
            return assignments[-1]

        states = [init_realization(t)]
        assert_run_layout(states[0])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(baranyai, "build_step_network", build)
            patch.setattr(baranyai, "integral_step_assignment", rounding)
            for tau in range(1, t.n + 1):
                states.append(advance(states[-1]))
                assert len(nets) == len(assignments) == tau, (t, tau)
                assert_run_layout(states[-1], states[-2])
        if t.size() > MAX_GROUPS_WITH_NETWORKS:
            nets = assignments = [None] * t.n
        _trajectories[key] = Trajectory(tuple(map(Step, states, nets, assignments)), states[-1])
    return _trajectories[key]


def realized(t: VType) -> Realized:
    """realize(t), once per type in the session, with the number of step networks it built."""
    key = _key(t)
    if key not in _realized:
        builds = []

        def build(state):
            builds.append(None)
            return build_step_network(state)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(baranyai, "build_step_network", build)
            system = realize(t)
        _realized[key] = Realized(system, len(builds))
    return _realized[key]
