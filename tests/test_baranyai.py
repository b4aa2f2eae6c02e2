import itertools
import random
from collections import Counter

import pytest

from locarray import CapExceededError, Shape, VType, build_optimal_type, realize
from locarray.baranyai import (
    RealizationState,
    advance,
    build_step_network,
    check_realization,
    decode_slot,
    encode_slot,
    init_realization,
    integral_step_assignment,
)
from locarray.combinatorics import binomial
from locarray.spread_types import InadmissibleTypeError, make_full
from conftest import random_admissible_type


def pair_type(n=2):
    return VType(n, 2, {Shape((1, 1)): 1})


def group(n, blocks, targets):
    """A group of the realization state: one slot per (block, target)."""
    return tuple(encode_slot(n, blk, m) for blk, m in zip(blocks, targets))


def decoded(state):
    """Per group, its (block, target) pairs in position order."""
    return [[decode_slot(state.n, s) for s in slots] for slots in state.groups]


class TestInitRealization:
    def test_small_full_type(self):
        state = init_realization(pair_type())
        assert state.tau == 0
        assert state.groups == (group(2, ((), ()), (1, 1)),)
        assert check_realization(state)
        # the slack below each bound is the padding: the empty set and {1, 2}
        slack = {}
        for x in range(state.n + 1):
            used = sum(m == x for g in decoded(state) for _blk, m in g)
            slack[x] = binomial(state.n, x) - used
        assert slack == {0: 1, 1: 0, 2: 1}

    def test_non_full_input_rejected(self):
        with pytest.raises(InadmissibleTypeError):
            init_realization(VType(4, 2, {Shape((0, 4)): 2}))

    def test_slot_conservation(self):
        rng = random.Random(5)
        for _ in range(20):
            t = random_admissible_type(rng, max_n=8)
            state = init_realization(t)
            assert len(state.groups) == t.size()
            slots = sum(m for g in decoded(state) for _blk, m in g)
            padding = sum(x * (binomial(t.n, x) - t.sigma(x)) for x in range(t.n + 1))
            assert slots + padding == t.n * 2 ** (t.n - 1)
            assert check_realization(state)


class TestAdvance:
    def test_small_deterministic_step(self):
        state = advance(init_realization(pair_type()))
        # the bounds force exactly one of the two unit blocks to take element 1,
        # and the group may not skip: it has two open slots for two elements
        assert state.tau == 1
        assert state.groups == (group(2, ((1,), ()), (1, 1)),)

    def test_small_step_is_among_valid_outcomes(self):
        state = init_realization(VType(4, 2, {Shape((1, 3)): 1, Shape((2, 2)): 2}))
        for _ in range(state.n):
            ours = step_choice_vector(state)
            assert ours in brute_force_choices(state)
            state = advance(state)

    def test_assignment_stays_within_one_of_the_fractional_flow(self):
        # each aggregated arc carries floor or ceil of its fractional value,
        # so integral fractional values are forced exactly
        state = init_realization(build_optimal_type(3, 2))
        net = build_step_network(state)
        choice = integral_step_assignment(net)
        counts = class_option_counts(state, net, choice)
        for ci, cls in enumerate(net.classes):
            for cell_i, num, _pos in cls.arcs:
                got = counts[ci].get(cell_i, 0)
                assert abs(got * net.den - num) < net.den
                if num % net.den == 0:
                    assert got * net.den == num
            skip_got = counts[ci].get(len(net.cells), 0)
            assert abs(skip_got * net.den - cls.skip_numerator) < net.den

    def test_invariant_holds_through_all_steps(self):
        rng = random.Random(7)
        for _ in range(20):
            t = random_admissible_type(rng, max_n=8)
            state = init_realization(t)
            for _ in range(t.n):
                state = advance(state)
                assert check_realization(state)

    def test_advance_past_the_end_rejected(self):
        t = pair_type()
        state = init_realization(t)
        for _ in range(t.n):
            state = advance(state)
        with pytest.raises(ValueError):
            advance(state)


class TestCheckRealization:
    def test_mutated_block_is_caught(self):
        state = init_realization(VType(3, 2, {Shape((1, 2)): 1}))
        state = advance(state)
        assert check_realization(state)
        blocks, targets = zip(*decoded(state)[0])
        blocks = list(blocks)
        blocks[0] = (2,) if blocks[0] != (2,) else (3,)
        groups = list(state.groups)
        groups[0] = group(state.n, blocks, targets)
        verdict = check_realization(RealizationState(state.n, state.tau, tuple(groups)))
        assert not verdict
        assert verdict.block == blocks[0]
        assert verdict.observed > verdict.expected == 0
        # over-counts: a repeated group, and at tau = 0 two (0, 4) shapes on 4 points
        doubled = RealizationState(state.n, state.tau, state.groups * 2)
        verdict = check_realization(doubled)
        assert not verdict
        assert verdict.observed == verdict.expected + 1 == 2
        empty = group(4, ((), ()), (0, 4))
        verdict = check_realization(RealizationState(4, 0, (empty, empty)))
        assert not verdict
        assert (verdict.block, verdict.observed, verdict.expected) == ((), 2, 1)

    def test_final_state_counts(self):
        t = build_optimal_type(4, 2)
        state = init_realization(t)
        for _ in range(4):
            state = advance(state)
        assert check_realization(state)
        for g in decoded(state):
            for blk, m in g:
                assert len(blk) == m


class TestStepAssignmentAgainstBruteForce:
    def test_small_networks(self):
        cases = [
            pair_type(),
            VType(3, 2, {Shape((1, 2)): 2}),
            build_optimal_type(3, 2),
            VType(4, 3, {Shape((1, 1, 2)): 2, Shape((0, 2, 2)): 1}),
        ]
        rng = random.Random(19)
        while len(cases) < 12:
            t = random_admissible_type(rng, max_n=5)
            if t.size() <= 6:
                cases.append(t)
        for t in cases:
            state = init_realization(t)
            for _ in range(t.n):
                valid = brute_force_choices(state)
                ours = step_choice_vector(state)
                assert ours in valid
                state = advance(state)


class TestRealize:
    def test_three_matchings_on_four_points(self):
        system = realize(VType(4, 2, {Shape((2, 2)): 3}))
        assert len(system.spreads) == 3
        seen = []
        for sp in system.spreads:
            a, b = sp.blocks
            assert len(a) == len(b) == 2
            assert set(a) | set(b) == {1, 2, 3, 4}
            seen += [a, b]
        assert sorted(seen) == sorted(itertools.combinations(range(1, 5), 2))

    def test_exact_small_system(self):
        # the only system of this type up to relabeling; ours is the canonical one
        system = realize(build_optimal_type(3, 2))
        assert [sp.blocks for sp in system.spreads] == [
            ((), (1, 2, 3)),
            ((1,), (2, 3)),
            ((2,), (1, 3)),
            ((3,), (1, 2)),
        ]

    def test_inadmissible_type_rejected_with_witness(self):
        with pytest.raises(InadmissibleTypeError) as err:
            realize(VType(4, 2, {Shape((0, 4)): 2}))
        assert err.value.verdict.size == 0

    def test_cap(self):
        t = VType(17, 2, {Shape((8, 9)): 1})
        with pytest.raises(CapExceededError):
            realize(t)
        # explicit override allows it in principle; just check the gate logic
        system = realize(VType(3, 2, {Shape((1, 2)): 1}), max_n=3)
        assert system.n == 3

    def test_deterministic(self):
        t = build_optimal_type(5, 3)
        assert realize(t) == realize(t)

    def test_full_system_enumerates_the_powerset(self):
        rng = random.Random(11)
        for _ in range(10):
            t = random_admissible_type(rng, max_n=8)
            system = realize(t, include_fill=True)
            blocks = [b for sp in system.spreads for b in sp.blocks]
            assert len(blocks) == len(set(blocks)) == 2 ** t.n

    def test_type_fidelity(self):
        rng = random.Random(13)
        for _ in range(10):
            t = random_admissible_type(rng, max_n=8)
            system = realize(t)
            got = Counter(tuple(sorted(len(b) for b in sp.blocks)) for sp in system.spreads)
            want = Counter()
            for shape, count in t.items():
                want[shape.entries] += count
            assert got == want

    def test_blocks_within_a_spread_are_disjoint(self):
        rng = random.Random(17)
        for _ in range(10):
            t = random_admissible_type(rng, max_n=8)
            for sp in realize(t).spreads:
                elems = [e for b in sp.blocks for e in b]
                assert len(elems) == len(set(elems))

    def test_accepts_prebuilt_full_type(self):
        full = make_full(pair_type())
        system = realize(full, include_fill=True)
        assert len(system.spreads) == 3

    def test_fill_order(self):
        # requested spreads first, then each unused subset once, by size then lexicographically
        system = realize(VType(4, 2, {Shape((1, 3)): 1, Shape((2, 2)): 2}), include_fill=True)
        assert [(sp.tag, sp.blocks) for sp in system.spreads] == [
            ("requested", ((1,), (2, 3, 4))),
            ("requested", ((1, 3), (2, 4))),
            ("requested", ((1, 4), (2, 3))),
            ("fill", ((),)),
            ("fill", ((2,),)),
            ("fill", ((3,),)),
            ("fill", ((4,),)),
            ("fill", ((1, 2),)),
            ("fill", ((3, 4),)),
            ("fill", ((1, 2, 3),)),
            ("fill", ((1, 2, 4),)),
            ("fill", ((1, 3, 4),)),
            ("fill", ((1, 2, 3, 4),)),
        ]
        rng = random.Random(23)
        for _ in range(10):
            t = random_admissible_type(rng, max_n=8)
            spreads = realize(t, include_fill=True).spreads
            assert spreads[: t.size()] == realize(t).spreads
            fill = [sp.blocks for sp in spreads[t.size():]]
            used = {b for sp in spreads[: t.size()] for b in sp.blocks}
            unused = [
                b for x in range(t.n + 1) for b in itertools.combinations(range(1, t.n + 1), x)
                if b not in used
            ]
            assert fill == [(b,) for b in unused]
            assert all(sp.tag == "fill" for sp in spreads[t.size():])


# -- helpers ---------------------------------------------------------------


def step_choice_vector(state):
    return integral_step_assignment(build_step_network(state))


def class_option_counts(state, net, choice):
    """Per class, how many member groups took each option; skips count under index len(cells)."""
    counts: list[dict[int, int]] = [{} for _ in net.classes]
    cell_of = {c.slot: i for i, c in enumerate(net.cells)}
    gi_to_ci = {gi: ci for ci, cls in enumerate(net.classes) for gi in cls.members}
    for gi, pos in enumerate(choice):
        ci = gi_to_ci[gi]
        if pos is None:
            key = len(net.cells)
        else:
            key = cell_of[state.groups[gi][pos]]
        counts[ci][key] = counts[ci].get(key, 0) + 1
    return counts


def brute_force_choices(state):
    """All per-group choice vectors that keep the invariant and every group completable.

    A cell of c blocks that still need `need` elements must pass the element
    to between c - C(den - 1, need) and C(den - 1, need - 1) of them, and no
    group may be left with more open slots than elements remain.
    """
    den = state.n - state.tau
    groups = decoded(state)
    cells = Counter()
    options_per_group = []
    for g in groups:
        opts = [None]
        for pos, (blk, m) in enumerate(g):
            if m > len(blk):
                opts.append(pos)
                cells[(blk, m)] += 1
        options_per_group.append(opts)
    bounds = {
        (blk, m): (c - binomial(den - 1, m - len(blk)), binomial(den - 1, m - len(blk) - 1))
        for (blk, m), c in cells.items()
    }
    valid = []
    for combo in itertools.product(*options_per_group):
        tally = Counter()
        completable = True
        for g, pos in zip(groups, combo):
            open_slots = sum(m - len(blk) for blk, m in g)
            if pos is None:
                completable &= open_slots <= den - 1
            else:
                tally[g[pos]] += 1
        if completable and all(lo <= tally[key] <= hi for key, (lo, hi) in bounds.items()):
            valid.append(combo)
    return valid
