import itertools
import random
from collections import Counter, deque
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from locarray import (
    CapExceededError,
    Shape,
    TestArray,
    VType,
    Verdict,
    build_variant_type,
    is_admissible,
    realize,
    verify_la,
)
from locarray.baranyai import (
    RealizationState,
    StepInfeasibleError,
    StepNetwork,
    _finish,
    advance,
    build_step_network,
    check_realization,
    decode_slot,
    expand_runs,
    init_realization,
    integral_step_assignment,
)
from locarray.combinatorics import binomial
from locarray.spread_types import InadmissibleTypeError, SpreadSystem, make_full
from conftest import (
    distinct_variant_types,
    encode_slot,
    groups_of,
    padding_blocks,
    random_admissible_type,
    realized,
    run_of,
    state_of_groups,
    trajectory,
)


def pair_type(n=2):
    return VType(n, 2, {Shape((1, 1)): 1})


def group(n, blocks, targets):
    """A group of the realization state: one slot per (block, target)."""
    return tuple(encode_slot(n, blk, m) for blk, m in zip(blocks, targets))


def decoded(state):
    """Per group, its (block, target) pairs in position order."""
    return [[decode_slot(state.n, s) for s in slots] for slots in groups_of(state)]


class TestInitRealization:
    def test_small_full_type(self):
        state = init_realization(pair_type())
        assert state.tau == 0
        assert groups_of(state) == (group(2, ((), ()), (1, 1)),)
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
            assert len(groups_of(state)) == t.size()
            slots = sum(m for g in decoded(state) for _blk, m in g)
            sigma = [sum(s.count(x) * c for s, c in t.shapes) for x in range(t.n + 1)]
            padding = sum(x * (binomial(t.n, x) - sigma[x]) for x in range(t.n + 1))
            assert slots + padding == t.n * 2 ** (t.n - 1)
            assert check_realization(state)


class TestAdvance:
    def test_small_deterministic_step(self):
        state = advance(init_realization(pair_type()))
        # the bounds force exactly one of the two unit blocks to take element 1
        assert state.tau == 1
        assert groups_of(state) == (group(2, ((1,), ()), (1, 1)),)

    def test_small_step_is_among_valid_outcomes(self):
        state = init_realization(VType(4, 2, {Shape((1, 3)): 1, Shape((2, 2)): 2}))
        for _ in range(state.n):
            ours = step_choice_vector(state)
            assert ours in brute_force_choices(state)
            state = advance(state)

    def test_assignment_stays_within_one_of_the_fractional_flow(self):
        # each aggregated arc carries floor or ceil of its fractional value,
        # so integral fractional values are forced exactly
        state = init_realization(build_variant_type(3, 2))
        net = build_step_network(state)
        view = member_view(net, state)
        choice = expand_choices(view, integral_step_assignment(net))
        counts = class_cell_counts(state, view, choice)
        for ci, cls in enumerate(view.classes):  # cells numbered as in the view's counts
            for cell_i, num, _pos in cls.arcs:
                got = counts[ci].get(cell_i, 0)
                assert abs(got * net.den - num) < net.den
                if num % net.den == 0:
                    assert got * net.den == num

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


class TestRunInvariant:
    """The state is runs of identical groups: they tile the group indices and only split."""

    @staticmethod
    def assert_runs_hold(t):
        walk = trajectory(t)
        for state in [step.state for step in walk.steps] + [walk.final]:
            spans = sorted((first, count) for *_key, first, count in state.runs)
            end = 0
            for first, count in spans:
                assert first == end and count > 0, (t, state.tau)
                end += count
            assert end == t.size(), (t, state.tau)
            keys = [sorted(slots) for slots, *_rest in state.runs]
            assert all(a < b for a, b in zip(keys, keys[1:])), (t, state.tau)
            assert check_realization(state), (t, state.tau)

    def test_every_variant_up_to_twelve_points(self):
        for t in distinct_variant_types():
            self.assert_runs_hold(t)

    def test_sixteen_points(self):
        for v in (2, 3):
            self.assert_runs_hold(build_variant_type(16, v))


class TestRows:
    """Each step's row holds, per group, the position of the block that took its element."""

    @staticmethod
    def assert_rows_match_the_slots(t):
        walk = trajectory(t)
        for state in [step.state for step in walk.steps] + [walk.final]:
            assert [list(row) for row in state.rows] == decoded_rows(state), (t, state.tau)

    def test_every_variant_up_to_twelve_points(self):
        for t in distinct_variant_types():
            self.assert_rows_match_the_slots(t)

    def test_sixteen_points(self):
        for v in (2, 3, 4):
            self.assert_rows_match_the_slots(build_variant_type(16, v))


class TestTracedCounts:
    """The step network's totals over a walk, which the benchmark traces per realization
    through the cells and classes views."""

    # per v at n = 16, summed over the n builds: cells, classes, and groups less the
    # units floored onto arcs (the units the rounding routes)
    TOTALS = {2: (131054, 98295, 0), 3: (23766, 41741, 36028)}

    @pytest.mark.parametrize("v", [2, 3])
    def test_sixteen_points(self, v):
        cells = classes = routed = 0
        for step in trajectory(build_variant_type(16, v)).steps:
            net = build_step_network(step.state)
            cells += len(net.low)
            classes += len(net.counts)
            routed += sum(net.counts) - sum([num // net.den for arcs in net.arcs
                                             for num in arcs[1::3]])
        assert (cells, classes, routed) == self.TOTALS[v]

    def test_views_agree_with_the_flat_fields(self):
        step = trajectory(build_variant_type(16, 3)).steps[8]
        net = build_step_network(step.state)
        assert [tuple(cell) for cell in net.cells] == list(zip(net.low, net.high))
        classes = net.classes
        assert [cls.count for cls in classes] == net.counts == [c for *_k, c in step.state.runs]
        assert [tuple(x for arc in cls.arcs for x in arc) for cls in classes] == net.arcs
        assert all(len(arc) == 3 for cls in classes for arc in cls.arcs)
        assert {cls.skip_numerator for cls in classes} == {0}


class TestCheckRealization:
    def test_mutated_block_is_caught(self):
        state = init_realization(VType(3, 2, {Shape((1, 2)): 1}))
        state = advance(state)
        assert check_realization(state)
        blocks, targets = zip(*decoded(state)[0])
        blocks = list(blocks)
        blocks[0] = (2,) if blocks[0] != (2,) else (3,)
        groups = list(groups_of(state))
        groups[0] = group(state.n, blocks, targets)
        verdict = check_realization(state_of_groups(state.n, state.tau, groups))
        assert not verdict
        assert verdict.reason == f"{blocks[0]} target {targets[0]} occurs 1 times, at most 0 allowed"
        assert verdict.witness == ((blocks[0], targets[0]),)
        # over-counts: a repeated group, and at tau = 0 two (0, 4) shapes on 4 points
        doubled = state_of_groups(state.n, state.tau, groups_of(state) * 2)
        verdict = check_realization(doubled)
        assert not verdict
        assert verdict.reason == "() target 2 occurs 2 times, at most 1 allowed"
        assert verdict.witness == (((), 2),)
        empty = group(4, ((), ()), (0, 4))
        verdict = check_realization(state_of_groups(4, 0, (empty, empty)))
        assert not verdict
        assert verdict.reason == "() target 0 occurs 2 times, at most 1 allowed"
        assert verdict.witness == (((), 0),)

    def test_every_check_fails_with_a_verdict(self):
        empty = group(4, ((), ()), (0, 4))
        failures = [
            is_admissible(VType(4, 2, {Shape((0, 4)): 2})),
            check_realization(state_of_groups(4, 0, (empty, empty))),
            verify_la(TestArray(((0, 0),), 2)),
        ]
        assert [type(verdict) for verdict in failures] == [Verdict] * 3
        assert not any(failures)

    def test_a_run_counts_each_of_its_groups(self):
        # one run of two identical groups over-counts as the two groups listed apart do
        state = advance(init_realization(VType(3, 2, {Shape((1, 2)): 1})))
        (slots,) = groups_of(state)
        doubled = RealizationState(state.n, state.tau, (run_of(slots, 0, 2),), ())
        verdict = check_realization(doubled)
        assert not verdict
        assert verdict == check_realization(state_of_groups(state.n, state.tau, (slots, slots)))

    def test_final_state_counts(self):
        t = build_variant_type(4, 2)
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
            build_variant_type(3, 2),
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


class TestStepAssignmentAgainstReference:
    """The rounding makes the same choices as a plain model of its rule on per-class lists
    (reference_step_assignment): cells below their lower bound filled in the engine's cell
    order, each from its first free feeder or along a shortest backward path, then the
    leftovers placed forward, both searches queueing classes."""

    @staticmethod
    def assert_same_choices(t):
        for step in trajectory(t).steps:
            view = member_view(step.network, step.state)
            got = expand_choices(view, step.assignment)
            assert got == reference_step_assignment(view), (t, step.state.tau)

    def test_every_variant_up_to_twelve_points(self):
        for t in distinct_variant_types():
            self.assert_same_choices(t)

    def test_sixteen_points(self):
        for v in (3, 4):
            self.assert_same_choices(build_variant_type(16, v))

    def test_random_types(self):
        rng = random.Random(29)
        for _ in range(200):
            self.assert_same_choices(random_admissible_type(rng))

    def test_random_networks(self):
        # hand-built networks: each class splits den units per group among one
        # or more arcs, and some numerators are off by one; each cell's bounds
        # lie around the units floored onto it, so most networks get past the
        # floor and each of the four errors still occurs; both roundings give
        # the same choices or error
        def outcome(rounding):
            try:
                return rounding()
            except StepInfeasibleError as err:
                return str(err)

        rng = random.Random(31)
        outcomes = Counter()
        for _ in range(3000):
            den, ncells = rng.randint(1, 5), rng.randint(1, 5)
            tally = [0] * ncells
            counts, arcs = [], []
            for _ in range(rng.randint(1, 6)):
                size = rng.randint(1, 3)
                targets = sorted(rng.sample(range(ncells), rng.randint(1, ncells)))
                cuts = sorted(rng.randint(0, den * size) for _ in targets[1:]) + [den * size]
                flat = []
                for pos, (ci, lo, hi) in enumerate(zip(targets, [0, *cuts], cuts)):
                    num = hi - lo + rng.choice((-1, 0, 0, 0, 0, 0, 0, 1))
                    tally[ci] += num // den
                    flat += (ci, num, pos)
                counts.append(size)
                arcs.append(tuple(flat))
            bounds = [(t + rng.choice((-2, -1, -1, 0, 0, 1)), t + rng.randint(0, 4))
                      for t in tally]
            net = StepNetwork(0, den, [lo for lo, _hi in bounds], [hi for _lo, hi in bounds],
                              counts, arcs)
            view = member_view(net)
            got = outcome(lambda: expand_choices(view, integral_step_assignment(net)))
            assert got == outcome(lambda: reference_step_assignment(view)), net
            outcomes["choices" if isinstance(got, tuple) else got] += 1
        assert len(outcomes) == 5, outcomes  # the choices and each of the four errors
        assert outcomes["choices"] >= 1500, outcomes  # at least half reach a choice


class TestLowerBoundsFromTheDeficitSide:
    """Phase 1 on hand-built networks: two classes of one group each, den = 2."""

    def test_a_feeder_gives_up_a_short_cell_to_a_second_class(self):
        # cells 0 and 1 each need one unit; class 0 feeds both, class 1 feeds cell 0 and
        # the free cell 2. Cell 0 takes class 0's unit; cell 1's only feeder has none left,
        # so the backward path 1 <- class 0 <- cell 0 <- class 1 moves class 0 to cell 1
        # and gives cell 0 to class 1
        net = StepNetwork(0, 2, [1, 1, 0], [1, 1, 1], [1, 1],
                          [(0, 1, 0, 1, 1, 1), (0, 1, 0, 2, 1, 1)])
        assert integral_step_assignment(net) == ((1, 1), (0, 1))

    def test_a_short_cell_that_no_path_reaches_raises_before_phase_two(self):
        # class 0 fills cell 0 and then has nothing to give cell 1; class 1's unit has no
        # room at all, which phase 2 would report, but phase 1 raises first
        net = StepNetwork(0, 2, [1, 1, 0, 0], [1, 1, 0, 0], [1, 1],
                          [(0, 1, 0, 1, 1, 1), (2, 1, 0, 3, 1, 1)])
        with pytest.raises(StepInfeasibleError, match="below its lower bound"):
            integral_step_assignment(net)


class TestHoldersInTakeOrder:
    """Phase 2 scans a full cell's holders in the order they took it, not in class order."""

    def test_a_later_holder_with_a_smaller_class_is_scanned_last(self):
        # den = 3, four classes of one group each; cells W, X, G, E, H = 0..4. Phase 1 gives
        # W class 0 and X class 1. Class 2 can only go through W, so class 0 moves on to X,
        # which then holds class 1 before class 0. Class 3 can only go through X: class 1
        # is scanned first and moves to E; in class order, class 0 would move to G
        net = StepNetwork(0, 3, [1, 1, 0, 0, 0], [1, 2, 1, 1, 0], [1, 1, 1, 1],
                          [(0, 1, 0, 1, 1, 1, 2, 1, 2), (1, 1, 0, 3, 2, 1),
                           (0, 1, 0, 4, 2, 1), (1, 1, 0, 4, 2, 1)])
        assert integral_step_assignment(net) == ((1, 1), (1, 1), (0, 1), (0, 1))


class TestStepNetworkAgainstReference:
    """The one-pass build gives the network of the sorted-numbering build it replaced, up to
    renaming cells, and raises the same error on a corrupted state."""

    @staticmethod
    def outcome(build, state):
        try:
            return build(state)
        except (ValueError, StepInfeasibleError) as err:
            return type(err).__name__, str(err)

    @classmethod
    def assert_same_network(cls, state):
        got = cls.outcome(build_step_network, state)
        want = cls.outcome(reference_step_network, state)
        if not isinstance(want, StepNetwork):
            assert got == want, state
            return want[1]
        assert (got.tau, got.den, got.counts) == (want.tau, want.den, want.counts)
        rename = {}  # got's cell -> want's, in the order got's arcs meet them
        for ours, theirs in zip(got.arcs, want.arcs, strict=True):
            assert (ours[1::3], ours[2::3]) == (theirs[1::3], theirs[2::3]), state
            for cell, same in zip(ours[::3], theirs[::3], strict=True):
                assert rename.setdefault(cell, same) == same, state
        assert list(rename) == list(range(len(got.low))), state  # numbered as met
        assert sorted(rename.values()) == list(range(len(want.low))), state
        assert [(got.low[c], got.high[c]) for c in rename] == \
            [(want.low[c], want.high[c]) for c in rename.values()], state
        return "network"

    def test_every_cached_state(self):
        types = [*distinct_variant_types(), *(build_variant_type(16, v) for v in (2, 3, 4))]
        for t in types:
            walk = trajectory(t)
            for state in [step.state for step in walk.steps] + [walk.final]:
                self.assert_same_network(state)

    def test_corrupted_states(self):
        # one run of a state changed: a count raised, a group repeated as its own run, a
        # target moved by one, or den moved by one; each of the three errors occurs
        rng = random.Random(37)
        outcomes = Counter()
        for t in distinct_variant_types(9):
            for state in [step.state for step in trajectory(t).steps if step.state.runs]:
                for _ in range(3):
                    runs = list(state.runs)
                    ri = rng.randrange(len(runs))
                    slots, (first, count) = expand_runs([runs[ri]])[0], runs[ri][2:]
                    kind = rng.randrange(4)
                    if kind == 0:
                        runs[ri] = run_of(slots, first, count + 1)
                    elif kind == 1:
                        runs.append(run_of(slots, sum(run[3] for run in runs), 1))
                    elif kind == 2:
                        pos = rng.randrange(len(slots))
                        moved = slots[pos] + rng.choice((-1, 1))
                        runs[ri] = run_of(slots[:pos] + (moved,) + slots[pos + 1:], first, count)
                    tau = state.tau + (rng.choice((-1, 1)) if kind == 3 else 0)
                    corrupted = state._replace(tau=tau, runs=tuple(runs))
                    outcomes[self.assert_same_network(corrupted)] += 1
        assert len(outcomes) == 5, outcomes  # a network, the three errors, and a done state


def single_class_network(den, cells, arcs, count=1):
    """One class of count groups; cells are (low, high) pairs, and arcs is flat."""
    return StepNetwork(0, den, [low for low, _high in cells], [high for _low, high in cells],
                       [count], [arcs])


class TestStepInfeasible:
    """Networks no realization state produces, one for each way the rounding gives up."""

    def test_floor_oversubscribes_a_cell(self):
        # the whole unit is forced onto a cell that may take none
        net = single_class_network(2, [(0, 0)], (0, 2, 0))
        with pytest.raises(StepInfeasibleError, match="floor assignment oversubscribed"):
            integral_step_assignment(net)

    def test_no_augmenting_path_in_phase_two(self):
        # half a unit toward each of two cells, both already at their upper bound
        net = single_class_network(2, [(0, 0), (0, 0)], (0, 1, 0, 1, 1, 1))
        with pytest.raises(StepInfeasibleError, match="no augmenting path"):
            integral_step_assignment(net)

    def test_cell_below_its_lower_bound(self):
        # half a unit toward each of two cells that each need one block: the
        # only group's unit goes to the first, and the second stays below
        net = single_class_network(2, [(1, 1), (1, 1)], (0, 1, 0, 1, 1, 1))
        with pytest.raises(StepInfeasibleError, match="below its lower bound"):
            integral_step_assignment(net)

    @pytest.mark.parametrize("count, first_numerator", [(1, 4), (2, 6)])
    def test_class_options_do_not_cover_its_groups(self, count, first_numerator):
        # a negative numerator floors to minus one unit, so the units the class
        # is counted for and the options it lists disagree
        net = single_class_network(2, [(0, first_numerator // 2), (-1, 0)],
                                   (0, first_numerator, 0, 1, -2, 1), count=count)
        with pytest.raises(StepInfeasibleError, match="does not cover its groups"):
            integral_step_assignment(net)


class TestRealize:
    def test_three_matchings_on_four_points(self):
        system = realize(VType(4, 2, {Shape((2, 2)): 3}))
        assert len(system.spreads) == 3
        seen = []
        for sp in system.spreads:
            a, b = sp
            assert len(a) == len(b) == 2
            assert set(a) | set(b) == {1, 2, 3, 4}
            seen += [a, b]
        assert sorted(seen) == sorted(itertools.combinations(range(1, 5), 2))

    def test_exact_small_system(self):
        # the only system of this type up to relabeling; ours is the canonical one
        system = realize(build_variant_type(3, 2))
        assert list(system.spreads) == [
            ((), (1, 2, 3)),
            ((1,), (2, 3)),
            ((2,), (1, 3)),
            ((3,), (1, 2)),
        ]

    def test_inadmissible_type_rejected_with_witness(self):
        with pytest.raises(InadmissibleTypeError) as err:
            realize(VType(4, 2, {Shape((0, 4)): 2}))
        assert err.value.verdict.reason == "2 slots of size 0, only 1 subsets available"
        assert err.value.verdict.witness == (0,)

    def test_shape_that_misses_an_element_rejected(self):
        # the type is refused when built, so realize never sees it
        with pytest.raises(ValueError, match="does not partition 4 elements into 2 blocks"):
            VType(4, 2, {Shape((1, 2)): 1})

    def test_cap(self):
        t = VType(17, 2, {Shape((8, 9)): 1})
        with pytest.raises(CapExceededError):
            realize(t)
        # explicit override allows it in principle; just check the gate logic
        system = realize(VType(3, 2, {Shape((1, 2)): 1}), max_n=3)
        assert system.n == 3

    def test_deterministic(self):
        t = build_variant_type(5, 3)
        assert realize(t) == realize(t)

    def test_full_system_enumerates_the_powerset(self):
        # distinct requested blocks, completed by the padding, are the 2^n subsets
        rng = random.Random(11)
        for _ in range(10):
            t = random_admissible_type(rng, max_n=8)
            system = realize(t)
            blocks = [b for sp in system.spreads for b in sp]
            assert len(blocks) == len(set(blocks))
            assert len(blocks) + len(padding_blocks(system)) == 2 ** t.n

    def test_type_fidelity(self):
        rng = random.Random(13)
        for _ in range(10):
            t = random_admissible_type(rng, max_n=8)
            system = realize(t)
            got = Counter(tuple(sorted(len(b) for b in sp)) for sp in system.spreads)
            want = Counter()
            for shape, count in t.items():
                want[shape.entries] += count
            assert got == want

    def test_blocks_within_a_spread_are_disjoint(self):
        rng = random.Random(17)
        for _ in range(10):
            t = random_admissible_type(rng, max_n=8)
            for sp in realize(t).spreads:
                elems = [e for b in sp for e in b]
                assert len(elems) == len(set(elems))

    def test_accepts_prebuilt_full_type(self):
        full = make_full(pair_type())
        system = realize(full)
        assert system.spreads == (((1,), (2,)),)
        assert padding_blocks(system) == [(), (1, 2)]

    def test_fill_order(self):
        # only the requested spreads, in the order of the type; no padding follows
        system = realize(VType(4, 2, {Shape((1, 3)): 1, Shape((2, 2)): 2}))
        assert system.spreads == (
            ((1,), (2, 3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        )
        rng = random.Random(23)
        for _ in range(10):
            t = random_admissible_type(rng, max_n=8)
            sizes = [tuple(sorted(map(len, sp))) for sp in realize(t).spreads]
            assert sizes == [shape.entries for shape, count in t.items() for _ in range(count)]


class TestFinish:
    """realize steps n - 1 times, builds the forced last network, then writes n's row."""

    @staticmethod
    def assert_same_as_stepping(t):
        got = realized(t)
        assert got.builds == t.n, t  # one network per element, the forced last one included
        assert (got.system.n, got.system.v) == (t.n, t.v), t
        spreads = got.system.spreads
        assert spreads == decoded_spreads(trajectory(t).final), t
        return spreads

    def test_every_variant_up_to_twelve_points(self):
        for t in distinct_variant_types():
            self.assert_same_as_stepping(t)

    def test_sixteen_points(self):
        spreads = self.assert_same_as_stepping(build_variant_type(16, 2))
        # blocks come in (size, elements) order, the order spreads_to_array gives out symbols
        assert all(list(sp) == sorted(sp, key=lambda b: (len(b), b)) for sp in spreads)

    def test_random_types(self):
        rng = random.Random(29)
        for _ in range(60):
            self.assert_same_as_stepping(random_admissible_type(rng, max_n=9))

    def test_forced_step_of_a_small_type(self):
        state = init_realization(VType(3, 2, {Shape((1, 2)): 1}))
        state = advance(advance(state))
        rows = _finish(state)
        assert [list(row) for row in rows] == [[0], [1], [1]]
        assert SpreadSystem(3, 2, rows).spreads == (((1,), (2, 3)),)

    @pytest.mark.parametrize("groups, message", [
        # two groups share the open slot ({1}, 2)
        ((group(3, ((1,), (2,)), (2, 1)), group(3, ((1,), ()), (2, 0))), "more blocks than"),
        # one group holds two open blocks
        ((group(3, ((1,), (2,)), (2, 2)),), "open slots and remaining elements differ"),
        # an open block needs two elements at tau = n - 1
        ((group(3, ((1, 2), ()), (2, 2)),), "more blocks than"),
    ])
    def test_corrupted_last_state_raises(self, groups, message):
        with pytest.raises(ValueError, match=message):
            _finish(state_of_groups(3, 2, groups))

    def test_group_needing_fewer_elements_than_remain_raises(self):
        # at tau = 1 on 4 points the group's open block needs 2 of the 3 elements left
        state = state_of_groups(4, 1, (group(4, ((1,), ()), (1, 2)),))
        assert check_realization(state)
        with pytest.raises(ValueError, match="open slots and remaining elements differ"):
            build_step_network(state)

    def test_closed_block_off_its_target_raises(self):
        state = state_of_groups(3, 2, (group(3, ((1, 2), ()), (1, 1)),))
        with pytest.raises(StepInfeasibleError):
            _finish(state)

    def test_closed_block_off_its_target_raises_before_the_last_step(self):
        # at tau = 1 on 4 points a block of target 0 holds element 1; the open
        # block beside it needs all 3 elements left, so the other checks pass
        state = state_of_groups(4, 1, (group(4, ((1,), ()), (0, 3)),))
        with pytest.raises(StepInfeasibleError, match="a block missed its target size"):
            build_step_network(state)


# -- helpers ---------------------------------------------------------------


def decoded_spreads(state):
    """The requested spreads a final state holds: each slot decoded, groups in index order."""
    return tuple(tuple(decode_slot(state.n, s)[0] for s in slots) for slots in groups_of(state))


def decoded_rows(state):
    """Per placed element, per group: the position of the decoded block that holds it."""
    rows = [[None] * sum(count for *_key, count in state.runs) for _ in range(state.tau)]
    for slots, order, first, count in state.runs:
        for s, pos in zip(slots, order):
            for e in decode_slot(state.n, s)[0]:
                rows[e - 1][first:first + count] = [pos] * count
    return rows


def step_choice_vector(state):
    net = build_step_network(state)
    return expand_choices(member_view(net, state), integral_step_assignment(net))


class MemberCell(NamedTuple):
    slot: int | None
    low: int
    high: int
    number: int  # the engine's cell number: cells below their lower bound go in this order


class MemberClass(NamedTuple):
    members: range
    arcs: tuple[tuple[int, int, int], ...]


def member_view(net, state=None):
    """The network as the reference reads it: its den, each cell with its slot, bounds
    and engine number, and each class with the range of its member groups and its arcs
    as (cell, numerator, position) triples.

    Class i is run i of the state. The engine numbers cells as it meets them, and the
    view renumbers them in slot order, the order a class lists its options in: a
    class's arcs list its distinct open slots in slot order. A network built by hand
    has no state: its classes take consecutive group indices in class order, and its
    cells keep their numbers and have no slot.
    """
    if state is None:
        firsts = [sum(net.counts[:ci]) for ci in range(len(net.counts))]
        slot_of = dict.fromkeys(range(len(net.low)))  # cell -> no slot, in number order
    else:
        base = state.n + 1
        firsts = [first for *_key, first, _count in state.runs]
        slot_of = {}
        for (run_slots, *_rest), arcs in zip(state.runs, net.arcs, strict=True):
            open_slots = sorted({s for s in run_slots if s % base > s // base % base})
            slot_of.update(zip(arcs[::3], open_slots, strict=True))
        slot_of = dict(sorted(slot_of.items(), key=lambda item: item[1]))  # in slot order
    rank = {cell: i for i, cell in enumerate(slot_of)}
    return SimpleNamespace(
        den=net.den,
        cells=tuple(MemberCell(slot, net.low[c], net.high[c], c) for c, slot in slot_of.items()),
        classes=tuple(MemberClass(range(first, first + count),
                                  tuple(zip(map(rank.get, arcs[::3]), arcs[1::3], arcs[2::3])))
                      for first, count, arcs in zip(firsts, net.counts, net.arcs, strict=True)))


def expand_choices(net, assignment):
    """The per-group choice vector of a per-class assignment, on a member_view.

    A class's members, in index order, take its options in the order listed,
    each option as many times as its count; a class lists (position, count, ...) flat.
    """
    choices = [None] * sum(len(cls.members) for cls in net.classes)
    for cls, pairs in zip(net.classes, assignment, strict=True):
        opts = [pos for pos, count in zip(pairs[::2], pairs[1::2]) for _ in range(count)]
        for gi, pos in zip(cls.members, opts, strict=True):
            choices[gi] = pos
    return tuple(choices)


def class_cell_counts(state, net, choice):
    """Per class of a member_view, how many member groups took each cell."""
    counts: list[dict[int, int]] = [{} for _ in net.classes]
    cell_of = {c.slot: i for i, c in enumerate(net.cells)}
    gi_to_ci = {gi: ci for ci, cls in enumerate(net.classes) for gi in cls.members}
    groups = groups_of(state)
    for gi, pos in enumerate(choice):
        key = cell_of[groups[gi][pos]]
        counts[gi_to_ci[gi]][key] = counts[gi_to_ci[gi]].get(key, 0) + 1
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


def reference_step_network(state):
    """The network build as it was with runs of shape-order slots and cells numbered in slot
    order, kept to compare networks. The state is read through its shape-order groups."""
    state = SimpleNamespace(n=state.n, tau=state.tau,
                            runs=[(expand_runs([run])[0], *run[2:]) for run in state.runs])
    n, tau = state.n, state.tau
    if tau >= n:
        raise ValueError("realization is already complete")
    den, base = n - tau, n + 1

    cell: dict[int, int] = {}  # open slot -> blocks holding it, then its cell index
    for slots, _first, count in state.runs:
        for s in slots:
            need = s % base - s // base % base
            if need > 0:  # target above size: the block is open
                cell[s] = cell.get(s, 0) + count
            elif need:
                raise StepInfeasibleError("internal: a block missed its target size")
    choose = [binomial(den - 1, j) for j in range(n + 1)]
    low, high = [], []
    for s in sorted(cell):
        need = s % base - s // base % base  # recomputed, not stored: the step peaks here
        low.append(cell[s] - choose[need])
        high.append(choose[need - 1])
        if low[-1] > high[-1]:
            raise ValueError("not a realization state: a cell holds more blocks than it may")
        cell[s] = len(low) - 1
    arcs: list[tuple[int, ...]] = []
    for slots, _first, count in state.runs:
        flat: list[int] = []
        for s in sorted(set(slots)):  # one arc per distinct open slot, in cell order
            if s in cell:
                flat += (cell[s], count * slots.count(s) * (s % base - s // base % base),
                         slots.index(s))
        if count * den != sum(flat[1::3]):
            raise ValueError("not a realization state: open slots and remaining elements differ")
        arcs.append(tuple(flat))
    return StepNetwork(tau, den, low, high, [count for _slots, _first, count in state.runs], arcs)


def reference_step_assignment(net):
    """The rounding modelled on per-class lists of extra units, to compare choices.

    Every arc takes the floor of its flow. Then each cell below its lower bound, in the
    engine's cell order, takes each missing unit from the first class in class order
    with a fractional arc to it, a unit left and no extra unit on it; failing that, along
    a shortest path back through such classes and the cells they hold extra units on (in
    arc order), found by a search that queues classes, to a class with a unit left. Then
    each class with units left, in class order, places them under the upper bounds along
    a shortest path forward, found by a search that queues classes.
    """
    den, ncells, nclasses = net.den, len(net.cells), len(net.classes)

    base, frac_opts, rem_supply = [], [], []
    tally = [0] * ncells
    for cls in net.classes:
        z, opts = {}, []
        for opt, num, _pos in cls.arcs:
            q, r = divmod(num, den)
            if q:
                z[opt] = q
                tally[opt] += q
            if r:
                opts.append(opt)
        base.append(z)
        frac_opts.append(opts)
        rem_supply.append(len(cls.members) - sum(z.values()))

    low = [c.low for c in net.cells]
    high = [c.high for c in net.cells]
    if any(t > h for t, h in zip(tally, high)) or min(rem_supply, default=0) < 0:
        raise StepInfeasibleError("floor assignment oversubscribed a node")

    extra = [[] for _ in range(nclasses)]  # per class, the cells it holds a unit on
    holders = [[] for _ in range(ncells)]  # per cell, the classes holding a unit on it

    def take(ci, opt):
        extra[ci].append(opt)
        holders[opt].append(ci)

    def give_up(ci, opt):
        extra[ci].remove(opt)
        holders[opt].remove(ci)

    feeders = [[] for _ in range(ncells)]  # per cell, the classes with a fractional arc to it
    for ci, opts in enumerate(frac_opts):
        for opt in opts:
            feeders[opt].append(ci)

    def free_feeders(opt):
        return [ci for ci in feeders[opt] if opt not in extra[ci]]

    short = [opt for opt in range(ncells) if tally[opt] < low[opt]]
    for target in sorted(short, key=lambda opt: net.cells[opt].number):
        while tally[target] < low[target]:
            direct = [ci for ci in free_feeders(target) if rem_supply[ci] > 0]
            if direct:
                take(direct[0], target)
                rem_supply[direct[0]] -= 1
                tally[target] += 1
                continue
            takes, gives = {}, {target: None}  # class -> cell it takes; cell -> class giving it
            queue = deque()

            def reach(opt):
                for ci in free_feeders(opt):
                    if ci not in takes:
                        takes[ci] = opt
                        if rem_supply[ci] > 0:
                            return ci
                        queue.append(ci)
                return None

            end = reach(target)
            while end is None and queue:
                ci = queue.popleft()
                for opt in frac_opts[ci]:
                    if opt in extra[ci] and opt not in gives:
                        gives[opt] = ci
                        end = reach(opt)
                        if end is not None:
                            break
            if end is None:
                raise StepInfeasibleError("a cell stays below its lower bound after assignment")
            rem_supply[end] -= 1
            tally[target] += 1
            ci = end
            while True:
                opt = takes[ci]
                take(ci, opt)
                if opt == target:
                    break
                ci = gives[opt]
                give_up(ci, opt)

    for start in range(nclasses):
        while rem_supply[start] > 0:
            parent_opt, parent_cls = {}, {}
            queue = deque([start])
            seen_cls = {start}
            goal = -1
            while queue and goal < 0:
                ci = queue.popleft()
                for opt in frac_opts[ci]:
                    if opt in parent_opt or opt in extra[ci]:
                        continue
                    parent_opt[opt] = ci
                    if tally[opt] < high[opt]:
                        goal = opt
                        break
                    for other in holders[opt]:
                        if other not in seen_cls:
                            seen_cls.add(other)
                            parent_cls[other] = opt
                            queue.append(other)
            if goal < 0:
                raise StepInfeasibleError("no augmenting path; corrupted state")
            tally[goal] += 1
            rem_supply[start] -= 1
            opt = goal
            while True:
                ci = parent_opt[opt]
                take(ci, opt)
                if ci == start:
                    break
                prev = parent_cls[ci]
                give_up(ci, prev)
                opt = prev

    choices = [None] * sum(len(cls.members) for cls in net.classes)
    for ci, cls in enumerate(net.classes):
        counts = dict(base[ci])
        for opt in extra[ci]:
            counts[opt] = counts.get(opt, 0) + 1
        opts = [opt for opt in sorted(counts) for _ in range(counts[opt])]
        if len(opts) != len(cls.members):
            raise StepInfeasibleError("class assignment does not cover its groups")
        pos_of = {cell_i: pos for cell_i, _num, pos in cls.arcs}
        for gi, opt in zip(cls.members, opts):
            choices[gi] = pos_of.get(opt)
    return tuple(choices)
