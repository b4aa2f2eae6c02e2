import itertools
import random
from collections import Counter, deque

import pytest

from locarray import (
    ALL_VARIANTS,
    CapExceededError,
    Shape,
    VType,
    build_variant_type,
    realize,
)
from locarray import baranyai
from locarray.baranyai import (
    Cell,
    ClassNode,
    RealizationState,
    SpreadSystem,
    StepInfeasibleError,
    StepNetwork,
    _finish,
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
from conftest import padding_blocks, random_admissible_type, state_of_groups


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
        # the bounds force exactly one of the two unit blocks to take element 1
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
        state = init_realization(build_variant_type(3, 2))
        net = build_step_network(state)
        choice = expand_choices(net, integral_step_assignment(net))
        counts = class_cell_counts(state, net, choice)
        for ci, cls in enumerate(net.classes):
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
        state = init_realization(t)
        while True:
            spans = sorted((first, count) for _slots, first, count in state.runs)
            end = 0
            for first, count in spans:
                assert first == end and count > 0, (t, state.tau)
                end += count
            assert end == t.size(), (t, state.tau)
            keys = [sorted(slots) for slots, _first, _count in state.runs]
            assert all(a < b for a, b in zip(keys, keys[1:])), (t, state.tau)
            assert check_realization(state), (t, state.tau)
            if state.tau == t.n:
                break
            state = advance(state)

    def test_every_variant_up_to_twelve_points(self):
        for n in range(1, 13):
            for variant in ALL_VARIANTS:
                for v in range(2, variant.max_symbols(n) + 1):
                    self.assert_runs_hold(build_variant_type(n, v, variant))

    def test_sixteen_points(self):
        for v in (2, 3):
            self.assert_runs_hold(build_variant_type(16, v))


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
        verdict = check_realization(state_of_groups(state.n, state.tau, groups))
        assert not verdict
        assert verdict.block == blocks[0]
        assert verdict.observed > verdict.expected == 0
        # over-counts: a repeated group, and at tau = 0 two (0, 4) shapes on 4 points
        doubled = state_of_groups(state.n, state.tau, state.groups * 2)
        verdict = check_realization(doubled)
        assert not verdict
        assert verdict.observed == verdict.expected + 1 == 2
        empty = group(4, ((), ()), (0, 4))
        verdict = check_realization(state_of_groups(4, 0, (empty, empty)))
        assert not verdict
        assert (verdict.block, verdict.observed, verdict.expected) == ((), 2, 1)

    def test_a_run_counts_each_of_its_groups(self):
        # one run of two identical groups over-counts as the two groups listed apart do
        state = advance(init_realization(VType(3, 2, {Shape((1, 2)): 1})))
        ((slots, _first, _count),) = state.runs
        verdict = check_realization(RealizationState(state.n, state.tau, ((slots, 0, 2),)))
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
    """The rounding makes the same choices as the class-queue search it replaced."""

    @staticmethod
    def assert_same_choices(t):
        state = init_realization(t)
        for _ in range(t.n):
            net = build_step_network(state)
            got = expand_choices(net, integral_step_assignment(net))
            assert got == reference_step_assignment(net), (t, state.tau)
            state = advance(state)

    def test_every_variant_up_to_twelve_points(self):
        for n in range(1, 13):
            for variant in ALL_VARIANTS:
                for v in range(2, variant.max_symbols(n) + 1):
                    self.assert_same_choices(build_variant_type(n, v, variant))

    def test_sixteen_points(self):
        for v in (3, 4):
            self.assert_same_choices(build_variant_type(16, v))

    def test_random_types(self):
        rng = random.Random(29)
        for _ in range(200):
            self.assert_same_choices(random_admissible_type(rng))

    def test_random_networks(self):
        # hand-built networks: each class splits den units per group among one
        # or more arcs, and some numerators are off by one, so each of the four
        # errors occurs; both roundings give the same choices or error
        def outcome(rounding, net):
            try:
                return rounding(net)
            except StepInfeasibleError as err:
                return str(err)

        rng = random.Random(31)
        outcomes = Counter()
        for _ in range(3000):
            den, ncells = rng.randint(1, 5), rng.randint(1, 5)
            lows = [rng.randint(-1, 2) for _ in range(ncells)]
            cells = tuple(Cell(ci, lo, lo + rng.randint(0, 4)) for ci, lo in enumerate(lows))
            classes, first = [], 0
            for _ in range(rng.randint(1, 6)):
                size = rng.randint(1, 3)
                targets = sorted(rng.sample(range(ncells), rng.randint(1, ncells)))
                cuts = sorted(rng.randint(0, den * size) for _ in targets[1:]) + [den * size]
                arcs = tuple((ci, hi - lo + rng.choice((-1, 0, 0, 0, 0, 0, 0, 1)), pos)
                             for pos, (ci, lo, hi) in enumerate(zip(targets, [0, *cuts], cuts)))
                classes.append(ClassNode(range(first, first + size), arcs, 0))
                first += size
            net = StepNetwork(0, den, cells, tuple(classes))
            got = outcome(lambda net: expand_choices(net, integral_step_assignment(net)), net)
            assert got == outcome(reference_step_assignment, net), net
            outcomes["choices" if isinstance(got, tuple) else got] += 1
        assert len(outcomes) == 5, outcomes  # the choices and each of the four errors


def single_class_network(den, cells, arcs, members=range(1)):
    return StepNetwork(0, den, tuple(Cell(ci, low, high) for ci, (low, high) in enumerate(cells)),
                       (ClassNode(members, arcs, 0),))


class TestStepInfeasible:
    """Networks no realization state produces, one for each way the rounding gives up."""

    def test_floor_oversubscribes_a_cell(self):
        # the whole unit is forced onto a cell that may take none
        net = single_class_network(2, [(0, 0)], ((0, 2, 0),))
        with pytest.raises(StepInfeasibleError, match="floor assignment oversubscribed"):
            integral_step_assignment(net)

    def test_no_augmenting_path_in_phase_two(self):
        # half a unit toward each of two cells, both already at their upper bound
        net = single_class_network(2, [(0, 0), (0, 0)], ((0, 1, 0), (1, 1, 1)))
        with pytest.raises(StepInfeasibleError, match="no augmenting path"):
            integral_step_assignment(net)

    def test_cell_below_its_lower_bound(self):
        # half a unit toward each of two cells that each need one block: the
        # only group's unit goes to the first, and the second stays below
        net = single_class_network(2, [(1, 1), (1, 1)], ((0, 1, 0), (1, 1, 1)))
        with pytest.raises(StepInfeasibleError, match="below its lower bound"):
            integral_step_assignment(net)

    @pytest.mark.parametrize("members, first_numerator", [(range(1), 4), (range(2), 6)])
    def test_class_options_do_not_cover_its_groups(self, members, first_numerator):
        # a negative numerator floors to minus one unit, so the units the class
        # is counted for and the options it lists disagree
        net = single_class_network(2, [(0, first_numerator // 2), (-1, 0)],
                                   ((0, first_numerator, 0), (1, -2, 1)), members=members)
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
        assert err.value.verdict.size == 0

    def test_shape_that_misses_an_element_rejected(self):
        with pytest.raises(ValueError, match="does not partition"):
            realize(VType(4, 2, {Shape((1, 2)): 1}))

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
    """realize steps n - 1 times, builds the forced last network, then adds n in its decode walk."""

    @staticmethod
    def assert_same_as_stepping(t, monkeypatch):
        nets = []

        def counted(state):
            nets.append(build_step_network(state))
            return nets[-1]

        monkeypatch.setattr(baranyai, "build_step_network", counted)
        got = realize(t)
        assert len(nets) == t.n, t  # one network per element, the forced last one included
        assert got == realize_by_stepping(t), t
        return got

    def test_every_variant_up_to_twelve_points(self, monkeypatch):
        for n in range(1, 13):
            for variant in ALL_VARIANTS:
                for v in range(2, variant.max_symbols(n) + 1):
                    self.assert_same_as_stepping(build_variant_type(n, v, variant), monkeypatch)

    def test_sixteen_points(self, monkeypatch):
        system = self.assert_same_as_stepping(build_variant_type(16, 2), monkeypatch)
        # blocks come in (size, elements) order, the order spreads_to_array gives out symbols
        assert all(list(sp) == sorted(sp, key=lambda b: (len(b), b)) for sp in system.spreads)

    def test_random_types(self, monkeypatch):
        rng = random.Random(29)
        for _ in range(60):
            self.assert_same_as_stepping(random_admissible_type(rng, max_n=9), monkeypatch)

    def test_forced_step_of_a_small_type(self):
        state = init_realization(VType(3, 2, {Shape((1, 2)): 1}))
        state = advance(advance(state))
        assert _finish(state) == [((1,), (2, 3))]

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


# -- helpers ---------------------------------------------------------------


def realize_by_stepping(t):
    """The requested system after n full steps, each final slot decoded, groups in index order."""
    state = init_realization(t)
    for _ in range(t.n):
        state = advance(state)
    return SpreadSystem(t.n, tuple(tuple(decode_slot(t.n, s)[0] for s in slots)
                                   for slots in state.groups))


def step_choice_vector(state):
    net = build_step_network(state)
    return expand_choices(net, integral_step_assignment(net))


def expand_choices(net, assignment):
    """The per-group choice vector of a per-class assignment.

    A class's members, in index order, take its options in the order listed,
    each option as many times as its count.
    """
    choices = [None] * sum(len(cls.members) for cls in net.classes)
    for cls, pairs in zip(net.classes, assignment, strict=True):
        opts = [pos for pos, count in pairs for _ in range(count)]
        for gi, pos in zip(cls.members, opts, strict=True):
            choices[gi] = pos
    return tuple(choices)


def class_cell_counts(state, net, choice):
    """Per class, how many member groups took each cell."""
    counts: list[dict[int, int]] = [{} for _ in net.classes]
    cell_of = {c.slot: i for i, c in enumerate(net.cells)}
    gi_to_ci = {gi: ci for ci, cls in enumerate(net.classes) for gi in cls.members}
    for gi, pos in enumerate(choice):
        key = cell_of[state.groups[gi][pos]]
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


def reference_step_assignment(net):
    """The rounding as it was with a search that queues classes, kept to compare choices."""
    den, ncells, nclasses = net.den, len(net.cells), len(net.classes)
    skip = ncells

    base, frac_opts, rem_supply = [], [], []
    tally = [0] * (ncells + 1)
    for cls in net.classes:
        z, opts = {}, []
        for opt, num in [(ci, num) for ci, num, _pos in cls.arcs] + [(skip, cls.skip_numerator)]:
            q, r = divmod(num, den)
            if q:
                z[opt] = q
                tally[opt] += q
            if r:
                opts.append(opt)
        base.append(z)
        frac_opts.append(opts)
        rem_supply.append(len(cls.members) - sum(z.values()))

    low = [c.low for c in net.cells] + [0]
    high = [c.high for c in net.cells] + [sum(len(cls.members) for cls in net.classes)]
    if any(t > h for t, h in zip(tally, high)) or min(rem_supply, default=0) < 0:
        raise StepInfeasibleError("floor assignment oversubscribed a node")

    extra = [set() for _ in range(nclasses)]
    holders = [[] for _ in range(ncells + 1)]
    for cap, phase_one in ((low, True), (high, False)):
        dead = [False] * nclasses
        for start in range(nclasses):
            while rem_supply[start] > 0 and not dead[start]:
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
                        if tally[opt] < cap[opt]:
                            goal = opt
                            break
                        for other in holders[opt]:
                            if other not in seen_cls and not dead[other]:
                                seen_cls.add(other)
                                parent_cls[other] = opt
                                queue.append(other)
                if goal < 0:
                    if not phase_one:
                        raise StepInfeasibleError("no augmenting path; corrupted state")
                    for ci in seen_cls:
                        dead[ci] = True
                    continue
                tally[goal] += 1
                rem_supply[start] -= 1
                opt = goal
                while True:
                    ci = parent_opt[opt]
                    extra[ci].add(opt)
                    holders[opt].append(ci)
                    if ci == start:
                        break
                    prev = parent_cls[ci]
                    extra[ci].remove(prev)
                    holders[prev].remove(ci)
                    opt = prev

    if any(t < lo for t, lo in zip(tally, low)):
        raise StepInfeasibleError("a cell stays below its lower bound after assignment")

    choices = [None] * high[skip]
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
