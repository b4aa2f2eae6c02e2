from locarray import Shape, VType, build_variant_type, selfcheck
from locarray.baranyai import _finish, advance, decode_slot, expand_runs
from conftest import encode_slot, run_of


def final_step(change):
    """advance, with change applied to the runs of the state it returns at tau = n."""
    def step(state):
        state = advance(state)
        return state._replace(runs=change(state)) if state.tau == state.n else state
    return step


def test_unsorted_final_block_is_not_the_powerset(monkeypatch):
    # a reversed block keeps its spread's shape and is distinct as a tuple,
    # but as a set it is a subset the padding also holds
    def reverse_a_block(state):
        runs = list(state.runs)
        for i, run in enumerate(runs):
            slots = expand_runs((run,))[0]  # in shape order
            for pos, s in enumerate(slots):
                blk, m = decode_slot(state.n, s)
                if len(blk) >= 2:
                    reversed_slot = encode_slot(state.n, blk[::-1], m)
                    group = slots[:pos] + (reversed_slot,) + slots[pos + 1:]
                    runs[i] = run_of(group, *run[2:])
                    return tuple(runs)
        raise AssertionError("no block with two elements")

    monkeypatch.setattr(selfcheck, "advance", final_step(reverse_a_block))
    assert selfcheck.type_realization_failures(build_variant_type(4, 2)) == [
        "padded system is not the powerset at n=4, v=2"
    ]


def test_a_run_counts_each_of_its_groups(monkeypatch):
    # one more group in the first final run repeats its spread, so its blocks
    # and its shape are counted twice
    def add_a_group(state):
        return tuple((*key, first, count + (first == 0)) for *key, first, count in state.runs)

    monkeypatch.setattr(selfcheck, "advance", final_step(add_a_group))
    assert selfcheck.type_realization_failures(build_variant_type(4, 2)) == [
        "block distinctness broken at n=4, v=2",
        "type fidelity broken at n=4, v=2",
        "padded system is not the powerset at n=4, v=2",
    ]


def test_a_broken_count_invariant_names_the_slot(monkeypatch):
    # every group of the state after the first advance occurs twice
    def doubled(state):
        state = advance(state)
        total = sum(count for *_key, count in state.runs)
        extra = tuple((*key, first + total, count) for *key, first, count in state.runs)
        return state._replace(runs=state.runs + extra)

    monkeypatch.setattr(selfcheck, "advance", doubled)
    assert selfcheck.type_realization_failures(VType(3, 2, {Shape((1, 2)): 1})) == [
        "count invariant broken at n=3, v=2, tau=1: () target 2 occurs 2 times, at most 1 allowed"
    ]


def test_rows_must_be_those_of_the_decoded_blocks(monkeypatch):
    # element 1 moves to the other block of the first spread in _finish's rows only
    def moving_finish(state):
        first, *rest = _finish(state)
        moved = first[:]
        moved[0] ^= 1
        return (moved, *rest)

    monkeypatch.setattr(selfcheck, "_finish", moving_finish)
    assert selfcheck.type_realization_failures(build_variant_type(4, 2)) == [
        "rows differ from the decoded blocks at n=4, v=2"
    ]


def test_a_decoded_spread_that_does_not_partition_is_caught(monkeypatch):
    # the first 3-block (a, b, c) becomes (a, b, x), a subset no block uses: x > b lies
    # in another block of the spread, so the blocks stay distinct, increasing and of
    # the same sizes, but the spread repeats x and misses c
    def swap_a_block(state):
        n, runs = state.n, list(state.runs)
        used = {decode_slot(n, s)[0] for slots, *_rest in runs for s in slots}
        for i, (slots, *rest) in enumerate(runs):
            for j, s in enumerate(slots):
                blk, m = decode_slot(n, s)
                for x in range(blk[1] + 1, n + 1) if len(blk) == 3 else ():
                    if blk[:2] + (x,) not in used:
                        # a block keeps its least element, so the slots stay sorted
                        new = encode_slot(n, blk[:2] + (x,), m)
                        runs[i] = (slots[:j] + (new,) + slots[j + 1:], *rest)
                        return tuple(runs)
        raise AssertionError("no 3-block with an unused replacement")

    monkeypatch.setattr(selfcheck, "advance", final_step(swap_a_block))
    assert selfcheck.type_realization_failures(build_variant_type(6, 3)) == [
        "rows differ from the decoded blocks at n=6, v=3"
    ]
