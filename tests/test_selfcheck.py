from locarray import build_variant_type, selfcheck
from locarray.baranyai import RealizationCheck, advance, decode_slot, encode_slot
from conftest import state_of_groups


def test_unsorted_final_block_is_not_the_powerset(monkeypatch):
    # a reversed block passes the count invariant and is distinct as a tuple,
    # but as a set it is a subset the padding also holds
    def reversing_advance(state):
        state = advance(state)
        if state.tau < state.n:
            return state
        groups = list(state.groups)
        for gi, slots in enumerate(groups):
            for pos, s in enumerate(slots):
                blk, m = decode_slot(state.n, s)
                if len(blk) >= 2:
                    reversed_slot = encode_slot(state.n, blk[::-1], m)
                    groups[gi] = slots[:pos] + (reversed_slot,) + slots[pos + 1:]
                    return state_of_groups(state.n, state.tau, groups)
        raise AssertionError("no block with two elements")

    monkeypatch.setattr(selfcheck, "advance", reversing_advance)
    assert selfcheck.type_realization_failures(build_variant_type(4, 2)) == [
        "padded system is not the powerset at n=4, v=2"
    ]


def test_a_run_counts_each_of_its_groups(monkeypatch):
    # one more group in the first final run repeats its blocks and its shape;
    # the counting invariant would report that first, so it is switched off
    def doubling_advance(state):
        state = advance(state)
        if state.tau < state.n:
            return state
        (slots, first, count), *rest = state.runs
        return state._replace(runs=((slots, first, count + 1), *rest))

    monkeypatch.setattr(selfcheck, "advance", doubling_advance)
    monkeypatch.setattr(selfcheck, "check_realization", lambda state: RealizationCheck(True))
    assert selfcheck.type_realization_failures(build_variant_type(4, 2)) == [
        "block distinctness broken at n=4, v=2",
        "type fidelity broken at n=4, v=2",
        "padded system is not the powerset at n=4, v=2",
    ]
