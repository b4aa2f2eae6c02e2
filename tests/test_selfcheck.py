from dataclasses import replace

from locarray import build_optimal_type, selfcheck
from locarray.baranyai import advance


def test_unsorted_final_block_is_not_the_powerset(monkeypatch):
    # a reversed block passes the count invariant and is distinct as a tuple,
    # but as a set it is a subset the padding also holds
    def reversing_advance(state):
        state = advance(state)
        if state.tau < state.n:
            return state
        groups = list(state.groups)
        for gi, g in enumerate(groups):
            for pos, blk in enumerate(g.blocks):
                if len(blk) >= 2:
                    blocks = g.blocks[:pos] + (blk[::-1],) + g.blocks[pos + 1:]
                    groups[gi] = replace(g, blocks=blocks)
                    return replace(state, groups=tuple(groups))
        raise AssertionError("no block with two elements")

    monkeypatch.setattr(selfcheck, "advance", reversing_advance)
    assert selfcheck.type_realization_failures(build_optimal_type(4, 2)) == [
        "padded system is not the powerset at n=4, v=2"
    ]
