from locarray import build_variant_type, selfcheck
from locarray.baranyai import _finish


def test_unsorted_final_block_is_not_the_powerset(monkeypatch):
    # a reversed block keeps its spread's shape and is distinct as a tuple,
    # but as a set it is a subset the padding also holds
    def reversing_finish(state):
        spreads = _finish(state)
        for i, spread in enumerate(spreads):
            for pos, blk in enumerate(spread):
                if len(blk) >= 2:
                    spreads[i] = spread[:pos] + (blk[::-1],) + spread[pos + 1:]
                    return spreads
        raise AssertionError("no block with two elements")

    monkeypatch.setattr(selfcheck, "_finish", reversing_finish)
    assert selfcheck.type_realization_failures(build_variant_type(4, 2)) == [
        "padded system is not the powerset at n=4, v=2"
    ]


def test_a_run_counts_each_of_its_groups(monkeypatch):
    # one more group in the first final run repeats its spread, so its blocks
    # and its shape are counted twice
    def doubling_finish(state):
        spreads = _finish(state)
        return spreads[:1] + spreads

    monkeypatch.setattr(selfcheck, "_finish", doubling_finish)
    assert selfcheck.type_realization_failures(build_variant_type(4, 2)) == [
        "block distinctness broken at n=4, v=2",
        "type fidelity broken at n=4, v=2",
        "padded system is not the powerset at n=4, v=2",
    ]
