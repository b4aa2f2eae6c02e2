import random

import pytest

from locarray import (
    ALL_VARIANTS,
    VARIANT_1_BAR1,
    VARIANT_BAR1_1,
    CapExceededError,
    TestArray,
    max_columns,
    max_k_exhaustive,
    verify_by_definition,
    verify_la,
)
from locarray.oracle import enumerate_partitions
from conftest import random_array

ARR34 = TestArray(((1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)), v=2)


def stirling2(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


class TestEnumeratePartitions:
    def test_complement_pairs(self):
        parts = list(enumerate_partitions(3, 2, allow_empty=True))
        assert len(parts) == 4
        assert (frozenset(), frozenset({1, 2, 3})) in parts

    def test_all_singletons(self):
        parts = list(enumerate_partitions(3, 3, allow_empty=False))
        assert parts == [(frozenset({1}), frozenset({2}), frozenset({3}))]

    def test_empty_stream_when_v_exceeds_n(self):
        assert list(enumerate_partitions(3, 4, allow_empty=False)) == []

    def test_counts_match_stirling_numbers(self):
        for n in range(1, 7):
            for v in range(1, n + 2):
                exact = len(list(enumerate_partitions(n, v, allow_empty=False)))
                assert exact == stirling2(n, v)
                padded = len(list(enumerate_partitions(n, v, allow_empty=True)))
                assert padded == sum(stirling2(n, j) for j in range(1, v + 1))

    def test_no_duplicates_and_each_covers(self):
        seen = set()
        for part in enumerate_partitions(5, 3, allow_empty=True):
            assert part not in seen
            seen.add(part)
            elems = [e for cl in part for e in cl]
            assert sorted(elems) == [1, 2, 3, 4, 5]

    def test_cap(self):
        with pytest.raises(CapExceededError):
            list(enumerate_partitions(9, 2, allow_empty=True))
        assert list(enumerate_partitions(9, 2, allow_empty=True, max_n=9))


class TestMaxKExhaustive:
    def test_three_rows_two_symbols(self):
        best, witness = max_k_exhaustive(3, 2)
        assert best == 4
        assert len(witness) == 4

    def test_five_rows_three_symbols(self):
        assert max_k_exhaustive(5, 3)[0] == 5

    def test_five_rows_three_symbols_d_barred(self):
        assert max_k_exhaustive(5, 3, VARIANT_BAR1_1)[0] == 5

    def test_witness_is_deterministic_and_canonical(self):
        first = max_k_exhaustive(3, 2)
        second = max_k_exhaustive(3, 2)
        assert first == second
        assert first[1][0] == (frozenset(), frozenset({1, 2, 3}))

    def test_agreement_with_formula_to_four(self):
        for n in range(1, 5):
            for variant in ALL_VARIANTS:
                top = n if variant.d_barred else n + 1
                for v in range(2, top + 1):
                    got, _ = max_k_exhaustive(n, v, variant, max_n=4)
                    assert got == max_columns(n, v, variant), (n, v, variant.label)

    def test_witness_systems_pass_the_definition_check(self):
        for n in range(2, 5):
            for variant in ALL_VARIANTS:
                top = n if variant.d_barred else n + 1
                for v in range(2, top + 1):
                    best, witness = max_k_exhaustive(n, v, variant, max_n=4)
                    if best == 0:
                        continue
                    arr = partitions_to_array(witness, n, v)
                    assert verify_by_definition(arr, variant)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            max_k_exhaustive(6, 2)

    def test_no_search_above_n_plus_one_symbols(self):
        # a partition with at most one empty class has at most n + 1 classes
        assert max_k_exhaustive(3, 10**9) == (0, [])

    def test_needs_two_symbols(self):
        with pytest.raises(ValueError):
            max_k_exhaustive(3, 1)


class TestVerifyByDefinition:
    def test_agrees_on_the_canonical_array(self):
        for variant in ALL_VARIANTS:
            assert bool(verify_by_definition(ARR34, variant)) == bool(verify_la(ARR34, variant))

    def test_d_barred_forbids_empty_cover(self):
        arr = TestArray(((1, 1), (1, 0)), v=2)  # column 1 never shows symbol 0
        verdict = verify_by_definition(arr, VARIANT_BAR1_1)
        assert not verdict

    def test_t_barred_forbids_full_cover(self):
        arr = TestArray(((1, 0), (1, 1)), v=2)  # column 1 is constant
        verdict = verify_by_definition(arr, VARIANT_1_BAR1)
        assert not verdict

    def test_agrees_with_verify_la_on_random_arrays(self):
        rng = random.Random(20260810)
        for _ in range(500):
            arr = random_array(rng)
            for variant in ALL_VARIANTS:
                assert bool(verify_by_definition(arr, variant)) == bool(
                    verify_la(arr, variant)
                ), (arr, variant.label)

    def test_agrees_on_generated_arrays(self):
        from locarray import generate_la

        for n in range(2, 7):
            for v in range(2, n + 2):
                for variant in ALL_VARIANTS:
                    if max_columns(n, v, variant) <= 0:
                        continue
                    arr = generate_la(n, v, variant)
                    assert verify_by_definition(arr, variant)


def partitions_to_array(partitions, n, v):
    """Columns straight from partitions, symbols assigned in stored class order."""
    cols = []
    for part in partitions:
        col = [0] * n
        for sym, cl in enumerate(part):
            for e in cl:
                col[e - 1] = sym
        cols.append(col)
    rows = tuple(tuple(col[r] for col in cols) for r in range(n))
    return TestArray(rows, v)
