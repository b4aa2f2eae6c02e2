import hashlib
import math
import pickle
import sys

import pytest

from locarray import (
    ALL_VARIANTS,
    VARIANT_1_BAR1,
    VARIANT_BAR1_1,
    VARIANT_BAR1_BAR1,
    Variant,
    max_columns,
)
from locarray.combinatorics import (
    VARIANT_LABELS,
    BoundParams,
    binomial,
    bound_params,
    inequality_failures,
)


def pascal_triangle(limit):
    rows = [[1]]
    for n in range(1, limit + 1):
        prev = rows[-1]
        rows.append([1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1])
    return rows


class TestBinomial:
    def test_small_value(self):
        assert binomial(5, 2) == 10

    def test_out_of_range_is_zero(self):
        assert binomial(10, -1) == 0
        assert binomial(3, 7) == 0
        assert binomial(-2, 0) == 0

    def test_matches_pascal_triangle(self):
        rows = pascal_triangle(60)
        for n in range(61):
            for k in range(n + 1):
                assert binomial(n, k) == rows[n][k]
        assert binomial(60, 20) == rows[60][20] == 4191844505805495


class TestVariants:
    def test_four_labels(self):
        assert set(VARIANT_LABELS) == {"11", "bar1-1", "1-bar1", "bar1-bar1"}
        assert len(set(ALL_VARIANTS)) == 4

    def test_label_round_trip(self):
        for variant in ALL_VARIANTS:
            assert VARIANT_LABELS[variant.label] == variant

    def test_fields(self):
        assert Variant(True, False).d_barred and not Variant(True, False).t_barred

    def test_pickle_round_trip(self):
        for variant in ALL_VARIANTS:
            copy = pickle.loads(pickle.dumps(variant))
            assert copy == variant and type(copy) is Variant and copy.label == variant.label


class TestMaxColumns:
    def test_three_rows_two_symbols(self):
        assert max_columns(3, 2) == 4

    def test_one_symbol_per_element_plus_one(self):
        for n in range(2, 13):
            assert max_columns(n, n + 1) == 1

    def test_five_rows_three_symbols(self):
        # cross-checked against the exhaustive search in test_oracle
        assert max_columns(5, 3) == 5

    def test_six_rows_three_symbols(self):
        # floor((2*6 + 15) / 3) + 1 by direct evaluation
        assert max_columns(6, 3) == 10

    def test_ten_rows_three_symbols(self):
        # floor(120 / 2) + (1 + 10 + 45) by direct evaluation
        assert max_columns(10, 3) == 116

    def test_two_symbols_powers_of_two(self):
        for n in range(2, 31):
            assert max_columns(n, 2) == 2 ** (n - 1)

    def test_as_many_symbols_as_rows(self):
        for n in range(3, 31):
            assert max_columns(n, n) == 1
            assert max_columns(n, n + 1) == 1

    def test_zero_when_too_many_symbols(self):
        assert max_columns(4, 6) == 0
        assert max_columns(1, 3) == 0
        for n in range(1, 12):
            assert max_columns(n, n + 2) == 0

    def test_monotone_in_symbol_count(self):
        for n in range(2, 21):
            vals = [max_columns(n, v) for v in range(2, n + 2)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            max_columns(0, 2)
        with pytest.raises(ValueError):
            max_columns(3, 1)


class TestMaxColumnsVariants:
    def test_strength_barred_two_symbols(self):
        for n in range(2, 16):
            assert max_columns(n, 2, VARIANT_1_BAR1) == 2 ** (n - 1) - 1

    def test_strength_barred_matches_base_for_three_plus(self):
        for n in range(3, 13):
            for v in range(3, n + 2):
                assert max_columns(n, v, VARIANT_1_BAR1) == max_columns(n, v)

    def test_d_barred_five_three(self):
        # d=4 >= f+2=4 and the weighted sum 23 leaves residue 3 in {3}
        assert max_columns(5, 3, VARIANT_BAR1_1) == 5

    def test_d_barred_six_three(self):
        # d=3 < f+2=4, so one column below the base optimum
        assert max_columns(6, 3, VARIANT_BAR1_1) == 9

    def test_d_barred_two_symbols(self):
        for n in range(2, 16):
            assert max_columns(n, 2, VARIANT_BAR1_1) == 2 ** (n - 1) - 1

    def test_both_barred_equals_d_barred(self):
        for n in range(2, 13):
            for v in range(2, n + 1):
                assert max_columns(n, v, VARIANT_BAR1_BAR1) == max_columns(n, v, VARIANT_BAR1_1)

    def test_d_barred_zero_when_v_exceeds_n(self):
        for n in range(1, 10):
            assert max_columns(n, n + 1, VARIANT_BAR1_1) == 0
            assert max_columns(n, n + 1, VARIANT_BAR1_BAR1) == 0


class TestBoundParams:
    def test_shortfall_range(self):
        for n in range(2, 41):
            for v in range(2, n + 2):
                p = bound_params(n, v)
                if n % v == v - 1:
                    assert p.d == v + 1
                    assert p.f - 1 == n // v
                else:
                    assert 2 <= p.d <= v
                    assert p.f == n // v

    def test_fields_match_direct_sums(self):
        seen_m, seen_residue = set(), False
        for n in range(1, 201):
            row = [math.comb(n, i) for i in range(n + 1)]
            for v in range(2, n + 2):
                f = (n + 1) // v
                d = (f + 1) * v - n
                m = f - d + 2
                head = sum((f + 1 - i) * row[i] for i in range(max(0, m), f + 1))
                weighted = sum((f + 1 - i) * row[i] for i in range(f + 1))
                p = bound_params(n, v)
                assert (p.f, p.d) == (f, d), (n, v)
                assert p.columns == head // d + sum(row[:max(0, m)]), (n, v)
                assert p.dbar_recovers == (d >= f + 2 and weighted % d > f), (n, v)
                seen_m.add(max(0, m))
                seen_residue |= d == v + 1
        assert {0, 1, 2} <= seen_m and seen_residue

    @pytest.mark.parametrize("n", [2000, 10000])
    @pytest.mark.parametrize("v", [2, 3, 7])
    def test_matches_the_walk_over_every_level(self, n, v):
        assert bound_params(n, v) == walk_bound_params(n, v)

    def test_twenty_thousand_rows_digest(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            text = str(max_columns(20000, 3))
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(text) == 5527
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f7cdf2f8976893c5b09527eb2f357af9390bf4608719aefe064444559deb45d6")


def walk_bound_params(n, v):
    """Reference: every level 0..f in one pass, C(n, i+1) = C(n, i) * (n-i) / (i+1)."""
    f = (n + 1) // v
    d = (f + 1) * v - n
    head = tail = weighted = 0
    c = 1
    for i in range(f + 1):
        if i >= f - d + 2:
            head += (f + 1 - i) * c
        else:
            tail += c
        weighted += (f + 1 - i) * c
        c = c * (n - i) // (i + 1)
    recovers = d >= f + 2 and weighted % d > f
    return BoundParams(n, v, f, d, head // d + tail, recovers)


class TestInequalities:
    def test_suite_holds_to_sixty(self):
        assert inequality_failures(60) == []
