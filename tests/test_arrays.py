import pickle
import random
import tracemalloc
from functools import reduce
from itertools import combinations, product
from operator import and_, or_

import pytest

from locarray import (
    ALL_VARIANTS,
    VARIANT_11,
    VARIANT_1_BAR1,
    VARIANT_BAR1_1,
    VARIANT_BAR1_BAR1,
    TestArray,
    build_variant_type,
    generate_la,
    max_columns,
    realize,
    spreads_to_array,
    verify_ca2,
    verify_da11,
    verify_la,
)
from locarray.arrays import _class_folds, _class_masks
from locarray.spread_types import SpreadSystem
from conftest import random_array

# the canonical optimal 3x4 array on two symbols
ARR34 = TestArray(((1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)), v=2)

# a strength-2 covering array on four rows
CA42 = TestArray(((0, 0), (0, 1), (1, 0), (1, 1)), v=2)


class TestTestArray:
    def test_shape(self):
        assert ARR34.n_rows == 3 and ARR34.k == 4 and ARR34.v == 2

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            TestArray(((0, 1), (0,)), v=2)

    def test_symbol_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TestArray(((0, 2),), v=2)

    def test_first_bad_entry_in_row_major_order_is_named(self):
        with pytest.raises(ValueError, match=r"^entry 3 outside 0\.\.1$"):
            TestArray(((0, 1), (3, -1)), v=2)
        with pytest.raises(ValueError, match=r"^entry -2 outside 0\.\.1$"):
            TestArray(((0, 1), (1, 0), (-2, 5)), v=2)
        with pytest.raises(ValueError, match="^rows have unequal lengths$"):
            TestArray(((0, 1), (1,), (5, 5)), v=2)

    def test_pickle_round_trip(self):
        copy = pickle.loads(pickle.dumps(ARR34))
        assert copy == ARR34 and type(copy) is TestArray and repr(copy) == repr(ARR34)

    def test_loading_a_pickle_checks_the_array_again(self):
        # entries 0 and 1 only, so the one 1-byte int 3 in the stream is v; set it to 1
        data = pickle.dumps(TestArray(((0, 1), (1, 0)), v=3), protocol=2)
        assert data.count(b"K\x03") == 1
        with pytest.raises(ValueError, match=r"^entry 1 outside 0\.\.0$"):
            pickle.loads(data.replace(b"K\x03", b"K\x01"))

    def test_a_replaced_field_is_checked(self):
        assert ARR34._replace(v=3) == TestArray(ARR34.rows, 3)
        with pytest.raises(ValueError, match=r"^entry 1 outside 0\.\.0$"):
            ARR34._replace(v=1)

    def test_rows_are_bytes_while_every_symbol_fits_a_byte(self):
        small = TestArray(tuple((r, 255 - r) for r in range(255)), 256)
        large = TestArray(tuple((r, 256 - r) for r in range(256)), 257)
        assert {type(r) for r in small.rows} == {bytes} and small.rows[1] == b"\x01\xfe"
        assert {type(r) for r in large.rows} == {tuple} and large.rows[0] == (0, 256)
        for arr in (small, large):
            copy = pickle.loads(pickle.dumps(arr))
            assert copy == arr and type(copy) is TestArray and copy.rows == arr.rows

    def test_rows_of_any_form_with_equal_entries_make_equal_arrays(self):
        for v in (3, 257):  # entries below 256, so that bytes can hold them too
            entries = [[r % 3, (r * 7 + 1) % min(v, 256)] for r in range(max(v - 1, 2))]
            arrays = [TestArray([form(r) for r in entries], v)
                      for form in (list, tuple, bytearray, bytes, iter)]
            assert all(a == arrays[0] and hash(a) == hash(arrays[0]) for a in arrays), v

    def test_byte_rows_name_the_first_bad_entry(self):
        for rows, v, bad in [
            (((0, 1), (2, 0), (-1, 0)), 2, r"2 outside 0\.\.1"),
            ((b"\x00\x01", bytearray(b"\x01\x00"), (0, -1)), 2, r"-1 outside 0\.\.1"),
            (tuple((r,) for r in range(255)) + ((256,), (-1,)), 256, r"256 outside 0\.\.255"),
        ]:
            with pytest.raises(ValueError, match=f"^entry {bad}$"):
                TestArray(rows, v)

    def test_a_row_given_as_an_int_is_not_a_row_of_zero_bytes(self):
        with pytest.raises(TypeError):
            TestArray((3, 3), 2)


class TestSpreadsToArray:
    """The array of a spread system: its rows, on the system's v symbols."""

    def test_small_pipeline(self):
        system = realize(build_variant_type(3, 2))
        assert spreads_to_array(system) == ARR34

    def test_identity_column(self):
        system = SpreadSystem(3, 3, (bytearray([0]), bytearray([1]), bytearray([2])))
        arr = spreads_to_array(system)
        assert arr.rows == (b"\x00", b"\x01", b"\x02")
        assert system.spreads == (((1,), (2,), (3,)),)

    def test_blocks_take_symbols_in_list_order(self):
        system = SpreadSystem(3, 2, (bytearray([1]), bytearray([0]), bytearray([0])))
        assert spreads_to_array(system).rows == (b"\x01", b"\x00", b"\x00")
        assert system.spreads == (((2, 3), (1,)),)

    def test_no_spreads_give_empty_rows(self):
        arr = spreads_to_array(SpreadSystem(3, 2, (bytearray(), bytearray(), bytearray())))
        assert arr.rows == (b"", b"", b"") and arr.k == 0

    def test_v_comes_from_the_system(self):
        # rows that use positions 0 and 1 only still make an array on the system's 3 symbols
        rows = (bytearray([0, 1]), bytearray([1, 0]), bytearray([1, 1]))
        assert spreads_to_array(SpreadSystem(3, 3, rows)).v == 3
        # an entry at or above v is still refused, by TestArray
        with pytest.raises(ValueError, match=r"^entry 3 outside 0\.\.2$"):
            spreads_to_array(SpreadSystem(3, 3, rows[:2] + (bytearray([3, 0]),)))

    def test_round_trip_with_partitions(self):
        # column classes, sorted canonically, rebuild the spread blocks
        system = realize(build_variant_type(5, 3))
        arr = spreads_to_array(system)
        for sp, classes in zip(system.spreads, set_classes(arr)):
            want = sorted(sp, key=lambda b: (len(b), b))
            got = sorted((tuple(sorted(cl)) for cl in classes), key=lambda b: (len(b), b))
            assert got == list(want)


class TestVerifyLa:
    def test_base_variant_ok(self):
        assert verify_la(ARR34, VARIANT_11)

    def test_d_barred_rejects_empty_class(self):
        verdict = verify_la(ARR34, VARIANT_BAR1_1)
        assert not verdict
        assert verdict.reason == "empty class"
        assert verdict.witness == ((1, 0),)

    def test_t_barred_rejects_full_class(self):
        verdict = verify_la(ARR34, VARIANT_1_BAR1)
        assert not verdict
        assert verdict.witness == ((1, 1),)

    def test_duplicate_columns_fail_every_variant(self):
        arr = TestArray(((0, 0), (1, 1)), v=2)
        for variant in ALL_VARIANTS:
            verdict = verify_la(arr, variant)
            assert not verdict

    def test_names_the_duplicated_pair(self):
        arr = TestArray(((0, 0), (1, 1)), v=2)
        verdict = verify_la(arr, VARIANT_11)
        assert verdict.reason == "two classes with the same row set"
        assert verdict.witness == ((1, 0), (2, 0))


class TestVerifyCa2:
    def test_full_factorial_ok(self):
        assert verify_ca2(CA42)

    def test_optimal_array_is_not_covering(self):
        verdict = verify_ca2(ARR34)
        assert not verdict

    def test_empty_class_fails(self):
        arr = TestArray(((1, 0), (1, 1)), v=2)
        assert not verify_ca2(arr)


class TestVerifyDa11:
    def test_factorial_is_inclusion_free(self):
        assert verify_da11(CA42)

    def test_empty_class_fails(self):
        arr = TestArray(((1, 0), (1, 1)), v=2)
        assert not verify_da11(arr)

    def test_implication_chain_on_random_arrays(self):
        rng = random.Random(31)
        for _ in range(300):
            arr = random_array(rng)
            if verify_da11(arr):
                assert verify_la(arr, VARIANT_BAR1_1)
            if verify_la(arr, VARIANT_BAR1_1):
                assert verify_la(arr, VARIANT_11)
            # a full class forces empty classes beside it, so both-barred
            # reduces to d-barred on every array
            assert bool(verify_la(arr, VARIANT_BAR1_BAR1)) == bool(verify_la(arr, VARIANT_BAR1_1))
            if arr.v >= 3 and verify_la(arr, VARIANT_11):
                assert verify_la(arr, VARIANT_1_BAR1)


def set_classes(arr):
    """Reference column classes: per column, v frozensets of 1-based rows."""
    return [
        [frozenset(r for r in range(1, arr.n_rows + 1) if arr.rows[r - 1][c] == s)
         for s in range(arr.v)]
        for c in range(arr.k)
    ]


def reference_ca2(arr):
    parts = set_classes(arr)
    for c1 in range(len(parts)):
        for c2 in range(c1 + 1, len(parts)):
            for s1, r1 in enumerate(parts[c1]):
                for s2, r2 in enumerate(parts[c2]):
                    if not (r1 & r2):
                        return False, ((c1 + 1, s1), (c2 + 1, s2))
    return True, ()


def reference_da11(arr):
    labeled = [(c, s, rows) for c, classes in enumerate(set_classes(arr), start=1)
               for s, rows in enumerate(classes)]
    for i, (c1, s1, r1) in enumerate(labeled):
        for j, (c2, s2, r2) in enumerate(labeled):
            if i != j and r1 <= r2:
                return False, ((c1, s1), (c2, s2))
    return True, ()


class TestVerifiersAgainstRowSets:
    def test_random_arrays(self):
        rng = random.Random(2024)
        outcomes = {"ca2": set(), "da11": set()}
        for _ in range(1200):
            arr = random_array(rng, max_rows=7, max_cols=6, max_symbols=4)
            for name, check, reference in (("ca2", verify_ca2, reference_ca2),
                                           ("da11", verify_da11, reference_da11)):
                got = check(arr)
                assert (got.ok, got.witness) == reference(arr), (name, arr)
                outcomes[name].add(got.ok)
        # both verdicts occur, so the witnesses of failures and the passes are compared
        assert outcomes == {"ca2": {True, False}, "da11": {True, False}}


def reference_la(arr, variant):
    seen = {}
    for c, classes in enumerate(set_classes(arr), start=1):
        for s, rows in enumerate(classes):
            if variant.d_barred and not rows:
                return False, ((c, s),)
            if variant.t_barred and len(rows) == arr.n_rows:
                return False, ((c, s),)
            if rows in seen:
                return False, (seen[rows], (c, s))
            seen[rows] = (c, s)
    return True, ()


def reference_forms(arr):
    """The class forms entry by entry: row masks per class in column-major
    order, and per row one mask with bit c*v + s set where the row shows s in
    column c (0-based)."""
    by_class = [0] * (arr.k * arr.v)
    by_row = [0] * arr.n_rows
    for r, row in enumerate(arr.rows):
        for c, s in enumerate(row):
            by_class[c * arr.v + s] |= 1 << r
            by_row[r] |= 1 << (c * arr.v + s)
    return by_class, by_row


class TestChunkEdges:
    """The verifiers fold rows in chunks of 8: arrays with 7, 8, 9, 16 and 17 rows,
    and v up to n + 1, so that classes end on and across chunk borders and some are empty."""

    def arrays(self):
        rng = random.Random(1617)
        for n in (7, 8, 9, 16, 17):
            for v in (1, 2, 2, 3, rng.randint(2, n + 1), n + 1):
                for _ in range(6):
                    k = rng.randint(1, 5)
                    yield TestArray(tuple(tuple(rng.randrange(v) for _ in range(k))
                                          for _ in range(n)), v)

    def test_verifiers_match_the_references(self):
        outcomes = {"ca2": set(), "da11": set(), "la": set()}
        for arr in self.arrays():
            for name, check, reference in (("ca2", verify_ca2, reference_ca2),
                                           ("da11", verify_da11, reference_da11)):
                got = check(arr)
                assert (got.ok, got.witness) == reference(arr), (name, arr)
                outcomes[name].add(got.ok)
            for variant in ALL_VARIANTS:
                got = verify_la(arr, variant)
                assert (got.ok, got.witness) == reference_la(arr, variant), (variant, arr)
                outcomes["la"].add(got.ok)
        assert outcomes == {"ca2": {True, False}, "da11": {True, False}, "la": {True, False}}

    EDGES = [TestArray((), 1), TestArray(((), (), ()), 2), TestArray(((0, 0, 0),), 1),
             TestArray(((0, 1, 2), (2, 2, 0)), 3), TestArray(((0,), (0,), (0,)), 1),
             TestArray(tuple((r % 5, 3 - r % 4) for r in range(4)), 5),
             # the last v whose symbols are bytes, and the first past it
             TestArray(tuple((r, 255 - r % 3) for r in range(255)), 256),
             TestArray(tuple((r, 256 - r % 3) for r in range(256)), 257)]

    def test_class_forms_match_entry_by_entry(self):
        for arr in [*self.EDGES, *self.arrays()]:
            assert _class_masks(arr) == reference_forms(arr)[0], arr

    def test_folds_across_blocks_of_classes(self):
        """Folds come in blocks of 64 classes: here 256, 257, 258 and 513 of them, on
        8, 9, 16 and 17 rows, which end on and across the byte borders of a class mask."""
        rng = random.Random(256)
        blocks = [TestArray(tuple(tuple(rng.randrange(v) for _ in range(k)) for _ in range(n)), v)
                  for n in (8, 9, 16, 17) for v, k in ((2, 128), (1, 257), (2, 129), (3, 171))]
        for arr in [*self.EDGES, *blocks]:
            v, k = arr.v, arr.k
            by_class, by_row = reference_forms(arr)
            full = (1 << k * v) - 1
            for op, empty in ((or_, 0), (and_, full)):
                want = [reduce(op, (m for r, m in enumerate(by_row) if rows >> r & 1), empty)
                        for rows in by_class]
                assert list(_class_folds(arr, op, empty)) == want, (arr.n_rows, v, k, op)

    def test_many_symbols_take_one_pass(self):
        """Above v = 256 each entry sets one bit of its class: a permutation column
        of 2000 rows on 2001 symbols verifies in one pass, not one per symbol."""
        arr = TestArray(tuple((s,) for s in random.Random(2001).sample(range(2001), 2000)), 2001)
        tracemalloc.start()
        try:
            verdict = verify_la(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.ok and peak < 1.5 * 2**20, peak


class TestTooManySymbols:
    """Above v = n + 1 every column has two or more empty classes: no such array is built."""

    def test_rejected_when_built(self):
        for rows in (((0, 1), (1, 0)), ((1,),), ((), ()), ()):  # with 0 rows, v = 2 fails
            n = len(rows)
            assert TestArray(rows, n + 1).v == n + 1
            for v in (n + 2, 10**20):
                with pytest.raises(ValueError, match=rf"need 1 <= v <= n \+ 1, got v={v} with n={n}"):
                    TestArray(rows, v)


def pair_array(duplicate_last):
    """8 x 35: one column per 4-subset of the rows that holds row 1, class 0 on
    the subset, so every class is the complement of exactly one other."""
    cols = [[0 if r in subset else 1 for r in range(1, 9)]
            for subset in combinations(range(1, 9), 4) if 1 in subset]
    if duplicate_last:
        cols.append(cols[-1])
    return TestArray(tuple(zip(*cols)), v=2)


class TestWitnessOrder:
    """The first fault sits in the last column pair; the scan order must find it."""

    def test_pair_array_passes(self):
        arr = pair_array(duplicate_last=False)
        assert arr.k == 35
        assert verify_la(arr) and verify_ca2(arr) and verify_da11(arr)

    def test_late_duplicate_is_named(self):
        arr = pair_array(duplicate_last=True)
        assert verify_ca2(arr).witness == ((35, 0), (36, 1))
        assert verify_da11(arr).witness == ((35, 0), (36, 0))
        assert verify_la(arr).witness == ((35, 0), (36, 0))


def wide_array(rng, v, fault):
    """A seeded array of 66-72 columns, so column masks pass 64 bits, with one
    fault planted in its last columns (or none)."""
    k = rng.randint(66, 72)
    rows = [[rng.randrange(v) for _ in range(k)] for _ in range(10 * v * v)]
    c1 = rng.randrange(k - 8, k - 1)
    c2 = rng.randrange(c1 + 1, k)
    if fault == "duplicate":
        earlier = rng.randrange(k - 1)
        for row in rows:
            row[-1] = row[earlier]
    elif fault == "empty class":
        gone = rng.randrange(v)
        for row in rows:
            row[-1] = rng.choice([s for s in range(v) if s != gone])
    elif fault == "contained":  # class (c1, s) inside class (c2, t)
        s, t = rng.randrange(v), rng.randrange(v)
        for row in rows:
            if row[c1] == s:
                row[c2] = t
    elif fault == "permuted":  # c2 a relabelled c1: many (s1, s2) uncovered against c2
        image = rng.sample(range(v), v)
        for row in rows:
            row[c2] = image[row[c1]]
    return TestArray(tuple(map(tuple, rows)), v)


class TestVerifiersOnWideArrays:
    FAULTS = (None, "duplicate", "empty class", "contained", "permuted")
    REASONS = {"ca2": "uncovered symbol pair", "da11": "class contained in another"}

    def check(self, arr):
        """Compare both verifiers with the row-set references; return the failing checks."""
        failed = {}
        for name, check, reference in (("ca2", verify_ca2, reference_ca2),
                                       ("da11", verify_da11, reference_da11)):
            ok, witness = reference(arr)
            got = check(arr)
            assert (got.ok, got.reason, got.witness) == (
                ok, "" if ok else self.REASONS[name], witness), (name, arr)
            if not ok:
                failed[name] = witness
        return failed

    def test_late_faults_match_the_references(self):
        rng = random.Random(77)
        late = set()
        passed = set()
        for v in range(2, 6):
            for fault in self.FAULTS:
                arr = wide_array(rng, v, fault)
                failed = self.check(arr)
                passed |= {"ca2", "da11"} - failed.keys()
                late |= {name for name, witness in failed.items()
                         if min(c for c, _ in witness) > 64}
        # both checks pass somewhere and name a fault whose columns both sit past bit 64
        assert passed == late == {"ca2", "da11"}

    def test_tie_break_between_uncovered_pairs(self):
        # column 2 relabels column 1 by 0->0, 1->2, 2->1: the uncovered pairs
        # against column 2 are (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2)
        arr = TestArray(((0, 0), (1, 2), (2, 1)), v=3)
        assert self.check(arr)["ca2"] == ((1, 0), (2, 1))

    def test_edge_arrays(self):
        assert self.check(TestArray(((), ()), v=3)) == {}
        for n in range(1, 4):
            for v in range(1, min(4, n + 2)):  # at most one empty class per column
                for rows in product(range(v), repeat=n):
                    self.check(TestArray(tuple((s,) for s in rows), v))
        # the empty class (1, 1) is the first class contained in another
        assert self.check(TestArray(((0,),), v=2))["da11"] == ((1, 1), (1, 0))


class TestGenerateLa:
    def test_three_two(self):
        assert generate_la(3, 2) == ARR34

    def test_five_three(self):
        arr = generate_la(5, 3)
        assert arr.n_rows == 5 and arr.k == 5
        assert verify_la(arr)

    def test_column_counts_match_the_bound(self):
        for n in range(2, 9):
            for v in range(2, n + 2):
                for variant in ALL_VARIANTS:
                    if max_columns(n, v, variant) <= 0:
                        continue
                    arr = generate_la(n, v, variant)
                    assert arr.k == max_columns(n, v, variant)
                    assert verify_la(arr, variant)

    def test_impossible_requests_rejected(self):
        with pytest.raises(ValueError):
            generate_la(3, 5)
        with pytest.raises(ValueError):
            generate_la(3, 4, VARIANT_BAR1_1)
        with pytest.raises(ValueError):
            generate_la(1, 2, VARIANT_1_BAR1)

    def test_deterministic(self):
        assert generate_la(6, 3) == generate_la(6, 3)

    def test_a_realization_short_of_the_bound_is_an_internal_error(self, monkeypatch):
        def short(t, max_n):  # the realization with its last column dropped
            system = realize(t, max_n=max_n)
            return system._replace(rows=tuple(row[:-1] for row in system.rows))
        monkeypatch.setattr("locarray.arrays.realize", short)
        with pytest.raises(RuntimeError,
                           match="^internal: generated width disagrees with the exact optimum$"):
            generate_la(5, 3)
