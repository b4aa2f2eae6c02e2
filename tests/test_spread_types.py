import math
import pickle
import random
import time
from collections import Counter

import pytest

from locarray import (
    ALL_VARIANTS,
    VARIANT_11,
    VARIANT_1_BAR1,
    VARIANT_BAR1_1,
    VARIANT_BAR1_BAR1,
    Shape,
    VType,
    Verdict,
    build_variant_type,
    is_admissible,
    max_columns,
    realize,
)
from locarray.combinatorics import binomial, bound_params
from locarray.spread_types import InadmissibleTypeError, balanced_shape, make_full, offset_shape
from conftest import padding_blocks, random_admissible_type


class TestShape:
    def test_canonical_form(self):
        assert Shape((3, 1, 2)).entries == (1, 2, 3)
        assert Shape((3, 1, 2)) == Shape((2, 3, 1))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            Shape((1, -1))

    def test_empty_shape_rejected(self):
        # a spread with no blocks is no column of any array
        with pytest.raises(ValueError):
            Shape(())

    def test_ordering(self):
        assert Shape((0, 3, 3)) < Shape((1, 2, 3)) < Shape((2, 2, 2))

    def test_a_value_of_its_sorted_sizes(self):
        assert Shape((2, 1)) == Shape((1, 2)) and hash(Shape((2, 1))) == hash(Shape((1, 2)))
        assert Shape((2, 1)) != Shape((1, 1, 1)) and len(Shape((2, 1))) == 2
        assert sorted([Shape((2, 2)), Shape((1, 3)), Shape((0, 4)), Shape((0, 0, 4))]) == [
            Shape((0, 0, 4)), Shape((0, 4)), Shape((1, 3)), Shape((2, 2))]
        assert repr(Shape((3, 1, 2))) == "Shape([1, 2, 3])" and Shape((3, 1, 2)).total == 6

    def test_rejections_say_what_a_shape_needs(self):
        for sizes in [(), (1, -1)]:
            with pytest.raises(ValueError, match="^a shape needs one or more nonnegative block sizes$"):
                Shape(sizes)

    def test_pickle_round_trip(self):
        for value in [Shape((3, 0, 1)), Verdict(True), Verdict(False, "two slots", (2,))]:
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and type(copy) is type(value) and repr(copy) == repr(value)
        assert not pickle.loads(pickle.dumps(Verdict(False, "two slots", (2,))))


class TestVType:
    def test_merges_duplicate_shapes(self):
        t = VType(4, 2, [(Shape((1, 3)), 1), (Shape((3, 1)), 2)])
        assert t.items() == [(Shape((1, 3)), 3)]
        assert t.size() == 3

    def test_rejects_oversized_shape(self):
        with pytest.raises(ValueError):
            VType(3, 2, {Shape((2, 2)): 1})

    def test_rejects_a_shape_with_another_block_count(self):
        # each shape is one spread of v blocks: 3 blocks of a 2-type, 2 of a 3-type
        for v, entries in ((2, (1, 1, 2)), (3, (2, 2))):
            with pytest.raises(ValueError, match=f"does not partition 4 elements into {v} blocks"):
                VType(4, v, {Shape(entries): 1})

    def test_rejects_nonpositive_multiplicity(self):
        with pytest.raises(ValueError):
            VType(4, 2, [(Shape((1, 3)), 0)])

    def test_needs_a_row_and_two_symbols(self):
        with pytest.raises(ValueError, match="^need n >= 1, got 0$"):
            VType(0, 2)
        with pytest.raises(ValueError, match="^need v >= 2, got 1$"):
            VType(3, 1)

    def test_repr_and_equality(self):
        t = VType(4, 2, {Shape((3, 1)): 2, Shape((2, 2)): 1})
        assert repr(t) == "VType(n=4, v=2, [[1, 3]x2, [2, 2]x1])"
        assert t == VType(4, 2, [(Shape((2, 2)), 1), (Shape((1, 3)), 2)])
        assert (t == object()) is False and t != VType(4, 2, {Shape((2, 2)): 1})

    def test_pickle_round_trip(self):
        t = VType(6, 3, {Shape((1, 2, 3)): 6, Shape((2, 2, 2)): 3})
        copy = pickle.loads(pickle.dumps(t))
        assert copy == t and type(copy) is VType and repr(copy) == repr(t)

    def test_loading_a_pickle_checks_the_type_again(self):
        # sizes 1 and 3, v = 2 and count 2, so the one 1-byte int 4 in the stream is n; set it to 5
        data = pickle.dumps(VType(4, 2, {Shape((1, 3)): 2}), protocol=2)
        assert data.count(b"K\x04") == 1
        with pytest.raises(ValueError, match=r"^Shape\(\[1, 3\]\) does not partition 5 elements"):
            pickle.loads(data.replace(b"K\x04", b"K\x05"))

    def test_a_replaced_field_is_checked(self):
        t = VType(4, 2, {Shape((1, 3)): 2})
        assert t._replace(shapes={Shape((2, 2)): 1}) == VType(4, 2, {Shape((2, 2)): 1})
        with pytest.raises(ValueError,
                           match=r"^Shape\(\[1, 3\]\) does not partition 5 elements into 2 blocks$"):
            t._replace(n=5)

    def test_a_value_that_cannot_change_after_its_checks(self):
        t = VType(4, 2, {Shape((1, 3)): 2})
        with pytest.raises(AttributeError):
            t.n = 7
        assert t.n == 4 and is_admissible(t)
        twin = VType(4, 2, [(Shape((3, 1)), 1), (Shape((1, 3)), 1)])
        assert hash(twin) == hash(t) and len({t, twin}) == 1


class TestAdmissibility:
    def test_optimal_type_admissible(self):
        assert is_admissible(build_variant_type(6, 3))

    def test_two_zero_entries_violate(self):
        verdict = is_admissible(VType(6, 3, {Shape((0, 3, 3)): 2}))
        assert not verdict
        assert verdict.reason == "2 slots of size 0, only 1 subsets available"
        assert verdict.witness == (0,)

    def test_tight_size_overflows(self):
        # the size-2 capacity of the optimal type at n=6, v=3 is already met
        t = VType(6, 3, list(build_variant_type(6, 3).items()) + [(Shape((2, 2, 2)), 1)])
        verdict = is_admissible(t)
        assert not verdict
        assert verdict.reason == "18 slots of size 2, only 15 subsets available"
        assert verdict.witness == (2,)

    def test_matches_a_per_size_reference(self):
        # optimal types, each multiplicity cut to a random part, plus three random
        # v-part shapes (one empty part only when v = n + 1), against math.comb
        # per size; an optimal type has no room for one more shape, but the cut
        # ones do, so both verdicts occur
        rng = random.Random(4099)
        verdicts = Counter()
        for _ in range(300):
            n = rng.randint(1, 29)
            v = rng.randint(2, n + 1)
            shapes = [(shape, rng.randint(1, c)) for shape, c in build_variant_type(n, v).items()]
            for _ in range(3):
                cuts = sorted(rng.sample(range(1, n), min(v, n) - 1))
                entries = [b - a for a, b in zip([0, *cuts], [*cuts, n])] + [0] * (v - min(v, n))
                shapes.append((Shape(tuple(entries)), 1))
            t = VType(n, v, shapes)
            got = is_admissible(t)
            ok, size, used, capacity = reference_admissibility(t)
            reason = f"{used} slots of size {size}, only {capacity} subsets available"
            assert got == (Verdict(True) if ok else Verdict(False, reason, (size,))), t
            verdicts[got.ok] += 1
        assert verdicts[True] and verdicts[False], verdicts

    def test_large_n(self):
        for variant in (VARIANT_11, VARIANT_BAR1_1):
            t = build_variant_type(20000, 3, variant)
            start = time.perf_counter()
            assert is_admissible(t)
            assert time.perf_counter() - start < 1.0


def reference_admissibility(t):
    """(ok, size, used, capacity) from slots counted per size and math.comb."""
    slots = Counter()
    for shape, count in t.items():
        for x in shape.entries:
            slots[x] += count
    for x in sorted(slots):
        if slots[x] > math.comb(t.n, x):
            return False, x, slots[x], math.comb(t.n, x)
    return True, None, None, None


class TestBalancedShape:
    def test_two_symbols(self):
        assert balanced_shape(3, 2, 1) == Shape((1, 2))

    def test_minimum_zero(self):
        assert balanced_shape(6, 3, 0) == Shape((0, 3, 3))

    def test_uniform(self):
        assert balanced_shape(6, 3, 2) == Shape((2, 2, 2))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            balanced_shape(5, 3, 3)
        with pytest.raises(ValueError):
            balanced_shape(5, 3, -1)

    def test_needs_a_row_and_two_symbols(self):
        with pytest.raises(ValueError, match="^need n >= 1 and v >= 2; got n=0, v=2$"):
            balanced_shape(0, 2, 0)

    def test_top_level_missing_in_residue_case(self):
        # 5 = 2 (mod 3): the top balanced shape does not exist
        with pytest.raises(ValueError):
            balanced_shape(5, 3, 2)

    def test_always_sums_to_n(self):
        for n in range(2, 20):
            for v in range(2, n + 2):
                f = bound_params(n, v).f
                top = f - 1 if n % v == v - 1 else f
                for i in range(top + 1):
                    s = balanced_shape(n, v, i)
                    assert s.total == n and len(s) == v and s.entries[0] == i
                    rest = s.entries[1:]
                    assert max(rest) - min(rest) <= 1


class TestOffsetShape:
    def test_five_three(self):
        assert offset_shape(5, 3) == Shape((1, 1, 3))

    def test_eleven_four(self):
        assert offset_shape(11, 4) == Shape((2, 2, 3, 4))

    def test_wrong_residue(self):
        with pytest.raises(ValueError):
            offset_shape(6, 3)

    def test_needs_three_symbols(self):
        with pytest.raises(ValueError):
            offset_shape(3, 2)


class TestOptimalType:
    def test_three_two(self):
        t = build_variant_type(3, 2)
        assert t == VType(3, 2, {Shape((0, 3)): 1, Shape((1, 2)): 3})

    def test_one_more_symbol_than_rows(self):
        for n in range(2, 10):
            t = build_variant_type(n, n + 1)
            assert t == VType(n, n + 1, {Shape((0,) + (1,) * n): 1})

    def test_six_three(self):
        t = build_variant_type(6, 3)
        assert t == VType(
            6, 3, {Shape((0, 3, 3)): 1, Shape((1, 2, 3)): 6, Shape((2, 2, 2)): 3}
        )

    def test_five_three(self):
        # residue branch: one offset shape absorbs the spare size-1 slot
        t = build_variant_type(5, 3)
        assert t == VType(
            5, 3, {Shape((0, 2, 3)): 1, Shape((1, 2, 2)): 3, Shape((1, 1, 3)): 1}
        )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            build_variant_type(4, 6)

    def test_every_shape_has_defect_at_least_d(self):
        for n in range(2, 13):
            for v in range(2, n + 2):
                p = bound_params(n, v)
                for shape, _ in build_variant_type(n, v).items():
                    assert sum(p.f + 1 - x for x in shape.entries if x <= p.f) >= p.d

    def test_random_admissible_types_never_beat_the_bound(self):
        # greedy randomized packing of v-shapes summing to n stays within the bound
        rng = random.Random(1781)
        for _ in range(200):
            n = rng.randint(2, 10)
            v = rng.randint(2, min(n + 1, 5))
            sigma = [0] * (n + 1)
            count = 0
            for _ in range(600):
                entries, remaining = [], n
                for _ in range(v - 1):
                    e = rng.randint(0, remaining)
                    entries.append(e)
                    remaining -= e
                entries.append(remaining)
                shape = Shape(tuple(entries))
                if all(sigma[x] + shape.entries.count(x) <= binomial(n, x)
                       for x in set(shape.entries)):
                    count += 1
                    for x in shape.entries:
                        sigma[x] += 1
            assert count <= max_columns(n, v)


class TestVariantType:
    def test_six_three_drops_the_zero_shape(self):
        t = build_variant_type(6, 3, VARIANT_BAR1_1)
        assert t == VType(6, 3, {Shape((1, 2, 3)): 6, Shape((2, 2, 2)): 3})
        assert t.size() == 9 == max_columns(6, 3, VARIANT_BAR1_1)

    def test_five_three_residue_swap(self):
        t = build_variant_type(5, 3, VARIANT_BAR1_1)
        assert t == VType(5, 3, {Shape((1, 2, 2)): 5})
        assert t.size() == 5
        assert is_admissible(t)

    def test_strength_barred_two_symbols(self):
        t = build_variant_type(4, 2, VARIANT_1_BAR1)
        assert t == VType(4, 2, {Shape((1, 3)): 4, Shape((2, 2)): 3})
        assert t.size() == 7 == max_columns(4, 2, VARIANT_1_BAR1)

    def test_strength_barred_three_symbols_unchanged(self):
        assert build_variant_type(7, 3, VARIANT_1_BAR1) == build_variant_type(7, 3)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_variant_type(4, 5, VARIANT_BAR1_1)
        with pytest.raises(ValueError):
            build_variant_type(4, 6, VARIANT_1_BAR1)

    def test_size_equals_the_bound(self):
        # the size holds by construction; admissibility shows max_columns is reached
        points = [(n, v) for n in range(1, 61) for v in range(2, n + 2)]
        points += [(n, v) for n in range(61, 201) for v in (2, 3, 4, 7)]
        for n, v in points:
            for variant in ALL_VARIANTS:
                if variant.d_barred and v > n:
                    continue
                t = build_variant_type(n, v, variant)
                assert t.size() == max_columns(n, v, variant)
                assert is_admissible(t), (n, v, variant.label)
                if variant.d_barred:
                    assert all(s.entries[0] >= 1 for s, _ in t.items()), (n, v, variant.label)

    def test_symbol_range(self):
        for n in range(1, 61):
            for variant in ALL_VARIANTS:
                top = n if variant.d_barred else n + 1
                for v in range(0, n + 4):
                    if v < 2:
                        with pytest.raises(ValueError):
                            build_variant_type(n, v, variant)
                        with pytest.raises(ValueError):
                            max_columns(n, v, variant)
                    elif v > top:
                        with pytest.raises(ValueError):
                            build_variant_type(n, v, variant)
                        assert max_columns(n, v, variant) == 0
                    else:
                        t = build_variant_type(n, v, variant)
                        assert t.size() == max_columns(n, v, variant)

    def test_large_n(self):
        for variant in (VARIANT_11, VARIANT_BAR1_1):
            assert build_variant_type(20000, 3, variant).size() == max_columns(20000, 3, variant)

    def test_no_rows_names_n(self):
        # v = 2 fits every n >= 1, so the message must name n, not the v range
        for n in (0, -5):
            with pytest.raises(ValueError, match=r"^need n >= 1, got -?\d+$"):
                build_variant_type(n, 2)

    def test_both_barred_equals_d_barred(self):
        for n in range(2, 10):
            for v in range(2, n + 1):
                assert build_variant_type(n, v, VARIANT_BAR1_BAR1) == build_variant_type(
                    n, v, VARIANT_BAR1_1
                )


def fill_blocks(t):
    """The padding that completes realize(t) to the powerset, in order."""
    return padding_blocks(realize(t))


def slack(t):
    """Size -> C(n, x) - sigma(x), for every size below its capacity."""
    gaps = {x: binomial(t.n, x) - sum(s.count(x) * c for s, c in t.shapes) for x in range(t.n + 1)}
    return {x: gap for x, gap in gaps.items() if gap}


class TestMakeFull:
    def test_small_hand_case(self):
        assert fill_blocks(VType(2, 2, {Shape((1, 1)): 1})) == [(), (1, 2)]

    def test_tight_size_gets_no_fill(self):
        t = build_variant_type(6, 3)
        sizes = Counter(len(blk) for blk in fill_blocks(t))
        assert 1 not in sizes and 2 not in sizes
        assert sizes == slack(t)

    def test_full_input_unchanged(self):
        t = build_variant_type(3, 2)  # already full: C(3,i) copies of each level
        assert fill_blocks(t) == []
        assert make_full(t) is t

    def test_requested_part_is_the_input(self):
        rng = random.Random(99)
        for _ in range(20):
            t = random_admissible_type(rng, max_n=8)
            assert make_full(t) is t
            # the padding meets every capacity exactly
            assert Counter(len(blk) for blk in fill_blocks(t)) == slack(t)

    def test_inadmissible_input_rejected(self):
        with pytest.raises(InadmissibleTypeError):
            make_full(VType(4, 2, {Shape((0, 4)): 2}))

    def test_shape_that_misses_an_element_rejected(self):
        # the shape's sizes sum to 3 on 4 points: the type is refused when built
        with pytest.raises(ValueError, match="does not partition 4 elements into 2 blocks"):
            VType(4, 2, {Shape((1, 2)): 1})
