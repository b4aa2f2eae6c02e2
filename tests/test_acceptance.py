"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a single PASS line once its assertions hold (visible with
pytest -s); stated time budgets are asserted alongside the exactness checks.
"""

import itertools
import random
import time
from collections import Counter

from locarray import (
    ALL_VARIANTS,
    VARIANT_11,
    Shape,
    VType,
    build_optimal_type,
    generate_la,
    is_admissible,
    max_columns,
    max_k_exhaustive,
    realize,
    verify_by_definition,
    verify_la,
)
from locarray.baranyai import REQUESTED, advance, check_realization, init_realization
from locarray.combinatorics import asymptotic_rows, inequality_failures
from locarray.spread_types import make_full
from conftest import random_admissible_type


def _report(name):
    print(f"PASS {name}")


def test_exact_formula_checks():
    start = time.time()
    for n in range(2, 31):
        assert max_columns(n, 2) == 2 ** (n - 1)
    for n in range(3, 31):
        assert max_columns(n, n) == 1
        assert max_columns(n, n + 1) == 1
    assert time.time() - start < 1.0
    _report("exact formula checks (v=2 powers, v=n and v=n+1 singletons)")


def test_oracle_agreement():
    start = time.time()
    for n in range(1, 6):
        for variant in ALL_VARIANTS:
            top = n if variant.d_barred else n + 1
            for v in range(2, top + 1):
                got, _ = max_k_exhaustive(n, v, variant)
                want = max_columns(n, v, variant)
                assert got == want, (n, v, variant.label, got, want)
    assert time.time() - start < 300.0
    _report("exhaustive search agrees with the formula for n <= 5, all variants")


def test_optimal_type_validity():
    start = time.time()
    for n in range(2, 17):
        for v in range(2, n + 2):
            t = build_optimal_type(n, v)
            assert is_admissible(t), (n, v)
            assert t.size() == max_columns(n, v), (n, v)
    assert time.time() - start < 30.0
    _report("optimal types admissible with exact optimal size for n <= 16")


def test_end_to_end_generation():
    start = time.time()
    arr = generate_la(10, 3, VARIANT_11)
    assert arr.n_rows == 10 and arr.k == 116
    assert verify_la(arr, VARIANT_11)
    assert verify_by_definition(arr, VARIANT_11)
    for n in range(2, 13):
        for v in range(2, n + 2):
            for variant in ALL_VARIANTS:
                k = max_columns(n, v, variant)
                if k <= 0:
                    continue
                arr = generate_la(n, v, variant)
                assert arr.k == k, (n, v, variant.label)
                assert verify_la(arr, variant), (n, v, variant.label)
    assert time.time() - start < 300.0
    _report("end-to-end generation: 10x116 verified both ways; n <= 12 sweep exact")


def test_pair_partition_special_case():
    start = time.time()
    system = realize(VType(6, 3, {Shape((2, 2, 2)): 5}))
    assert len(system.spreads) == 5
    seen = []
    for sp in system.spreads:
        assert len(sp.blocks) == 3
        assert all(len(b) == 2 for b in sp.blocks)
        elems = [e for b in sp.blocks for e in b]
        assert sorted(elems) == [1, 2, 3, 4, 5, 6]
        seen.extend(sp.blocks)
    assert sorted(seen) == sorted(itertools.combinations(range(1, 7), 2))
    assert time.time() - start < 1.0
    _report("all fifteen 2-subsets of a 6-set split into 5 perfect matchings")


def test_engine_invariants():
    start = time.time()
    rng = random.Random(20260810)
    for trial in range(100):
        t = random_admissible_type(rng, max_n=10)
        state = init_realization(make_full(t))
        for _ in range(t.n):
            state = advance(state)
            assert check_realization(state), (trial, t)
        blocks = [b for g in state.groups for b in g.blocks]
        assert len(set(blocks)) == len(blocks) == 2 ** t.n, (trial, t)
        got = Counter(
            tuple(sorted(len(b) for b in g.blocks))
            for g in state.groups
            if g.tag == REQUESTED
        )
        want = Counter()
        for shape, count in t.items():
            want[shape.entries] += count
        assert got == want, (trial, t)
    assert time.time() - start < 600.0
    _report("counting invariant, type fidelity, block distinctness on 100 random types")


def test_inequality_suite():
    start = time.time()
    assert inequality_failures(200) == []
    assert time.time() - start < 30.0
    _report("binomial inequality suite exact for n <= 200")


def test_asymptotic_sanity():
    start = time.time()
    k = max_columns(60, 3)
    est = asymptotic_rows(k, 3)
    assert abs(est.estimated_rows - 60) / 60 <= 0.10
    assert time.time() - start < 5.0
    _report("asymptotic row estimate recovers n = 60 within 10% at v = 3")
