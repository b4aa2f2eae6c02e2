"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a single PASS line once its assertions hold (visible with
pytest -s); stated time budgets are asserted alongside the exactness checks.
"""

import hashlib
import itertools
import random
import time

from locarray import (
    ALL_VARIANTS,
    VARIANT_11,
    Shape,
    TestArray,
    VType,
    build_variant_type,
    generate_la,
    is_admissible,
    max_columns,
    realize,
    verify_by_definition,
    verify_ca2,
    verify_da11,
    verify_la,
)
from locarray.combinatorics import inequality_failures
from locarray.formats import format_array, format_spread_system
from locarray.selfcheck import formula_failures, oracle_failures, type_realization_failures
from conftest import random_admissible_type, realized


def _report(name):
    print(f"PASS {name}")


def test_exact_formula_checks():
    start = time.time()
    assert formula_failures(30) == []
    assert time.time() - start < 1.0
    _report("exact formula checks (v=2 powers, v=n and v=n+1 singletons)")


def test_oracle_agreement():
    start = time.time()
    assert oracle_failures(5) == []
    assert time.time() - start < 300.0
    _report("exhaustive search agrees with the formula for n <= 5, all variants")


def test_optimal_type_validity():
    start = time.time()
    for n in range(2, 17):
        for v in range(2, n + 2):
            t = build_variant_type(n, v)
            assert is_admissible(t), (n, v)
            assert t.size() == max_columns(n, v), (n, v)
    assert time.time() - start < 30.0
    _report("optimal types admissible with exact optimal size for n <= 16")


# Per n, the sha256 over the sha256 of each document of the sweep below, in
# sweep order: the generate_la array, then the realize system. For n <= 4 they are
# those the engine produced before its state became slot ints; from n = 5 on, the
# rounding fills the cells below their lower bound from the deficit side.
SWEEP_SHA256 = {
    2: "e576073525b33d7bfc4b986ca78ab55fb299bb349a6ffdb7dc47525b1edc20d7",
    3: "129ae6e86ce37e4b742ae35ccce9952a4ec1c9dc9da930fac70f4402d3756ee6",
    4: "79911be8249f8fb6e5dced3e0ff78e66aa61f3aef67f36174a4a99c8065c16ff",
    5: "1b53491e8d34758b2fa3bec20a127b91db20a8be754bda3cc9ff70a1d401e740",
    6: "18f742aaea3ac4340bf8a5cda8dc119495b1386c6c7f165a15fbf6b7ab4fca9b",
    7: "2b978b9d1b818b148d16764fe7938781e30c43e1cd94a5844435358c6cad9515",
    8: "94bb04ac50a076fa9cb17db83367341c29e8b9418f3a7e3cda55827fce2ea119",
    9: "8f14c28eba95a415b3207f77923c672d87f3b983c8f80cf6b4986623dbfd4fef",
    10: "5369c80d197b0e5c0aef3ee372c307960a69f1322c4cf1df2f27411cec645029",
    11: "658334389df6ba98dfd8eb5d3035ffdf95dab27a0660b77d1c270ab72595d15c",
    12: "b018493d28138a8ec0151d40a9adf433801a32bff6b56be9c1ddedcc2de78e0d",
}
# sha256 of format_array(generate_la(n, v)) for the default variant.
LARGE_SHA256 = {
    (16, 3): "32e7e356e7caf979f6c8292876f61fee2e5dcdef7564cc220f3e1d10f408bb09",
    (14, 2): "a13c86ee762f7858c2be03828bd54680fb5ddd57b9b4df2966093e83fc299dbe",
    (16, 2): "b652f7595ebba784d6a9464a9287706f8479a2ae1ce9f6e1c1606f73b997cf10",
}

# (sha256, length) of format_array(generate_la(14, 3, variant)), by whether the
# variant is d-barred: a t-barred variant gives the document of the same variant without the t-bar.
ARRAY14_3 = {
    False: ("b6f076dfaaed23f62d9701bd9344546aba6881c1ce492cc91dd31c700973bcfe", 38650),
    True: ("7ed550bbdbb8c270869feabc592022c10635cc788110f9242baaf5927a5bd247", 38622),
}

# sha256 of format_spread_system(realize(build_variant_type(16, v))).
SYSTEM16_SHA256 = {
    2: "7fc081350d986debb47a70ec5d9c58e5489f00e8b5ce73e4b00206f3fce128dc",
    3: "514f78985a4aa2402e833b7bf51f23532803ce976c8e4ad8c680af8ecc583154",
    4: "643ae2247e7e93250ca54058cb67dbf2954ec33d541d56d19a4477043846fac7",
}


def test_end_to_end_generation():
    start = time.time()
    arr = generate_la(10, 3, VARIANT_11)
    assert arr.n_rows == 10 and arr.k == 116
    assert verify_la(arr, VARIANT_11)
    assert verify_by_definition(arr, VARIANT_11)
    for n in range(2, 13):
        digest = hashlib.sha256()
        for v in range(2, n + 2):
            for variant in ALL_VARIANTS:
                k = max_columns(n, v, variant)
                if k <= 0:
                    continue
                arr = generate_la(n, v, variant)
                assert arr.k == k, (n, v, variant.label)
                assert verify_la(arr, variant), (n, v, variant.label)
                system = realized(build_variant_type(n, v, variant)).system
                # each spread lists its blocks in the order spreads_to_array gives out symbols
                assert all(list(sp) == sorted(sp, key=lambda b: (len(b), b))
                           for sp in system.spreads), (n, v, variant.label)
                for doc in (format_array(arr), format_spread_system(system)):
                    digest.update(hashlib.sha256(doc.encode()).digest())
        assert digest.hexdigest() == SWEEP_SHA256[n], n
    for (n, v), want in LARGE_SHA256.items():
        doc = format_array(generate_la(n, v))
        assert hashlib.sha256(doc.encode()).hexdigest() == want, (n, v)
    for variant in ALL_VARIANTS:
        doc = format_array(generate_la(14, 3, variant))
        digest = (hashlib.sha256(doc.encode()).hexdigest(), len(doc))
        assert digest == ARRAY14_3[variant.d_barred], variant.label
    assert time.time() - start < 300.0
    _report("end-to-end generation: 10x116 verified both ways; n <= 12 sweep exact; bytes pinned")


def test_array_above_the_default_cap():
    # n = 20 reaches backward rounding paths deeper than any n <= 16 produces
    doc = format_array(generate_la(20, 4, max_n=20))
    assert len(doc) == 294570
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "b04092ac14a8b4fcd93536cf55227c9a0f723a7af269bb1fb2689b79eeefb742")
    _report("n = 20, v = 4 array above the default cap: bytes pinned")


def test_sixteen_point_systems():
    start = time.time()
    for v, want in SYSTEM16_SHA256.items():
        doc = format_spread_system(realized(build_variant_type(16, v)).system)
        assert hashlib.sha256(doc.encode()).hexdigest() == want, v
    assert time.time() - start < 60.0
    _report("n = 16 spread systems for v = 2, 3, 4: bytes pinned")


def test_pair_partition_special_case():
    start = time.time()
    system = realize(VType(6, 3, {Shape((2, 2, 2)): 5}))
    assert len(system.spreads) == 5
    seen = []
    for sp in system.spreads:
        assert len(sp) == 3
        assert all(len(b) == 2 for b in sp)
        elems = [e for b in sp for e in b]
        assert sorted(elems) == [1, 2, 3, 4, 5, 6]
        seen.extend(sp)
    assert sorted(seen) == sorted(itertools.combinations(range(1, 7), 2))
    assert time.time() - start < 1.0
    _report("all fifteen 2-subsets of a 6-set split into 5 perfect matchings")


def test_large_array_verification():
    # 14 x 1716: one column per 7-subset of the rows that holds row 1, class 0
    # on the subset, so every class is the complement of exactly one other
    start = time.time()
    rng = random.Random(14)
    cols = [[0 if r in subset else 1 for r in range(1, 15)]
            for subset in itertools.combinations(range(1, 15), 7) if 1 in subset]
    rng.shuffle(cols)
    arr = TestArray(tuple(zip(*cols)), v=2)
    assert arr.k == 1716
    assert verify_la(arr) and verify_ca2(arr) and verify_da11(arr)
    dup = TestArray(tuple(zip(*cols, cols[-1])), v=2)
    assert verify_ca2(dup).witness == ((1716, 0), (1717, 1))
    assert verify_da11(dup).witness == ((1716, 0), (1717, 0))
    assert verify_la(dup).witness == ((1716, 0), (1717, 0))
    assert time.time() - start < 2.0
    _report("14x1716 pair array passes la, ca2, da11; its duplicated last column is named")


def test_engine_invariants():
    start = time.time()
    rng = random.Random(20260810)
    for trial in range(100):
        t = random_admissible_type(rng, max_n=10)
        assert type_realization_failures(t) == [], (trial, t)
    assert time.time() - start < 600.0
    _report("counting invariant, type fidelity, block distinctness, padded powerset on 100 random types")


def test_inequality_suite():
    start = time.time()
    assert inequality_failures(200) == []
    assert time.time() - start < 30.0
    _report("binomial inequality suite exact for n <= 200")
