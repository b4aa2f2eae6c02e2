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
from conftest import random_admissible_type


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
# sweep order: the generate_la array, then the realize system. The arrays are
# those the engine produced before its state became slot ints.
SWEEP_SHA256 = {
    2: "e576073525b33d7bfc4b986ca78ab55fb299bb349a6ffdb7dc47525b1edc20d7",
    3: "129ae6e86ce37e4b742ae35ccce9952a4ec1c9dc9da930fac70f4402d3756ee6",
    4: "79911be8249f8fb6e5dced3e0ff78e66aa61f3aef67f36174a4a99c8065c16ff",
    5: "92f633925fda0256ed7b072594e78202fcc0429d285e00e01b07d8af4fab4d40",
    6: "82c28d9c79822ac6d8d1de3825d1dd3adf8c67d1586634e719f419ba38009613",
    7: "97ae7aec295a4355475fe09bdc5fafc368c666023acffa51b1afec5f2ede1297",
    8: "f5b3fd32b00b31e7d33c42fd5eb1e11802d74471e324f88bab5c2dc6f6cf6b75",
    9: "2566f25d1c94793afc6354fa8eec6d32cf60a8769eba210970f8eb7f4cdc5cf8",
    10: "009f8bfeac1e66b0f570243c07891cdb5d819409dd01f6f7aa1ddd4b8448d6f0",
    11: "9e116416309bc81318bb573f1bf321698605be6cd5327c2b98664c7044b4abb5",
    12: "56231590d90583107596a7aac909f3dffc8f4d7422e5479cd513b0f40cee027d",
}
# sha256 of format_array(generate_la(n, v)) for the default variant.
LARGE_SHA256 = {
    (16, 3): "b2f86771ce37b44fd9f35ef921b28403852930e3779045dfbe8f60ab22272a77",
    (14, 2): "a13c86ee762f7858c2be03828bd54680fb5ddd57b9b4df2966093e83fc299dbe",
    (16, 2): "b652f7595ebba784d6a9464a9287706f8479a2ae1ce9f6e1c1606f73b997cf10",
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
                system = realize(build_variant_type(n, v, variant))
                # each spread lists its blocks in the order spreads_to_array gives out symbols
                assert all(list(sp) == sorted(sp, key=lambda b: (len(b), b))
                           for sp in system.spreads), (n, v, variant.label)
                for doc in (format_array(arr), format_spread_system(system)):
                    digest.update(hashlib.sha256(doc.encode()).digest())
        assert digest.hexdigest() == SWEEP_SHA256[n], n
    for (n, v), want in LARGE_SHA256.items():
        doc = format_array(generate_la(n, v))
        assert hashlib.sha256(doc.encode()).hexdigest() == want, (n, v)
    assert time.time() - start < 300.0
    _report("end-to-end generation: 10x116 verified both ways; n <= 12 sweep exact; bytes pinned")


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
