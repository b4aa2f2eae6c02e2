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
    build_optimal_type,
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
            t = build_optimal_type(n, v)
            assert is_admissible(t), (n, v)
            assert t.size() == max_columns(n, v), (n, v)
    assert time.time() - start < 30.0
    _report("optimal types admissible with exact optimal size for n <= 16")


# The documents the engine produced before its state became slot ints. Per n,
# the sha256 over the sha256 of each document of the sweep below, in sweep
# order: the generate_la array, then the padded realize system.
SWEEP_SHA256 = {
    2: "e89ca0a81507fc7107f4f2ec4f731e2e4cd75b101e2673a2536cf02636ac5427",
    3: "0c5a0a2ade0491710c34f4e554ba3b205b16aef312d28aafb8c175e88ce506f5",
    4: "331a9c62ec7040aafd4ca2eb9a1316d65cb402919a6f7806751c2155e0b3f071",
    5: "69f125fbe336d19cccb1ec8aad3de1ad0bfede1bfd38712173b8e1de6f8cdaef",
    6: "07c2198e6b713d58aa84c24819ff2b881604c2d7f7331448f7dc1aacdced5cf1",
    7: "42fd0a0c5fe7b434f11dd5d0ca0063c498d24f3f8aec40be6e4f6243153b2460",
    8: "7791d379642b9075244b0c501cea69ffae47bac98ea59c51e601ce3e51c125c7",
    9: "3b80e8b4a1ae1aba6b36d59b78469c0c448efbe2bd215e21a410187721952d5b",
    10: "f8e43266237383fe344141b9f48940fa358feab0f8dd9a717e1e0c000fe46792",
    11: "b51bdc5c30becb2f6255bb5ac07b37fea06fce310f8a6e8ecb1c5866f8099181",
    12: "21d97611e23c2b16e3b9b645b10c407a46c891e7e161c75019f27c86e215d1b1",
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
                system = realize(build_variant_type(n, v, variant), include_fill=True)
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
        assert len(sp.blocks) == 3
        assert all(len(b) == 2 for b in sp.blocks)
        elems = [e for b in sp.blocks for e in b]
        assert sorted(elems) == [1, 2, 3, 4, 5, 6]
        seen.extend(sp.blocks)
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
