"""Tiny-size tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import random
import sys

import pytest

import harness
import run
import tracer as tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Each workload's operations at a size that runs in well under a second.
TINY = {
    "generate-padded": lambda lib, seed, docs: harness.generate_ops(lib, 6, 3),
    "generate-full": lambda lib, seed, docs: harness.generate_ops(lib, 5, 2),
    "exact": lambda lib, seed, docs: [
        harness.bound_op(40, 3, "11"),
        harness.bound_op(20, 3, "bar1-1"),
        harness.type_op(12, 3, "11"),
        harness.type_op(12, 3, "bar1-1"),
        harness.type_op(12, 4, "11"),
    ],
    "verify": lambda lib, seed, docs: harness.verify_ops(random.Random(seed), docs, 6),
}


@pytest.fixture
def lib():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    return run.lib_of(run.import_package())


def run_ops(lib, ops, tmp_path, tracer=None):
    p = harness.run_pass(lib.cli.main, ops, tmp_path / "out", tracer)
    harness.judge(p)
    return p


def statuses(p):
    return [(o.op.name, o.status, o.reason) for o in p.outcomes]


def test_reference_bound_matches_max_columns(lib):
    labels = lib.combinatorics.VARIANT_LABELS
    for n in range(1, 41):
        for v in range(2, n + 2):
            assert harness.reference_bound(n, v, "11") == lib.combinatorics.max_columns(n, v)
            if v <= n:
                want = lib.combinatorics.max_columns(n, v, labels["bar1-1"])
                assert harness.reference_bound(n, v, "bar1-1") == want


def test_parse_decimal_beyond_the_digit_limit():
    assert harness.parse_decimal("1" + "0" * 9000 + "\n") == 10 ** 9000
    with pytest.raises(ValueError):
        harness.parse_decimal("12a")


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workloads_pass(lib, tmp_path, name):
    p = run_ops(lib, TINY[name](lib, 7, tmp_path), tmp_path)
    assert all(o.status == "ok" for o in p.outcomes), statuses(p)


def test_verify_arrays_are_seeded():
    a = harness.pair_arrays(random.Random(3), 8)
    assert a == harness.pair_arrays(random.Random(3), 8)
    assert a != harness.pair_arrays(random.Random(4), 8)
    good, dup = a
    assert len(good) == 35 and dup[-1] == dup[-2]


def test_corrupted_document_counts_as_failed(lib, tmp_path, monkeypatch):
    original = lib.cli.format_array

    def corrupt(arr, fmt="text"):  # the last column becomes a copy of the first
        rows = [r[:-1] + r[:1] for r in arr.rows]
        return original(lib.arrays.TestArray(rows, arr.v), fmt)

    monkeypatch.setattr(lib.cli, "format_array", corrupt)
    p = run_ops(lib, harness.generate_ops(lib, 6, 3), tmp_path)
    assert [o.status for o in p.outcomes] == ["wrong", "wrong"]
    assert "verify_la" in p.outcomes[0].reason


def test_unrepeatable_generate_counts_as_failed(lib, tmp_path, monkeypatch):
    original = lib.cli.format_array
    calls = []

    def reorder_on_repeat(arr, fmt="text"):  # a valid array, but columns swap on the 2nd call
        calls.append(1)
        if len(calls) > 1:
            arr = lib.arrays.TestArray([r[1:] + r[:1] for r in arr.rows], arr.v)
        return original(arr, fmt)

    monkeypatch.setattr(lib.cli, "format_array", reorder_on_repeat)
    p = run_ops(lib, harness.generate_ops(lib, 6, 3), tmp_path)
    assert [o.status for o in p.outcomes] == ["ok", "wrong"]
    assert "byte-identical" in p.outcomes[1].reason


def test_refusal_is_failed_but_not_wrong(lib, tmp_path):
    p = run_ops(lib, [harness.bound_op(5, 1, "11")], tmp_path)  # v=1 is a usage error
    (o,) = p.outcomes
    assert (o.exit_code, o.status) == (2, "error")


def test_wrong_verdict_is_wrong(lib, tmp_path):
    ops = harness.verify_ops(random.Random(1), tmp_path, 6)
    for op in ops:
        op.expect_exit = 1 - op.expect_exit  # swap what is expected of the two arrays
    p = run_ops(lib, ops, tmp_path)
    assert {o.status for o in p.outcomes} == {"wrong"}


def test_spans_nest_within_one_operation(lib, tmp_path):
    tr = tracing.Tracer()
    restore = tr.install(lib.modules)
    try:
        p = run_ops(lib, harness.generate_ops(lib, 6, 3), tmp_path, tr)
    finally:
        restore()
    assert all(o.status == "ok" for o in p.outcomes)
    by_id = {s[tracing.ID]: s for s in tr.spans}
    for s in tr.spans:
        parent = s[tracing.PARENT]
        if parent is None:
            assert s[tracing.NAME] == tracing.ROOT_SPAN
        else:
            assert by_id[parent][tracing.OP] == s[tracing.OP]
            assert by_id[parent][tracing.START] <= s[tracing.START] <= s[tracing.END]
    assert len(tr.steps) == 2 * 6  # one step per element, per realization
    assert all(t >= -1e-9 for t in tr.self_times().values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_named_metric_is_emitted(monkeypatch, capsys, tmp_path, name, trace):
    monkeypatch.setitem(harness.WORKLOADS, name, TINY[name])
    monkeypatch.setattr(run, "ROOT", tmp_path)  # scratch and trace files go here
    argv = ["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: m["unit"] for k, m in result["metrics"].items()
    }
