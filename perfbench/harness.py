"""Workloads, operations and output checks of the locarray benchmark.

Every operation is one in-process call to `locarray.cli.main(argv)`, the
path a user takes; documents go to `--out` files in a scratch directory
(`verify` has no `--out` and answers on standard output). Each operation's
output is checked after all timed work is done, so checks never count
towards the timings or the peak memory of the operations.

An operation fails when its exit code, or its checked output, differs from
what is expected. A failure is *wrong* when the program answered (exit 0 or
1) with a wrong result, and an *error* when it refused (any other exit code,
or an exception escaping `cli.main`). Only wrong answers make a run
incorrect; errors are counted as failed.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import re
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from time import perf_counter
from typing import Callable

# Verify workload: rows of the array; one column per complementary pair of
# (n/2)-subsets, so every class has n/2 rows and no class contains another.
VERIFY_ROWS = 14

EXACT_BOUNDS = (
    (20000, 3, "11"),
    (10000, 3, "bar1-1"),
    (2000, 3, "11"),
    (1000, 3, "11"),
    (1000, 3, "bar1-1"),
    (1000, 7, "11"),
)
EXACT_TYPES = EXACT_BOUNDS[3:]

# Python refuses int<->str conversions beyond this many digits by default,
# and the benchmark must not lift that limit; big outputs are parsed in chunks.
_DIGIT_CHUNK = 4000


@dataclass
class Op:
    """One CLI call and how to judge its output.

    check(outcome, earlier) returns a reason when the output is wrong, else
    None; `earlier` maps the names of the pass's earlier operations to their
    outcomes.
    """

    name: str
    command: str  # CLI subcommand, used to group timings
    argv: list[str]
    check: Callable[["Outcome", dict], str | None]
    expect_exit: int = 0
    writes_out: bool = True


@dataclass
class Outcome:
    op: Op
    exit_code: int | None  # None when an exception escaped cli.main
    seconds: float
    stdout: str
    stderr: str
    out_path: Path | None
    status: str = "pending"  # ok | wrong | error
    reason: str = ""

    def document(self) -> bytes:
        return self.out_path.read_bytes()


@dataclass
class Pass:
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    def command_seconds(self, command: str) -> float:
        return sum(o.seconds for o in self.outcomes if o.op.command == command)


def run_op(cli_main, op: Op, out_path: Path, tracer=None, op_id: int = 0) -> Outcome:
    argv = list(op.argv)
    if op.writes_out:
        argv += ["--out", str(out_path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    code = None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        if tracer is not None:
            tracer.begin_op(op_id)
        t0 = perf_counter()
        try:
            code = cli_main(argv)
        except Exception:  # the op boundary: record the traceback and carry on
            stderr.write(traceback.format_exc())
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_op()
    return Outcome(op, code, t1 - t0, stdout.getvalue(), stderr.getvalue(),
                   out_path if op.writes_out else None)


def run_pass(cli_main, ops: list[Op], out_dir: Path, tracer=None, first_op_id: int = 0) -> Pass:
    out_dir.mkdir(parents=True, exist_ok=True)
    result = Pass()
    for i, op in enumerate(ops):
        result.outcomes.append(run_op(cli_main, op, out_dir / f"op{i}.out", tracer, first_op_id + i))
    return result


def judge(p: Pass) -> None:
    """Set status and reason on every outcome of a pass."""
    earlier: dict[str, Outcome] = {}
    for o in p.outcomes:
        if o.exit_code != o.op.expect_exit:
            o.status = "wrong" if o.exit_code in (0, 1) else "error"
            tail = o.stderr.strip().splitlines()[-1:] or [""]
            o.reason = f"exit {o.exit_code}, expected {o.op.expect_exit}: {tail[0]}"
        else:
            try:
                o.reason = o.op.check(o, earlier) or ""
            except (ValueError, OSError) as exc:
                o.reason = f"unreadable output: {exc}"
            o.status = "wrong" if o.reason else "ok"
        earlier[o.op.name] = o


# ---------------------------------------------------------------- references


def parse_decimal(text: str) -> int:
    """A non-negative decimal integer of any length, under the default digit limit."""
    digits = text.strip()
    if not re.fullmatch(r"[0-9]+", digits):
        raise ValueError(f"not a decimal integer: {digits[:40]!r}")
    value = 0
    for i in range(0, len(digits), _DIGIT_CHUNK):
        chunk = digits[i:i + _DIGIT_CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def reference_bound(n: int, v: int, variant: str) -> int:
    """The closed-form optimum, recomputed here with O(f) incremental binomials.

    Written apart from locarray.combinatorics so that it can judge it. Covers
    the variants the workloads use: "11" (2 <= v <= n + 1) and "bar1-1"
    (2 <= v <= n).
    """
    if variant not in ("11", "bar1-1") or v < 2 or v > n + (variant == "11"):
        raise ValueError(f"no reference for n={n}, v={v}, variant {variant}")
    f = (n + 1) // v
    d = (f + 1) * v - n
    head = tail = weighted = 0
    c = 1  # C(n, i)
    for i in range(f + 1):
        if i >= f - d + 2:
            head += (f + 1 - i) * c
        else:
            tail += c
        weighted += (f + 1 - i) * c
        c = c * (n - i) // (i + 1)
    columns = head // d + tail
    if variant == "bar1-1" and not (d >= f + 2 and weighted % d > f):
        columns -= 1
    return columns


# ---------------------------------------------------------------- operations


def bound_op(n: int, v: int, variant: str) -> Op:
    def check(o: Outcome, _earlier) -> str | None:
        got = parse_decimal(o.document().decode())
        want = reference_bound(n, v, variant)
        return None if got == want else "bound differs from the closed-form optimum"

    argv = ["bound", "--N", str(n), "--v", str(v), "--variant", variant]
    return Op(f"bound {n} {v} {variant}", "bound", argv, check)


def check_type_document(text: str, n: int, v: int, variant: str) -> str | None:
    """Shapes are v block sizes summing to n (no zero size for bar1-1), no size
    is oversubscribed, and the shape count is the bound at the same point."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if lines[:2] != [["N", str(n)], ["v", str(v)]]:
        return "type header differs from the request"
    total = 0
    sigma: dict[int, int] = {}
    for ln in lines[2:]:
        if len(ln) != v + 2 or ln[1] != "x":
            return f"bad shape line {' '.join(ln[:4])}"
        count, sizes = int(ln[0]), [int(e) for e in ln[2:]]
        if count < 1 or sum(sizes) != n or min(sizes) < (variant == "bar1-1"):
            return f"bad shape {sizes}"
        total += count
        for x in sizes:
            sigma[x] = sigma.get(x, 0) + count
    for x, used in sigma.items():
        if used > math.comb(n, x):
            return f"size {x} oversubscribed"
    if total != reference_bound(n, v, variant):
        return "shape count differs from the bound at the same point"
    return None


def type_op(n: int, v: int, variant: str) -> Op:
    def check(o: Outcome, _earlier) -> str | None:
        return check_type_document(o.document().decode(), n, v, variant)

    argv = ["type", "--N", str(n), "--v", str(v), "--variant", variant]
    return Op(f"type {n} {v} {variant}", "type", argv, check)


def generate_ops(lib, n: int, v: int, variant: str = "11") -> list[Op]:
    """Two identical generate calls; the second must repeat the first byte for byte."""
    verdicts: dict[str, str | None] = {}  # document digest -> reason

    def check_document(o: Outcome) -> str | None:
        doc = o.document()
        digest = hashlib.sha256(doc).hexdigest()
        if digest not in verdicts:
            verdicts[digest] = _check_generated(lib, doc.decode(), n, v, variant)
        return verdicts[digest]

    first = f"generate {n} {v} {variant}"

    def check_repeat(o: Outcome, earlier) -> str | None:
        reason = check_document(o)
        if reason:
            return reason
        prior = earlier[first]
        if prior.exit_code == 0 and prior.document() != o.document():
            return "repeated generate is not byte-identical"
        return None

    argv = ["generate", "--N", str(n), "--v", str(v), "--variant", variant]
    return [
        Op(first, "generate", argv, lambda o, _e: check_document(o)),
        Op(first + " (repeat)", "generate", argv, check_repeat),
    ]


def _check_generated(lib, text: str, n: int, v: int, variant: str) -> str | None:
    arr = lib.formats.parse_array(text)
    if (arr.n_rows, arr.v) != (n, v):
        return f"document is {arr.n_rows} rows on {arr.v} symbols"
    if arr.k != reference_bound(n, v, variant):
        return f"k={arr.k} differs from the closed-form optimum"
    if not lib.arrays.verify_la(arr, lib.combinatorics.VARIANT_LABELS[variant]):
        return "generated array fails verify_la"
    return None


def generated_columns(o: Outcome) -> int:
    """k from the header line of a generated text document."""
    with open(o.out_path, encoding="utf-8") as fh:
        return int(fh.readline().split()[1])


def pair_arrays(rng: random.Random, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Columns of the seeded pair array and of its copy with the last column duplicated.

    The pair array has one column per complementary pair of (n/2)-subsets of
    the rows, in shuffled order, with the two symbols swapped at random in
    each column. The duplicate goes last, so every check scans (nearly) every
    pair before it meets the fault, whatever the seed.
    """
    half = n // 2
    cols = []
    for rest in combinations(range(1, n), half - 1):  # row 0 picks one of each pair
        members = {0, *rest}
        a = rng.randrange(2)
        cols.append([a if r in members else 1 - a for r in range(n)])
    rng.shuffle(cols)
    return cols, cols + [list(cols[-1])]


def array_text(cols: list[list[int]], v: int) -> str:
    n = len(cols[0])
    lines = [f"{n} {len(cols)} {v}"]
    lines += [" ".join(str(col[r]) for col in cols) for r in range(n)]
    return "\n".join(lines) + "\n"


_WITNESS = re.compile(r"\(column (\d+), symbol \d+\)")


def verify_ops(rng: random.Random, docs_dir: Path, n: int = VERIFY_ROWS) -> list[Op]:
    good, dup = pair_arrays(rng, n)
    good_path, dup_path = docs_dir / "pairs.txt", docs_dir / "pairs-dup.txt"
    good_path.write_text(array_text(good, 2), encoding="utf-8")
    dup_path.write_text(array_text(dup, 2), encoding="utf-8")
    named = {len(good), len(dup)}  # the duplicated column and its copy, 1-based

    def passes(o: Outcome, _earlier) -> str | None:
        return None if o.stdout == "ok\n" else f"expected 'ok', got {o.stdout[:80]!r}"

    def names_duplicate(o: Outcome, _earlier) -> str | None:
        if not o.stdout.startswith("violated: "):
            return f"expected a violation, got {o.stdout[:80]!r}"
        cols = {int(c) for c in _WITNESS.findall(o.stdout)}
        return None if cols == named else f"witness names columns {sorted(cols)}, not {sorted(named)}"

    ops = []
    for label, path, code, check in (("pairs", good_path, 0, passes), ("dup", dup_path, 1, names_duplicate)):
        for kind in ("la", "ca2", "da11"):
            argv = ["verify", str(path), "--check", kind, "--v", "2"]
            ops.append(Op(f"verify {kind} {label}", "verify", argv, check, code, writes_out=False))
    return ops


# ----------------------------------------------------------------- workloads


def _generate_padded(lib, seed: int, docs_dir: Path) -> list[Op]:
    # Only 4701 of the engine's 56134 groups are requested: where a padding-free engine gains.
    return generate_ops(lib, 16, 3)


def _generate_full(lib, seed: int, docs_dir: Path) -> list[Op]:
    # All 32768 groups requested: nothing for a padding-free engine to remove; big document.
    return generate_ops(lib, 16, 2)


def _exact(lib, seed: int, docs_dir: Path) -> list[Op]:
    # The big-integer layers alone; bound n=20000 exits 2 (4300-digit limit) and counts as failed.
    return [bound_op(*p) for p in EXACT_BOUNDS] + [type_op(*p) for p in EXACT_TYPES]


def _verify(lib, seed: int, docs_dir: Path) -> list[Op]:
    # The arrays verifiers, scanning every pair of a seeded array and of a faulty copy.
    return verify_ops(random.Random(seed), docs_dir)


# name -> function(lib, seed, docs_dir) returning the operations of one pass.
# Only verify draws its inputs from the seed; the other inputs are fixed points.
WORKLOADS = {
    "generate-padded": _generate_padded,
    "generate-full": _generate_full,
    "exact": _exact,
    "verify": _verify,
}
