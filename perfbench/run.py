"""Benchmark of the locarray command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see harness.WORKLOADS) in this process, for at least S
seconds in whole passes over its operations, then checks every output. With
--trace 0 it reports the end-to-end metrics; with --trace 1 it traces the
calls into each locarray module, writes the spans to
.perfbench_out/trace-<workload>-seed<N>.json and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Everything it writes stays inside the
checkout that holds this file.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import harness
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
PACKAGE = "locarray"
MODULES = ("cli", "arrays", "baranyai", "combinatorics", "formats", "spread_types")

# CLI subcommands whose time is printed as <command>_s on the workloads that call them.
COMMANDS = ("generate", "bound", "type", "verify")

# Per-layer metric -> (span it reads, what it should move). Times are self
# times per pass: a span's duration minus its traced children.
LAYER_METRICS = {
    "baranyai.init_s": ("baranyai.init_realization",
                        "generate_s, columns_per_s, peak_rss_mib: strongly on generate-padded, weakly on generate-full"),
    "baranyai.step_network_s": ("baranyai.build_step_network",
                                "generate_s, columns_per_s, peak_rss_mib: strongly on generate-padded, weakly on generate-full"),
    "baranyai.rounding_s": ("baranyai.integral_step_assignment",
                            "generate_s, columns_per_s, peak_rss_mib: strongly on generate-padded, weakly on generate-full"),
    "baranyai.update_s": ("baranyai.advance",
                          "generate_s, columns_per_s, peak_rss_mib: strongly on generate-padded, weakly on generate-full"),
    "combinatorics.max_columns_s": ("combinatorics.max_columns", "bound_s on exact"),
    "spread_types.build_variant_type_s": ("spread_types.build_variant_type", "type_s on exact; nothing on generate-*"),
    "spread_types.make_full_s": ("spread_types.make_full",
                                 "generate_s on generate-* (type does not call make_full; realize does)"),
    "formats.format_type_s": ("formats.format_type", "type_s on exact; nothing on generate-*"),
    "arrays.spreads_to_array_s": ("arrays.spreads_to_array", "generate_s on generate-full"),
    "formats.format_array_s": ("formats.format_array", "generate_s on generate-full"),
    "arrays.verify_la_s": ("arrays.verify_la", "verify_s on verify"),
    "arrays.verify_ca2_s": ("arrays.verify_ca2", "verify_s on verify"),
    "arrays.verify_da11_s": ("arrays.verify_da11", "verify_s on verify"),
    "formats.parse_array_s": ("formats.parse_array", "verify_s on verify"),
    "cli.self_s": (tracing.ROOT_SPAN, "every ops_s: argument parsing, reading and writing documents"),
}
# Count metrics per realization (baranyai.*) or per pass (arrays.classes_checked).
COUNT_MOVES = {
    "baranyai.groups": "generate_s, peak_rss_mib on generate-padded",
    "baranyai.requested_share": "generate_s, peak_rss_mib on generate-padded",
    "baranyai.cells": "generate_s on generate-*",
    "baranyai.classes": "generate_s on generate-*",
    "baranyai.max_classes": "generate_s, peak_rss_mib on generate-*",
    "baranyai.augmentations": "generate_s on generate-* (rounding_s)",
    "arrays.classes_checked": "verify_s on verify",
    "trace.overhead_s": "the traced run only: bookkeeping the tracer adds per pass",
    "trace.overhead_share": "the traced run only: trace.overhead_s over ops_s",
}


def import_package() -> dict:
    """Import locarray afresh from the checkout; returns {qualified name: module}."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = {PACKAGE: importlib.import_module(PACKAGE)}
    for name in MODULES:
        mods[f"{PACKAGE}.{name}"] = importlib.import_module(f"{PACKAGE}.{name}")
    return mods


def lib_of(mods: dict) -> SimpleNamespace:
    """The modules as lib.cli, lib.formats, ..., and all of them as lib.modules."""
    return SimpleNamespace(modules=mods, **{name: mods[f"{PACKAGE}.{name}"] for name in MODULES})


def setup(workload: str, seed: int, scratch: Path, repeats: int = SETUP_REPEATS):
    """Import the package and build the inputs `repeats` times; returns the last
    (lib, ops) and every set-up time."""
    times = []
    for i in range(repeats):
        gc.collect()  # the modules a re-import drops are cyclic garbage; keep them out of the timing
        t0 = perf_counter()
        lib = lib_of(import_package())
        docs = scratch / f"inputs{i}"
        docs.mkdir()
        ops = harness.WORKLOADS[workload](lib, seed, docs)
        times.append(perf_counter() - t0)
    return lib, ops, times


def measure(lib, ops, seconds: float, scratch: Path, tracer=None) -> list:
    """Whole passes over ops until `seconds` have gone by (at least one)."""
    passes = []
    gc.collect()
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        passes.append(harness.run_pass(lib.cli.main, ops, scratch / f"pass{len(passes)}",
                                       tracer, len(passes) * len(ops)))
    return passes


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(passes, setup_times, peak_mib) -> dict:
    """Every end-to-end metric: name -> (value, unit). Timings are medians over passes."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_s": (statistics.median(p.seconds for p in passes), "s"),
        "peak_rss_mib": (peak_mib, "MiB"),
    }


def command_metrics(passes) -> dict:
    """The per-command figures a workload exercises: name -> (value, unit)."""
    out = {}
    for command in COMMANDS:
        if any(o.op.command == command for o in passes[0].outcomes):
            out[f"{command}_s"] = (statistics.median(p.command_seconds(command) for p in passes), "s")
    if "generate_s" in out:
        rates = []
        for p in passes:
            cols = sum(harness.generated_columns(o) for o in p.outcomes
                       if o.op.command == "generate" and o.status == "ok")
            rates.append(cols / p.command_seconds("generate"))
        out["columns_per_s"] = (statistics.median(rates), "1/s")
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(o.status != "ok" for p in passes for o in p.outcomes)
    out["fail_share"] = (failed / attempted, "share")
    return out


def per_layer(tr: tracing.Tracer, passes, span_cost: float) -> dict:
    """Every per-layer metric: name -> (value, unit); per pass unless noted."""
    npass = len(passes)
    table = tr.layer_table()
    metrics = {}
    for name, (span, _moves) in LAYER_METRICS.items():
        metrics[name] = (table.get(span, {}).get("self_s", 0.0) / npass, "s")

    realizations = len(tr.realizations)
    groups = sum(s["groups"] for s in tr.steps if s["tau"] == 0)
    per_real = lambda total: total / realizations if realizations else 0  # noqa: E731
    metrics["baranyai.groups"] = (per_real(groups), "count")
    requested = sum(r["requested"] for r in tr.realizations)
    metrics["baranyai.requested_share"] = (requested / groups if groups else 0.0, "share")
    for key in ("cells", "classes", "augmentations"):
        metrics[f"baranyai.{key}"] = (per_real(sum(s[key] for s in tr.steps)), "count")
    metrics["baranyai.max_classes"] = (max((s["classes"] for s in tr.steps), default=0), "count")

    checked = 0
    for p in passes:
        for o in p.outcomes:
            if o.op.command == "verify" and o.exit_code in (0, 1):
                header = Path(o.op.argv[1]).read_text(encoding="utf-8").split(maxsplit=3)
                checked += int(header[1]) * int(header[2])  # k * v classes
    metrics["arrays.classes_checked"] = (checked / npass, "count")

    count_s = table.get(tracing.COUNT_SPAN, {}).get("total_s", 0.0)
    overhead = (len(tr.spans) * span_cost + count_s) / npass
    ops_s = statistics.mean(p.seconds for p in passes)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / ops_s, "share")
    return metrics


def print_layer_table(tr: tracing.Tracer, passes) -> None:
    table = tr.layer_table()
    wall = sum(p.seconds for p in passes)
    print(f"{'span':38} {'calls':>7} {'total_s':>10} {'self_s':>10} {'self%':>7}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:38} {row['calls']:7d} {row['total_s']:10.4f} {row['self_s']:10.4f}"
              f" {100 * row['self_s'] / wall:6.2f}%")
    modules: dict[str, float] = {}
    for name, row in table.items():
        modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + row["self_s"]
    print("self time by module: " + ", ".join(
        f"{m} {100 * s / wall:.1f}%" for m, s in sorted(modules.items(), key=lambda kv: -kv[1])))


def write_trace(tr: tracing.Tracer, workload: str, seed: int, passes, layers: dict) -> Path:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    ops = [{"op": i * len(p.outcomes) + j, "pass": i, "name": o.op.name, "seconds": o.seconds,
            "exit": o.exit_code, "status": o.status}
           for i, p in enumerate(passes) for j, o in enumerate(p.outcomes)]
    doc = {"workload": workload, "seed": seed, "ops": ops, **tr.to_json(),
           "layers": tr.layer_table(),
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark of the locarray command line.")
    p.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_tmp"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work))
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch)
        if not any(work.iterdir()):
            work.rmdir()


def run(args, scratch: Path) -> int:
    lib, ops, setup_times = setup(args.workload, args.seed, scratch)
    tr = restore = None
    if args.trace:
        cost = tracing.span_cost()
        tr = tracing.Tracer()
        restore = tr.install(lib.modules)
    passes = measure(lib, ops, args.seconds, scratch, tr)
    peak = peak_rss_mib()
    if restore:
        restore()
    for p in passes:
        harness.judge(p)

    outcomes = [o for p in passes for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(o.status != "ok" for o in outcomes)
    correct = not any(o.status == "wrong" for o in outcomes)

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"{platform.machine()} {platform.system()}")
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"{len(passes)} pass(es) of {len(ops)} ops, {len(setup_times)} set-ups")
    for o in passes[0].outcomes:
        note = f"  {o.status}: {o.reason}" if o.status != "ok" else ""
        print(f"  {o.op.name:32} exit {o.exit_code}  {o.seconds:9.4f} s{note}")
    metrics = end_to_end(passes, setup_times, peak)
    shown = {**metrics, **command_metrics(passes)}
    for name, (value, unit) in shown.items():
        n = len(setup_times) if name == "setup_s" else len(passes)
        basis = f"median of {n}" if name not in ("peak_rss_mib", "fail_share") else "whole run"
        print(f"{name:34} {value:14.6f} {unit:6} ({basis})")
    if tr is not None:
        metrics = per_layer(tr, passes, cost)
        print_layer_table(tr, passes)
        for name, (value, unit) in metrics.items():
            moves = LAYER_METRICS[name][1] if name in LAYER_METRICS else COUNT_MOVES[name]
            print(f"{name:34} {value:14.6f} {unit:6} -> {moves}")
        print(f"trace written to {write_trace(tr, args.workload, args.seed, passes, metrics)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
