"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's side only: `Tracer.install` rebinds
each traced public function, in every loaded locarray module that holds it,
to a wrapper that opens a span, calls the original and closes the span.
Nothing inside the package changes. Spans are kept in memory and written out
once the run ends.

A span is (op, id, parent, name, start, end); spans of one CLI operation share
the op id, and the root span of each operation is `cli.main`. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

from time import perf_counter

# Traced public functions, as (module, function). The span name is
# "<module>.<function>".
TRACED = (
    ("arrays", "generate_la"),
    ("arrays", "spreads_to_array"),
    ("arrays", "verify_la"),
    ("arrays", "verify_ca2"),
    ("arrays", "verify_da11"),
    ("baranyai", "realize"),
    ("baranyai", "init_realization"),
    ("baranyai", "advance"),
    ("baranyai", "build_step_network"),
    ("baranyai", "integral_step_assignment"),
    ("combinatorics", "max_columns"),
    ("spread_types", "build_variant_type"),
    ("spread_types", "make_full"),
    ("formats", "format_array"),
    ("formats", "format_type"),
    ("formats", "parse_array"),
)

ROOT_SPAN = "cli.main"
# Time spent computing step counts is recorded under this name, as a child of
# the span that was open, so that it is excluded from every layer's self time.
COUNT_SPAN = "trace.count"

OP, ID, PARENT, NAME, START, END = range(6)


def step_counts(state, net) -> dict:
    """Per-step counts of one realization step, from the public state and network fields.

    `augmentations` is the number of units left after flooring every
    aggregated arc: the units the rounding must route along augmenting paths.
    """
    floored = 0
    for cls in net.classes:
        floored += sum(num // net.den for _cell, num, _pos in cls.arcs)
        floored += cls.skip_numerator // net.den
    return {
        "tau": net.tau,
        "groups": len(state.groups),
        "cells": len(net.cells),
        "classes": len(net.classes),
        "augmentations": len(state.groups) - floored,
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.steps: list[dict] = []  # one per realization step
        self.realizations: list[dict] = []  # one per realize call
        self._stack: list[list] = []
        self._op: int | None = None

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._open(ROOT_SPAN)

    def end_op(self) -> None:
        self._close()
        self._op = None

    def _open(self, name: str) -> None:
        parent = self._stack[-1][ID] if self._stack else None
        span = [self._op, len(self.spans), parent, name, perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(span)

    def _close(self) -> None:
        self._stack.pop()[END] = perf_counter()

    def wrap(self, name: str, fn, observe=None):
        """A traced stand-in for fn; observe(args, result) runs in a COUNT_SPAN."""

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if observe is not None:
                self._open(COUNT_SPAN)
                try:
                    observe(args, result)
                finally:
                    self._close()
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_step(self, args, net) -> None:
        self.steps.append({"op": self._op, **step_counts(args[0], net)})

    def _observe_realize(self, args, _system) -> None:
        # the CLI hands realize a VType: one requested group per shape
        self.realizations.append({"op": self._op, "requested": args[0].size()})

    def install(self, modules: dict):
        """Trace the TRACED functions in the given {qualified name: module} map.

        Returns a callable that restores the original bindings.
        """
        observers = {
            "baranyai.build_step_network": self._observe_step,
            "baranyai.realize": self._observe_realize,
        }
        undo = []
        for mod_name, fn_name in TRACED:
            original = getattr(modules[f"locarray.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            traced = self.wrap(name, original, observers.get(name))
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        undo.append((module, attr, original))

        def restore() -> None:
            for module, attr, value in undo:
                setattr(module, attr, value)

        return restore

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        own = {s[ID]: s[END] - s[START] for s in self.spans}
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_table(self) -> dict[str, dict]:
        """Span name -> calls, total (inclusive) seconds and self seconds."""
        own = self.self_times()
        table: dict[str, dict] = {}
        for s in self.spans:
            row = table.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s[END] - s[START]
            row["self_s"] += own[s[ID]]
        return table

    def to_json(self) -> dict:
        return {
            "spans": [
                {"op": s[OP], "id": s[ID], "parent": s[PARENT], "name": s[NAME],
                 "start": s[START], "end": s[END]}
                for s in self.spans
            ],
            "steps": self.steps,
            "realizations": self.realizations,
        }


def _noop() -> None:
    return None


def span_cost(samples: int = 5000) -> float:
    """Seconds of bookkeeping one traced call adds, measured on an empty function."""
    tracer = Tracer()
    traced = tracer.wrap("calibration", _noop)
    tracer.begin_op(0)
    t0 = perf_counter()
    for _ in range(samples):
        traced()
    t1 = perf_counter()
    for _ in range(samples):
        _noop()
    t2 = perf_counter()
    tracer.end_op()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / samples)
