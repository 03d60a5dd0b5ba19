"""Spans around the public entry points of each `mzsim` module.

`Tracer.install()` replaces module attributes with wrappers that record a
span (name, start, end, parent span, op id, amount) per call.  Spans stay in
memory until `write()`; `per_op()` derives each op's inclusive and self
times and counts from them.  A layer's self time is its span's duration
minus the time of its child spans.

Wrapping module attributes sees every call that looks the name up on the
module at call time, which is how `mzsim` calls across its modules
(`dsl.compile` from `cli` and from `sweep_template`, `experiment.embed` and
`rng.unit_matrix` from the walkers, `experiment.run_analytic` from `sweep`).
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

from mzsim import cli, components, dsl, experiment, rng

#: The constructors `dsl.compile` builds stages from.
COMPONENT_CONSTRUCTORS = ("beam_splitter", "mirror_pair", "phase_shifter",
                          "which_way_entangler", "eraser_kraus")
#: The span whose amount is a tracemalloc peak (see `Tracer._wrap_peak`).
PEAK_SPAN = "experiment.run_sampled"


def _branch_count(args, kwargs, result) -> float:
    return len(result.branches)


def _draw_count(args, kwargs, result) -> float:
    return result.size


#: (module, attribute, span name, amount of the call or None)
WRAPPED = [
    (dsl, "parse_text", "dsl.parse_text", None),
    (dsl, "compile", "dsl.compile", None),
    *[(components, name, "components.build", None) for name in COMPONENT_CONSTRUCTORS],
    (experiment, "embed", "hilbert.embed", None),
    (experiment, "run_analytic", "experiment.run_analytic", _branch_count),
    (experiment, "run_sampled", PEAK_SPAN, None),
    (experiment, "sweep", "experiment.sweep", None),
    (rng, "unit_matrix", "rng.unit_matrix", _draw_count),
    (cli, "main", "cli.main", None),
]

OP_SPAN = "op"

#: per-layer metric -> (span name, per-op field, scale).  Fields: `incl` is
#: inclusive time, `self` excludes child spans, `calls` counts spans,
#: `amount` sums the calls' amounts and `max` takes their largest.  Memory
#: peaks come from the replayed ops, everything else from the timed ops.
REPLAYED_METRICS = ("experiment.run_sampled_peak_mib",)
LAYER_METRICS = {
    "dsl.parse_text_us": ("dsl.parse_text", "incl", 1e6),
    "dsl.compile_us": ("dsl.compile", "incl", 1e6),
    "dsl.compile_calls": ("dsl.compile", "calls", 1),
    "components.build_us": ("components.build", "incl", 1e6),
    "hilbert.embed_calls": ("hilbert.embed", "calls", 1),
    "hilbert.embed_us": ("hilbert.embed", "incl", 1e6),
    "experiment.run_analytic_us": ("experiment.run_analytic", "incl", 1e6),
    "experiment.leaves": ("experiment.run_analytic", "amount", 1),
    "experiment.run_sampled_us": (PEAK_SPAN, "self", 1e6),
    "experiment.run_sampled_peak_mib": (PEAK_SPAN, "max", 2.0 ** -20),
    "rng.unit_matrix_us": ("rng.unit_matrix", "incl", 1e6),
    "rng.draws": ("rng.unit_matrix", "amount", 1),
    "experiment.sweep_us": ("experiment.sweep", "self", 1e6),
    "cli.main_us": ("cli.main", "self", 1e6),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.amounts: list[float] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.installed: list[str] = []
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op_id)
        self.amounts.append(1.0)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, amount):
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if amount is not None:
                self.amounts[i] = amount(args, kwargs, result)
            return result
        return traced

    def _wrap_peak(self, fn, name):
        """Like `_wrap`; in replayed ops (negative op id) the amount is the
        call's tracemalloc peak in bytes.  Timed ops run without tracemalloc,
        which would slow every allocation it watches."""
        def traced(*args, **kwargs):
            watch = self.op_id < 0
            if watch:
                tracemalloc.start()
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
                self.amounts[i] = tracemalloc.get_traced_memory()[1] if watch else 0.0
                if watch:
                    tracemalloc.stop()
        return traced

    def install(self):
        """Wrap every entry point in WRAPPED that the program still has."""
        for module, attr, name, amount in WRAPPED:
            label = f"{module.__name__}.{attr}"
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(label)
                continue
            if name == PEAK_SPAN:
                setattr(module, attr, self._wrap_peak(fn, name))
            else:
                setattr(module, attr, self._wrap(fn, name, amount))
            self.installed.append(label)

    def run_op(self, op_id: int, call):
        """Run one op under an op span."""
        self.op_id = op_id
        i = self._open(OP_SPAN)
        try:
            return call()
        finally:
            self._close(i)

    def per_op(self) -> dict[int, dict[str, float]]:
        """op id -> {"<span>:incl" | ":self" | ":calls" | ":amount" | ":max": value}.

        `incl` sums the durations of a name's outermost spans (those whose
        parent has another name), so nested calls are not counted twice.
        """
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        ops: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, name in enumerate(self.names):
            row = ops[self.op_ids[i]]
            duration = self.ends[i] - self.starts[i]
            parent = self.parents[i]
            if parent < 0 or self.names[parent] != name:
                row[f"{name}:incl"] += duration
            row[f"{name}:self"] += duration - child_time[i]
            row[f"{name}:calls"] += 1
            row[f"{name}:amount"] += self.amounts[i]
            row[f"{name}:max"] = max(row[f"{name}:max"], self.amounts[i])
        return ops

    def write(self, path: Path):
        """All spans as CSV, times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        lines = ["span,op,name,start_s,end_s,parent,amount"]
        for i, name in enumerate(self.names):
            lines.append(f"{i},{self.op_ids[i]},{name},{self.starts[i] - t0:.9f},"
                         f"{self.ends[i] - t0:.9f},{self.parents[i]},{self.amounts[i]:g}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")


def layer_metrics(tracer: Tracer, op_ids) -> dict[str, float]:
    """Median over ops of each LAYER_METRICS value (0 where a layer is idle)."""
    rows = tracer.per_op()
    replayed = [k for k in rows if k < 0]
    empty: dict[str, float] = {}

    def median(ids, key):
        return statistics.median([rows.get(k, empty).get(key, 0.0) for k in ids] or [0.0])

    return {metric: median(replayed if metric in REPLAYED_METRICS else op_ids,
                           f"{span}:{field}") * scale
            for metric, (span, field, scale) in LAYER_METRICS.items()}
