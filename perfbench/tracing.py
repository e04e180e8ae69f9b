"""In-memory spans around the public functions of mfgl's layers.

The tracer replaces each traced function on the module where its caller
looks it up (``mfgl.bench.build_graph``, ``mfgl.graph.self_tuning_scales``,
...) with a wrapper, and puts the originals back when it is done.  Nothing
in the package itself changes.  A wrapper records a span only while an
operation is open, so work done by the benchmark around an operation
(set-up, output checks) never shows up in the per-layer numbers.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

ROOT_SPAN = "op"

# (module, attribute, span name).  A function that callers reach through
# more than one module is patched on each of them under one span name.
PATCHES = (
    ("mfgl.bench", "normalize", "data.normalize"),
    ("mfgl.data", "normalize", "data.normalize"),
    ("mfgl.graph", "self_tuning_scales", "graph.self_tuning_scales"),
    ("mfgl.bench", "build_graph", "graph.build_graph"),
    ("mfgl.bench", "laplacian", "graph.laplacian"),
    ("mfgl.bench", "low_spectrum", "spectral.low_spectrum"),
    ("mfgl.spectral", "eigsh", "spectral.eigsh"),
    ("mfgl.bench", "truncated_posterior", "spectral.truncated_posterior"),
    ("mfgl.bench", "truncated_variances", "spectral.truncated_variances"),
    ("mfgl.bench", "plan_acquisition", "acquisition.plan_acquisition"),
    ("mfgl.acquisition", "plan_acquisition", "acquisition.plan_acquisition"),
    ("mfgl.acquisition", "kmeans", "acquisition.kmeans"),
    ("mfgl.bench", "choose_tau", "posterior.choose_tau"),
    ("mfgl.bench", "calibrate_omega", "posterior.calibrate_omega"),
    ("mfgl.bench", "dense_posterior", "posterior.dense_posterior"),
    ("mfgl.matio", "read_csv", "matio.read_csv"),
    ("mfgl.matio", "write_csv", "matio.write_csv"),
    ("mfgl.cli", "cmd_plan", "cli.cmd_plan"),
    ("mfgl.cli", "cmd_estimate", "cli.cmd_estimate"),
    ("mfgl.bench", "planning_spectrum", "bench.planning_spectrum"),
    ("mfgl.bench", "estimate_attached", "bench.estimate_attached"),
    ("mfgl.bench", "run_pipeline", "bench.run_pipeline"),
)

CALIBRATE = "posterior.calibrate_omega"
HANDLE_CALLS = CALIBRATE + ".handle_calls"
MATIO_BYTES = "matio.bytes"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in Tracer.spans
    op: int


class Tracer:
    """Spans and counters for the operations of one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (op, counter name) -> count
        self._op: Optional[int] = None
        self._stack: list[int] = []

    @contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def operation(self, op: int):
        """Open operation ``op``; its spans nest under one root span."""
        self._op = op
        try:
            with self._span(ROOT_SPAN):
                yield
        finally:
            self._op = None

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        # reserve the slot so children opened inside can name their parent
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._op)

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            if name == CALIBRATE:
                args = (self._counting(args[0], HANDLE_CALLS),) + args[1:]
            with self._span(name):
                result = fn(*args, **kwargs)
            if name.startswith("matio."):
                self.counts[(self._op, MATIO_BYTES)] += os.path.getsize(args[0])
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting(self, handle, counter: str):
        op = self._op

        def counted(*args, **kwargs):
            self.counts[(op, counter)] += 1
            return handle(*args, **kwargs)

        return counted

    def op_metrics(self) -> dict[int, dict[str, float]]:
        """Per operation: ``<span>.s``, ``<span>.self_s``, ``<span>.calls``
        and every counter."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, span in enumerate(self.spans):
            metrics = out[span.op]
            took = span.end - span.start
            metrics[span.name + ".s"] += took
            metrics[span.name + ".self_s"] += took - child_time[index]
            metrics[span.name + ".calls"] += 1
        for (op, counter), value in self.counts.items():
            out[op][counter] += value
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")
