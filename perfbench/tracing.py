"""Spans and counters around flowcast's module boundaries, recorded from outside.

The tracer replaces public functions of ``flowcast.*`` with timing wrappers
while it is installed and restores the originals afterwards. A function
imported by name into several modules (``integrate`` lives in ``ode`` and
is bound again in ``pipeline``) is replaced in every module that holds it,
so calls are seen whichever module makes them. No file of the package is
changed; untraced runs never install anything.

Each call records a span (id, parent id, name, start, end). A span's self
time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute): module-level functions of the package.
FUNCTIONS = (
    ("ode.integrate", "flowcast.ode", "integrate"),
    ("ode.ie_step", "flowcast.ode", "ie_step"),
    ("ode.newton_solve", "flowcast.ode", "newton_solve"),
    ("burgers.rhs", "flowcast.burgers", "burgers_rhs"),
    ("burgers.jacobian", "flowcast.burgers", "burgers_jacobian"),
    ("greedy.greedy_train", "flowcast.greedy", "greedy_train"),
    ("greedy.select_next", "flowcast.greedy", "select_next"),
    ("greedy.update_basis", "flowcast.greedy", "update_basis"),
    ("model_selection.select_epsilon", "flowcast.model_selection", "select_epsilon"),
    ("pipeline.build_training_data", "flowcast.pipeline", "build_training_data"),
    ("pipeline.assemble_training_set", "flowcast.pipeline", "assemble_training_set"),
    ("pipeline.offline", "flowcast.pipeline", "offline"),
    ("pipeline.online", "flowcast.pipeline", "online"),
    ("pipeline.save_model", "flowcast.pipeline", "save_model"),
    ("cli.main", "flowcast.cli", "main"),
)

# (span name, module, class, attributes): methods; aliases of one function
# (``KernelExpansion.__call__ = evaluate``) share a span name.
METHODS = (
    ("kernels.predict", "flowcast.kernels", "KernelExpansion", ("evaluate", "__call__")),
    ("kernels.expansion_validate", "flowcast.kernels", "KernelExpansion", ("__post_init__",)),
    ("kernels.gaussian_column", "flowcast.kernels", "GaussianKernel", ("__call__",)),
    ("greedy.trainingset_validate", "flowcast.greedy", "TrainingSet", ("__post_init__",)),
)


class Tracer:
    """In-memory spans, per-name call/time totals and per-layer counters."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _observe(self, name: str, result) -> None:
        """Counts read off a boundary's return value."""
        c = self.counters
        if name == "ode.newton_solve":
            stats = result[1]
            c["newton_iterations"] += stats.iterations
            if stats.converged:
                c["converged_iterations"] += stats.iterations
            else:
                c["failed_solves"] += 1
        elif name == "greedy.greedy_train" and result.status == "stalled":
            c["stalled_runs"] += 1
        elif name == "model_selection.select_epsilon":
            c["widths_tried"] += len(result.scores)
            c["widths_failed"] += int(np.sum(~np.isfinite(result.scores)))

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = tracer._stack[-1][0] if tracer._stack else 0
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if name == "ode.newton_solve":
                    tracer.counters["failed_solves"] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[1]
                tracer.spans.append((span_id, parent, name, start, end))
            tracer._observe(name, result)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every boundary; record the ones the package no longer has."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("flowcast") and m]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                self._note_missing(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for name, module_name, cls_name, attrs in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            found = [a for a in attrs if cls is not None and a in cls.__dict__]
            if not found:
                self._note_missing(name)
                continue
            wrappers = {}
            for attr in found:
                original = cls.__dict__[attr]
                wrappers.setdefault(id(original), self._wrap(name, original))
                self._patch(cls, attr, wrappers[id(original)])

    def _note_missing(self, name: str) -> None:
        if name not in self.missing:
            self.missing.append(name)
            print(f"warning: no boundary to trace for {name}", file=sys.stderr)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(f"{span_id},{parent},{name},{start!r},{end!r}\n")


def layer_metrics(t: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer counts and seconds per traced pass, as (value, unit)."""

    def per(value):
        return value / passes

    def timed(name, *fields):
        out = {}
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = (per(t.calls[name]), "count")
            elif field == "s":
                out[f"{name}.s"] = (per(t.total_s[name]), "s")
            else:
                out[f"{name}.self_s"] = (per(t.self_s[name]), "s")
        return out

    iterations = t.counters["newton_iterations"]
    return {
        **timed("ode.newton_solve", "calls", "self_s"),
        "ode.newton_iterations": (per(iterations), "count"),
        **timed("ode.ie_step", "self_s"),
        "ode.failed_solves": (per(t.counters["failed_solves"]), "count"),
        "ode.useful_iter_frac": (
            t.counters["converged_iterations"] / iterations if iterations else 0.0, "ratio"
        ),
        **timed("burgers.rhs", "calls", "s"),
        **timed("burgers.jacobian", "calls", "s"),
        **timed("kernels.predict", "calls", "s"),
        **timed("kernels.gaussian_column", "calls", "s"),
        "kernels.expansion_validate_s": (per(t.total_s["kernels.expansion_validate"]), "s"),
        **timed("greedy.greedy_train", "calls", "s", "self_s"),
        **timed("greedy.update_basis", "calls", "s"),
        **timed("greedy.select_next", "calls", "s"),
        "greedy.trainingset_validate_s": (per(t.total_s["greedy.trainingset_validate"]), "s"),
        "greedy.stalled_runs": (per(t.counters["stalled_runs"]), "count"),
        "model_selection.select_epsilon_s": (
            per(t.total_s["model_selection.select_epsilon"]), "s"
        ),
        "model_selection.widths_tried": (per(t.counters["widths_tried"]), "count"),
        "model_selection.widths_failed": (per(t.counters["widths_failed"]), "count"),
        "pipeline.build_training_data_s": (per(t.total_s["pipeline.build_training_data"]), "s"),
        "pipeline.assemble_training_set_s": (
            per(t.total_s["pipeline.assemble_training_set"]), "s"
        ),
        "pipeline.save_model_s": (per(t.total_s["pipeline.save_model"]), "s"),
        **timed("pipeline.online", "self_s"),
        "cli.self_s": (per(t.self_s["cli.main"]), "s"),
    }
