"""Spans around calls into the package's layer functions.

The benchmark never edits the package.  While a ``Tracer`` is active it
swaps each layer function listed in ``LAYER_FUNCTIONS`` for a wrapper
that records a span (name, start, end, parent span, scope), in every
module namespace of the package that holds a reference to it, so calls
made through ``from .core import predict_arrays`` bindings are seen
too.  Leaving the context restores every binding.

Spans are kept in memory.  Pool workers forked during a traced sweep
inherit the wrappers, so they pay the same overhead, but their spans
stay in the worker; sweep metrics come from ``RunResult`` rows and the
pool boundary instead.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: layer module -> the public functions whose calls become spans
LAYER_FUNCTIONS = {
    "kernels": ("fire", "ant_grads"),
    "core": ("predict_arrays",),
    "trainer": ("train", "consequent_gradients", "apply_consequent_update",
                "antecedent_gradients", "apply_antecedent_update"),
    "sweep": ("sweep",),
    "dataset": ("load_csv", "normalize_and_split", "generate_synthetic"),
    "cli": ("main",),
    "modelio": ("load_model", "save_model"),
    "explainer": ("explain_model", "explain_instance"),
    "initializer": ("build_rulebase",),
    "metrics": ("evaluate",),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    scope: str

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Collects spans while active; ``scope`` labels what the caller does."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.marks: list[float] = []
        self.pool_bytes = 0
        self.scope = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def mark(self, *_args) -> None:
        """Timestamp hook; used as the trainer's ``epoch_callback``."""
        self.marks.append(time.perf_counter())

    @contextmanager
    def in_scope(self, scope: str):
        previous, self.scope = self.scope, scope
        try:
            yield
        finally:
            self.scope = previous

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), float("nan"), parent,
                        self.scope)
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "it2anfis"
                                      or mod_name.startswith("it2anfis.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _recording_pool(self, base):
        tracer = self

        class RecordingPool(base):
            """Counts the pickled bytes each task ships to a worker."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                initargs = kwargs.get("initargs")
                if initargs:
                    # sent once to each worker
                    tracer.pool_bytes += (len(pickle.dumps(initargs))
                                          * self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                tracer.pool_bytes += len(pickle.dumps((fn, args, kwargs)))
                return super().submit(fn, *args, **kwargs)

        return RecordingPool

    @contextmanager
    def active(self):
        """Patch every layer function (and the sweep's pool) for the block."""
        try:
            for module_name, names in LAYER_FUNCTIONS.items():
                module = importlib.import_module(f"it2anfis.{module_name}")
                for fn_name in names:
                    original = getattr(module, fn_name)
                    self._replace_everywhere(
                        original, self._wrap(f"{module_name}.{fn_name}",
                                             original))
            sweep_mod = importlib.import_module("it2anfis.sweep")
            pool = sweep_mod.ProcessPoolExecutor
            self._saved.append((sweep_mod, "ProcessPoolExecutor", pool))
            sweep_mod.ProcessPoolExecutor = self._recording_pool(pool)
            yield self
        finally:
            for module, attr, value in reversed(self._saved):
                setattr(module, attr, value)
            self._saved.clear()

    # --- queries ---------------------------------------------------------

    def select(self, name: str, scope: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and (scope is None or s.scope == scope)]

    def descendants(self, root: Span) -> list[Span]:
        out = []
        frontier = [next(i for i, s in enumerate(self.spans) if s is root)]
        while frontier:
            parent = frontier.pop()
            for i, span in enumerate(self.spans):
                if span.parent == parent:
                    out.append(span)
                    frontier.append(i)
        return out
