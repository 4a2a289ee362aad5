"""Spans around calls into the public functions of `afdeconv`.

The package is not instrumented.  `Tracer.install` replaces each public
function of the `wavelets`, `model`, `estimator`, `analysis` and `cli`
modules, and `FieldPlan.__init__`, with a wrapper that records a span
(name, parent span, start, end, phase).  The package calls these through
module attributes and module globals, so the wrappers see every call.

A span's self time is its duration minus the durations of its direct
children.  The layer `cli.self` is the self time of all `cli` spans: the
part of an operation that no span in a lower module covers.  Spans are
recorded from one thread; the benchmark runs every workload single-threaded
in Python (`--threads 1`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

MODULES = ("wavelets", "model", "estimator", "analysis", "cli")


def public_functions(module, package) -> list[str]:
    """Functions a module lists in `__all__` or the package re-exports."""
    names = set(getattr(module, "__all__", ()))
    names |= {n for n, obj in vars(package).items()
              if getattr(obj, "__module__", None) == module.__name__}
    return sorted(n for n in names if inspect.isfunction(getattr(module, n, None)))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, parent, start, end, phase]
        self.phase = "setup"
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, parent, perf_counter(), None, self.phase])
            self._open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][3] = perf_counter()
        return traced

    def install(self) -> None:
        import afdeconv
        from afdeconv import estimator

        for short in MODULES:
            module = importlib.import_module(f"afdeconv.{short}")
            for fname in public_functions(module, afdeconv):
                self._patch(module, fname, f"{short}.{fname}")
        self._patch(estimator.FieldPlan, "__init__", "estimator.FieldPlan")

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, dict[str, float]]]:
        """{phase: {layer: {"calls": n, "s": self seconds}}}."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, phase in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "s": 0.0}))
        for (name, parent, start, end, phase), child in zip(self.spans, child_time):
            layer = "cli.self" if name.startswith("cli.") else name
            entry = out[phase][layer]
            entry["calls"] += 1
            entry["s"] += end - start - child
        return {phase: dict(layers) for phase, layers in out.items()}


def per_layer(totals: dict, op_phases: list[str]) -> dict[str, float]:
    """Per-layer metrics for one set-up plus the first operation.

    These are the calls and self times of one command as a user runs it, in
    a fresh process.  The first operation fills the package's caches (the
    Meyer base table of `wavelets`), so later operations of the process may
    make fewer calls; those later operations must all make the same calls,
    and a count that differs between them raises ValueError.
    """
    empty = {"calls": 0, "s": 0.0}
    warm = [totals.get(p, {}) for p in op_phases[1:]]
    for layer in set().union(*warm):
        counts = [w.get(layer, empty)["calls"] for w in warm]
        if len(set(counts)) != 1:
            raise ValueError(f"{layer} was called {counts} times by the "
                             "operations after the first")
    setup = totals.get("setup", {})
    first = totals.get(op_phases[0], {})
    out = {}
    for layer in sorted(set(setup) | set(first)):
        a, b = setup.get(layer, empty), first.get(layer, empty)
        out[f"{layer}.calls"] = a["calls"] + b["calls"]
        out[f"{layer}.s"] = a["s"] + b["s"]
    return out
