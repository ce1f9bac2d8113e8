"""Spans around the calls into each layer of orangesplines, from outside.

``Tracer`` replaces a fixed list of the package's functions and methods by
timing wrappers, in every ``orangesplines`` module that holds a reference to
them, and puts the originals back when it is closed.  Each call becomes one
span (id, name, wall start, wall end, busy seconds, parent id, op id,
thread), kept in memory and written out as JSON lines by ``write``.

Busy time is the calling thread's CPU time (``time.thread_time``), so the
sweep's worker threads do not count time spent waiting for the interpreter
lock.  A span's self time is its busy time minus that of its children in
the same thread.  Spans opened on a worker thread with nothing open on it
take the main thread's innermost open span as their parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

# (module, attribute path, span name); the span name's first part is the layer
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("io", "complex_from_dict", "io.complex_from_dict"),
    ("complexes", "SimplicialComplex.validate", "complexes.validate"),
    ("complexes", "detect_orange", "complexes.detect_orange"),
    ("projection", "adapt_coordinates", "projection.adapt_coordinates"),
    ("projection", "project_orange", "projection.project_orange"),
    ("projection", "standard_form", "projection.standard_form"),
    ("cofactor", "build_system", "cofactor.build_system"),
    ("cofactor", "spline_dim", "cofactor.spline_dim"),
    ("cofactor", "spline_basis", "cofactor.spline_basis"),
    ("exact", "RationalMatrix.rank", "exact.rank"),
    ("exact", "RationalMatrix.nullspace", "exact.nullspace"),
    ("exact", "EchelonBasis.add", "exact.echelon_add"),
    ("exact", "solve_linear", "exact.solve_linear"),
    ("exact", "invert_matrix", "exact.invert_matrix"),
    ("dimension", "orange_dim_formula", "dimension.orange_dim_formula"),
    ("dimension", "verify_hilbert_identity", "dimension.verify_hilbert_identity"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
    ("bernstein", "lift_mds", "bernstein.lift_mds"),
    ("bernstein", "compute_mds", "bernstein.compute_mds"),
    ("bernstein", "verify_mds", "bernstein.verify_mds"),
    ("bernstein", "layer_decomposition", "bernstein.layer_decomposition"),
    ("bernstein", "monomial_to_bb", "bernstein.monomial_to_bb"),
)

SPAN_NAMES = tuple(name for _, _, name in TARGETS)
LAYERS = ("io", "complexes", "projection", "cofactor", "exact", "dimension", "sweep", "bernstein")
ROOT = "bench.op"


def _package_modules() -> list[Any]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "orangesplines" or name.startswith("orangesplines."))
    ]


class Tracer:
    """Context manager that traces the package's layer calls.

    ``op`` is set by the caller before each op.  ``observers`` maps a span
    name to a callback receiving (op id, result), called after the span
    has closed; it should be cheap, since it runs inside the caller's span.
    """

    def __init__(self, observers: dict[str, Callable[[int, Any], None]] | None = None) -> None:
        self.spans: list[tuple] = []
        self.op = -1
        self.observers = observers or {}
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self.originals: dict[str, Any] = {}

    # -- span recording ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            self.spans.append((sid, name, t0, t1, c1 - c0, parent, self.op, threading.get_ident()))
        observer = self.observers.get(name)
        if observer is not None:
            observer(self.op, result)
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.span(name, fn, *args, **kwargs)

        return traced

    # -- patching -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = _package_modules()
        for module_name, path, name in TARGETS:
            owner = sys.modules.get(f"orangesplines.{module_name}")
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            self.originals[name] = original
            wrapper = self._wrap(name, original)
            if len(parts) > 1:
                self._patch(owner, parts[-1], wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        return self

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc: object) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reduction ------------------------------------------------------------

    def summary(self, n_ops: int) -> dict[str, float]:
        """Busy ms and calls per op for every span name, self ms per layer."""
        children_cpu: dict[int, float] = {}
        thread_of = {s[0]: s[7] for s in self.spans}
        for sid, _, _, _, cpu, parent, _, thread in self.spans:
            if parent is not None and thread_of.get(parent) == thread:
                children_cpu[parent] = children_cpu.get(parent, 0.0) + cpu
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_by_layer = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for sid, name, _, _, cpu, _, _, _ in self.spans:
            busy[name] = busy.get(name, 0.0) + cpu
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            self_by_layer[layer] += cpu - children_cpu.get(sid, 0.0)
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.ms"] = 1000.0 * busy.get(name, 0.0) / n_ops
            out[f"{name}.calls"] = calls.get(name, 0) / n_ops
        for layer, total in self_by_layer.items():
            out[f"{layer}.self_ms"] = 1000.0 * total / n_ops
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, name, t0, t1, cpu, parent, op, thread in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": t0,
                            "end": t1,
                            "busy": cpu,
                            "parent": parent,
                            "op": op,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )
