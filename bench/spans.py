"""In-memory span recorder for the traced benchmark run.

The benchmark wraps the public functions of the library layers from the
outside: every module-level binding of a wrapped function, in every loaded
``halfspace`` module, is replaced by one wrapper, so calls that go through
``from .assembly import restrict`` style imports are recorded as well.
Nothing under ``src/`` changes.

A span is (name, start, end, parent, op).  ``op`` is the operation id the
benchmark set when the span opened: an integer for a timed operation,
``"setup"`` for set-up, ``"check:<i>"`` for the correctness checks of
operation i and ``"round"`` for battery code between its operations.  Spans
stay in memory until ``write`` at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc

# Public module-level functions of these layers are wrapped.  ``algebra`` and
# ``grid`` run only inside them; ``cli`` is a file shell the benchmark does
# not use.  ``diagnostics`` is wrapped so the campaigns reached through
# ``verify`` get their own spans.
TRACED_MODULES = ("assembly", "calculus", "bvp", "oracles", "diagnostics",
                  "verify")
# Public methods of these classes are wrapped as well; ``__init__`` is
# recorded under the class name.
TRACED_CLASSES = {"bvp": ("BoundaryFrame", "SolutionField")}


class Tracer:
    """Span store plus the per-layer measurements taken inside spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list = []
        self.stack: list[int] = []
        self.op = "setup"
        self.cond_V: list[float] = []
        self.assembly_peak_bytes = 0
        self._assembly_depth = 0

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(float("nan"))
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        tracer = self

        if name == "calculus.decompose":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    dec = fn(*args, **kwargs)
                except Exception as exc:
                    if hasattr(exc, "cond_V"):
                        tracer.cond_V.append(float(exc.cond_V))
                    raise
                finally:
                    tracer._close(idx)
                tracer.cond_V.append(float(dec.cond_V))
                return dec
        elif layer == "assembly":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                # tracemalloc runs only inside the outermost assembly call:
                # traced everywhere it would slow the Python-heavy layers
                # several fold
                outer = tracer._assembly_depth == 0
                if outer:
                    tracemalloc.start()
                tracer._assembly_depth += 1
                idx = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                    tracer._assembly_depth -= 1
                    if outer:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                        tracer.assembly_peak_bytes = max(
                            tracer.assembly_peak_bytes, peak)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the traced layers of ``package``."""
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__
                   or key.startswith(package.__name__ + ".")]
        replacements = {}
        for short in TRACED_MODULES:
            mod = getattr(package, short)
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replacements[id(obj)] = (
                        obj, self.wrap(obj, f"{short}.{attr}"))
            for cls_name in TRACED_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if not inspect.isfunction(obj):
                        continue
                    if attr == "__init__":
                        label = f"{short}.{cls_name}"
                    elif attr.startswith("_"):
                        continue
                    else:
                        label = f"{short}.{cls_name}.{attr}"
                    setattr(cls, attr, self.wrap(obj, label))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def outermost(self, predicate):
        """Indices of spans matching ``predicate`` with no matching ancestor
        (so nested calls of one function are not counted twice)."""
        hits = []
        for idx, name in enumerate(self.names):
            if not predicate(name):
                continue
            parent = self.parents[idx]
            while parent >= 0 and not predicate(self.names[parent]):
                parent = self.parents[parent]
            if parent < 0:
                hits.append(idx)
        return hits

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def write(self, path: str, header: dict) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for idx, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": idx, "name": name, "start": self.starts[idx],
                    "end": self.ends[idx], "parent": self.parents[idx],
                    "op": self.ops[idx], "self": selfs[idx]}) + "\n")
