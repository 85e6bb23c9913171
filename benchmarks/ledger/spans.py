"""Spans around calls into the program's layers, kept in memory.

The program carries no instrumentation for the ledger: :func:`install`
wraps public functions and methods of each layer from outside.  The
launcher installs the wrappers in the server subprocess and the
``engine-direct`` workload installs them in its own process.  A wrapper
records only while its thread is inside a root opened with
:meth:`Recorder.root`, one per operation, so set-up traffic records
nothing.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager

#: ``(layer, module, attribute path)`` for every wrapped call.  Layers
#: are named after the program's modules; a layer's self time is what
#: its spans leave after subtracting the spans nested inside them.
TARGETS = (
    ("service", "repro.server.service", "QueryService.answers"),
    ("service", "repro.server.service", "QueryService.apply_updates"),
    ("wire.encode", "repro.server.service", "AnswerPage.to_wire"),
    ("wire.parse", "repro.server.wire", "parse_formula"),
    ("wire.digest", "repro.server.wire", "structure_digest"),
    ("resilience", "repro.resilience.fallback", "FallbackChain.answers"),
    ("engine", "repro.engine.engine", "Engine.answers"),
    ("engine", "repro.engine.engine", "Engine.profile"),
    ("engine", "repro.engine.engine", "Engine.invalidate"),
    ("engine.plan", "repro.engine.planner", "Planner.plan"),
    ("executor.tuple", "repro.engine.executor", "Executor.run"),
    ("executor.columnar", "repro.engine.columnar.executor", "ColumnarExecutor.run"),
    ("incremental.changed", "repro.engine.engine", "Engine.maintained_changed"),
    ("incremental.patch", "repro.incremental.answers", "AnswerIndex.patch"),
    ("structures.update", "repro.structures.structure", "Structure.insert"),
    ("structures.update", "repro.structures.structure", "Structure.delete"),
)


def codec_rebuilds() -> int:
    """The columnar tier's count of codecs rebuilt instead of patched."""
    from repro.engine.columnar.codec import codec_stats

    return codec_stats["rebuilt"]


class Recorder:
    """Spans per operation: ``{key: [[layer, start, end, parent], ...]}``.

    Each root also stores :func:`codec_rebuilds` at its start and end
    (``rebuilds[key] = (before, after)``), so the count over a window of
    operations is exact even when operations overlap.
    """

    def __init__(self) -> None:
        self.spans: dict[str, list[list]] = {}
        self.rebuilds: dict[str, tuple[int, int]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def root(self, key: str, layer: str) -> Iterator[None]:
        """Record everything the calling thread does inside as one operation."""
        before = codec_rebuilds()
        trace = [[layer, time.perf_counter(), None, -1]]
        self._local.trace, self._local.stack = trace, [0]
        try:
            yield
        finally:
            trace[0][2] = time.perf_counter()
            self._local.trace = None
            with self._lock:
                self.spans[key] = trace
                self.rebuilds[key] = (before, codec_rebuilds())

    def wrap(self, layer: str, function: Callable) -> Callable:
        local = self._local

        @functools.wraps(function)
        def recorded(*args, **kwargs):
            trace = getattr(local, "trace", None)
            if trace is None:
                return function(*args, **kwargs)
            entry = [layer, time.perf_counter(), None, local.stack[-1]]
            local.stack.append(len(trace))
            trace.append(entry)
            try:
                return function(*args, **kwargs)
            finally:
                entry[2] = time.perf_counter()
                local.stack.pop()

        return recorded

    def dump(self) -> dict:
        with self._lock:
            return {"spans": dict(self.spans), "rebuilds": dict(self.rebuilds)}


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every :data:`TARGETS` entry; return a function that unwraps."""
    undo = []
    for layer, module_name, path in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, name = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = owner.__dict__[name]
        setattr(owner, name, recorder.wrap(layer, original))
        undo.append((owner, name, original))

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall
