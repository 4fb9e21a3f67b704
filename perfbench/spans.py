"""Spans recorded from outside the program, by wrapping its public functions.

The traced run wraps the functions in :data:`LAYERS` so that each call
records a span (name, start, end, parent, request).  A layer's *self
time* is the duration of its spans minus the time their child spans
cover, accumulated online from the span stack: every nested span of a
request is charged to exactly one layer, so the self times of a request
add up to its wall time.

``from module import name`` binds a function into the importing module
at import time, so :func:`patched` replaces the original object under
every name that refers to it in every loaded ``repro`` module (and in
``repro.SOLVERS``), and puts the originals back on exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

#: Layer -> functions whose calls are that layer's spans.  A dotted
#: attribute (``Class.method``) is patched on the class.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "network.bulk": (
        ("repro.network.dijkstra", "distance_matrix"),
        ("repro.network.dijkstra", "multi_source_lengths"),
        ("repro.network.dijkstra", "shortest_path_lengths"),
        ("repro.network.dijkstra", "nearest_of"),
        ("repro.network.kernels", "many_source_lengths"),
    ),
    "network.stream": (
        ("repro.network.incremental", "StreamCursor.take"),
        ("repro.network.incremental", "StreamCursor.peek"),
        ("repro.network.incremental", "StreamCursor.peek_distance"),
        ("repro.network.incremental", "StreamCursor.peek_lower_bound"),
    ),
    "flow.sspa": (
        ("repro.flow.sspa", "find_pair"),
        ("repro.flow.sspa", "assign_all"),
        ("repro.flow.sspa", "rebuild_rows"),
    ),
    "core.cover": (("repro.core.set_cover", "check_cover"),),
    "core.provisions": (
        ("repro.core.provisions", "select_greedy"),
        ("repro.core.provisions", "cover_components"),
    ),
    "core.wma": (("repro.core.wma", "WMASolver.solve"),),
    "baselines.kmls": (("repro.baselines.kmedian_ls", "solve_kmedian_ls"),),
    "serve.apply": (("repro.serve.engine", "ServeEngine.apply"),),
}

#: The layer of a request's root span: the benchmark's own call into
#: the program, outside every wrapped function.
REQUEST = "request"

#: Span records kept for writing out; self times count every span.
KEEP_SPANS = 50_000


class Tracer:
    """Records nested spans in memory and each layer's self time.

    ``clock`` is injectable so tests can drive a synthetic span tree.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._origin = clock()
        # Open spans: [layer, start, child_time, record index or -1].
        self._stack: list[list[Any]] = []
        self.records: list[list[Any]] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.request: int | None = None

    def open_request(self) -> None:
        """Open the root span of the next request."""
        self.request = 0 if self.request is None else self.request + 1
        self.enter("request", REQUEST)

    def enter(self, name: str, layer: str) -> None:
        """Open a span of ``layer`` called ``name``."""
        start = self._clock()
        index = -1
        if len(self.records) < KEEP_SPANS:
            index = len(self.records)
            parent = self._stack[-1][3] if self._stack else -1
            self.records.append(
                [name, layer, start - self._origin, None, parent, self.request]
            )
        else:
            self.dropped += 1
        self._stack.append([layer, start, 0.0, index])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        end = self._clock()
        layer, start, child_time, index = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child_time
        if self._stack:
            outer = self._stack[-1]
            outer[2] += duration
            if outer[0] != layer:
                self.calls[layer] += 1
        else:
            self.calls[layer] += 1
        if index >= 0:
            self.records[index][3] = end - self._origin
        return duration

    def wrap(self, name: str, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one span per call made inside a request."""
        enter, exit_, stack = self.enter, self.exit, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack:  # outside a request, e.g. an output check
                return fn(*args, **kwargs)
            enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def write(self, path: str) -> None:
        """Write the kept span records as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, request in self.records:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def _owner(module_name: str, attr: str) -> tuple[Any, str]:
    obj: Any = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, leaf


@contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Wrap every function of :data:`LAYERS` for the ``with`` block."""
    import repro

    undo: list[tuple[Any, str, Any]] = []
    try:
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner, leaf = _owner(module_name, attr)
                original = getattr(owner, leaf)
                wrapper = tracer.wrap(attr, layer, original)
                if isinstance(owner, type):
                    undo.append((owner, leaf, original))
                    setattr(owner, leaf, wrapper)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not mod_name.startswith("repro"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
                for key, value in list(repro.SOLVERS.items()):
                    if value is original:
                        undo.append((repro.SOLVERS, key, original))
                        repro.SOLVERS[key] = wrapper
        yield
    finally:
        for holder, key, original in reversed(undo):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
