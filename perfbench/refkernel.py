"""The reference kernel that every timed request is normalised by.

Wall-clock time on a shared host drifts by tens of percent between
identical runs.  Dividing a request's time by the time of a fixed piece
of work run right before and right after it cancels most of that drift,
because both slow down together.  The kernel is the same kind of work
the solvers do -- a heap-and-dict shortest-path loop in pure Python --
and imports nothing from ``repro``, so no change to the program can
change what one "ref" unit is.  The garbage collector is off during a
sweep: the sweep creates no cycles, and a collection it set off would
walk the program's whole live heap and make a ref depend on how much
the program keeps alive.

The graph is large on purpose.  On a shared host the slowdown comes
from contention for caches and memory, not from lost CPU time; a sweep
whose working set fits in cache barely notices it, while one that
misses cache as the solvers do slows down with them.  Measured against
a fixed solve, a 30k-node sweep cut the interquartile spread of the
normalised time to about two thirds of the raw one; a 5k-node sweep of
the same length did not cut it at all.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

#: Shape of the kernel's graph; fixed so that one ref is one fixed job.
NODES = 30000
DEGREE = 4
GRAPH_SEED = 20190408

#: Seconds one ref stands for when a normalised time is reported in
#: seconds (``setup_s``): about the median sweep on the 2-vCPU host the
#: bounds were measured on.  Fixed, so such a figure moves only with
#: the ratio to the kernel, not with the host's speed.
NOMINAL_SECONDS = 0.125


class ReferenceKernel:
    """A Dijkstra sweep over a fixed pseudo-random graph."""

    def __init__(self) -> None:
        rng = random.Random(GRAPH_SEED)
        self._adj: dict[int, list[tuple[int, float]]] = {
            u: [(rng.randrange(NODES), rng.uniform(1.0, 10.0)) for _ in range(DEGREE)]
            for u in range(NODES)
        }
        self._checksum = self._sweep()

    def _sweep(self) -> float:
        dist: dict[int, float] = {0: 0.0}
        heap = [(0.0, 0)]
        done: set[int] = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in self._adj[u]:
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return sum(dist.values())

    def time(self, runs: int = 1) -> float:
        """The median wall time in seconds of ``runs`` sweeps."""
        times = []
        for _ in range(runs):
            gc.disable()
            try:
                started = time.perf_counter()
                checksum = self._sweep()
                times.append(time.perf_counter() - started)
            finally:
                gc.enable()
            if checksum != self._checksum:
                raise RuntimeError("reference kernel returned a different checksum")
        return statistics.median(times)
