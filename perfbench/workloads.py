"""The benchmark's workloads: inputs made from a seed, requests, output checks.

Each workload stresses different layers of the program, so that a
change to one layer moves one workload and leaves the others alone:

* ``city_wma`` -- the paper's Table IV shape on a grid city.  WMA runs
  nearest-facility streams, SSPA matching and set cover on a cold
  state; bulk multi-source distances stay idle.
* ``uniform_kmls`` -- k-median local search (two swap rounds), whose
  time is almost all bulk multi-source distances
  (``multi_source_lengths``).  Streams, SSPA and set cover do almost
  nothing.
* ``serve_churn`` -- the write side: four warm serve engines near
  80% occupancy absorbing batches of arrivals, departures and capacity
  raises, so SSPA repairs a live bipartite state on pooled streams.

All are one closed-loop caller in one thread: the next request is sent
when the previous one returns.  None uses a deadline, a time limit, an
oracle, workers or the serve solution cache, so every run of a seed
does identical work.  The program sees only the generated inputs.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro
from repro import SolverOptions
from repro.core.instance import MCFSInstance
from repro.core.solution import MCFSSolution
from repro.datagen import city_instance, grid_city, uniform_instance
from repro.errors import ReproError
from repro.flow.sspa import assign_all
from repro.network.components import component_labels
from repro.serve import Mutation, ServeEngine, ServeResult, synthesize_trace

# Table IV shape: m=512 customers, k=51, capacity 20, every node a candidate.
CITY_GRID = 71
CITY_M, CITY_K, CITY_CAPACITY = 512, 51, 20
CITY_PLACEMENTS = 10

KMLS_NODES = 512
KMLS_INSTANCES = 16
# Local search stops after this many swap rounds.  Left to converge, the
# round count is luck of the instance (756 to 1396 kernel runs per solve
# on seeds 0-7) and the median solve jumps with it; capped,
# every solve does the same greedy start and two rounds of swaps.
KMLS_ROUNDS = 2

SERVE_GRID = 71
SERVE_LATTICE = (3, 4)  # 12 facilities, one per cell of a 3 x 4 split
SERVE_SEATS = 50
SERVE_WARM = 480  # 80% of the 12 x 50 seats
SERVE_ENGINES = 4  # independent deployments, so one seed's luck averages out
SERVE_BATCH = 80
SERVE_BATCHES = 14  # per engine: 56 batches a round, 55 after the warm-up
SERVE_P_DEPART = 0.45
SERVE_P_CAPACITY = 0.05


def derived_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent input seeds derived from the run's ``--seed``."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _fail(message: str) -> None:
    print(f"CHECK FAILED: {message}", file=sys.stderr)


@dataclass
class Request:
    """One timed call into the program and the check of what it returned.

    ``check(result, info)`` runs outside the timed region and returns
    the number of the request's ``ops`` that failed; it may record
    per-request figures in ``info``.
    """

    call: Callable[[], Any]
    ops: int
    check: Callable[[Any, dict[str, float]], int]
    info: dict[str, float] = field(default_factory=dict)


class SolveWorkload:
    """Solve a fixed set of instances with one method, round after round."""

    op = "solve"
    # A solve lasts ten or more kernel sweeps, so a median of three per
    # timing is cheap, and it keeps one slow sweep from skewing a solve.
    kernel_runs = 3

    def __init__(
        self,
        method: str,
        make_instances: Callable[[int], list[MCFSInstance]],
        solve: Callable[[MCFSInstance], MCFSSolution] | None = None,
    ) -> None:
        self.method = method
        self._make = make_instances
        self._solve = solve or (lambda inst: repro.solve(inst, method=method))
        self.instances: list[MCFSInstance] = []
        self._first: dict[int, MCFSSolution] = {}

    def setup(self, seed: int) -> tuple[float, float]:
        """Generate the inputs; returns ``(datagen_s, build_s)``."""
        started = time.perf_counter()
        self.instances = self._make(seed)
        self._first = {}
        return time.perf_counter() - started, 0.0

    def warmup(self) -> Request:
        return self._request(0)

    def round(self) -> list[Request]:
        return [self._request(i) for i in range(len(self.instances))]

    def _request(self, i: int) -> Request:
        instance = self.instances[i]
        return Request(
            call=lambda: self._solve(instance),
            ops=1,
            check=lambda solution, _info: self._check(i, solution),
        )

    def _check(self, i: int, solution: MCFSSolution) -> int:
        first = self._first.get(i)
        if first is None:
            try:
                repro.validate_solution(self.instances[i], solution)
            except ReproError as exc:
                _fail(f"{self.method} on instance {i}: {exc}")
                return 1
            self._first[i] = solution
            return 0
        if (solution.selected, solution.assignment, solution.objective) != (
            first.selected,
            first.assignment,
            first.objective,
        ):
            _fail(f"{self.method} on instance {i} changed between repeats")
            return 1
        return 0

    def finish(self) -> int:
        """Final checks after the last request; returns failed ops."""
        return 0

    def objective(self) -> float:
        """Mean assignment cost per customer over the instances' solutions."""
        if not self._first:
            return float("nan")
        customers = sum(self.instances[i].m for i in self._first)
        return sum(s.objective for s in self._first.values()) / customers


def city_instances(seed: int) -> list[MCFSInstance]:
    """Customer placements on one seeded grid city (Table IV shape)."""
    net_seed, *placement_seeds = derived_seeds(seed, 1 + CITY_PLACEMENTS)
    network = grid_city(CITY_GRID, CITY_GRID, seed=net_seed)
    return [
        city_instance(
            network, m=CITY_M, k=CITY_K, capacity=CITY_CAPACITY, seed=s, name="city"
        )
        for s in placement_seeds
    ]


def uniform_instances(seed: int) -> list[MCFSInstance]:
    """Uniform random geometric instances (m=51, k=5, every node a candidate)."""
    seeds = derived_seeds(seed, KMLS_INSTANCES)
    return [uniform_instance(KMLS_NODES, seed=s) for s in seeds]


@dataclass
class Deployment:
    """One engine's inputs: warm customers on the facilities, and a trace in batches."""

    instance: MCFSInstance
    batches: list[list[Mutation]]


def lattice_facilities(grid: int) -> list[int]:
    """The middle node of each cell of a 3 x 4 split of the grid.

    Facilities sit at fixed, evenly spread nodes: where random positions
    leave one facility with a far larger catchment than its seats, SSPA
    work swings tenfold between seeds and no bound could hold.
    """
    rows, cols = SERVE_LATTICE
    return [
        ((2 * r + 1) * grid // (2 * rows)) * grid + (2 * c + 1) * grid // (2 * cols)
        for r in range(rows)
        for c in range(cols)
    ]


def serve_deployments(seed: int) -> list[Deployment]:
    """A seeded grid city and, per engine, warm customers and a trace.

    Warm customers are drawn only from components that host a facility:
    ``synthesize_trace`` tracks occupancy per such component and cannot
    place a customer anywhere else.
    """
    net_seed, *engine_seeds = derived_seeds(seed, 1 + SERVE_ENGINES)
    network = grid_city(SERVE_GRID, SERVE_GRID, seed=net_seed)
    facilities = lattice_facilities(SERVE_GRID)
    capacities = [SERVE_SEATS] * len(facilities)
    labels = component_labels(network)
    served = np.flatnonzero(np.isin(labels, labels[facilities]))
    deployments = []
    for engine_seed in engine_seeds:
        draw_seed, trace_seed = derived_seeds(engine_seed, 2)
        rng = np.random.default_rng(draw_seed)
        customers = [int(v) for v in rng.choice(served, size=SERVE_WARM, replace=False)]
        instance = MCFSInstance(
            network=network,
            customers=tuple(customers),
            facility_nodes=tuple(facilities),
            capacities=tuple(capacities),
            k=len(facilities),
            name="serve",
        )
        trace = synthesize_trace(
            network,
            SERVE_BATCH * SERVE_BATCHES,
            facility_nodes=facilities,
            capacities=capacities,
            start_handle=len(customers),
            customer_nodes=customers,
            seed=trace_seed,
            p_depart=SERVE_P_DEPART,
            p_capacity=SERVE_P_CAPACITY,
        )
        batches = [
            trace[b : b + SERVE_BATCH] for b in range(0, len(trace), SERVE_BATCH)
        ]
        deployments.append(Deployment(instance, batches))
    return deployments


class ServeWorkload:
    """Replay each deployment's trace on its warm engine, batch by batch.

    A round replays every engine to the end of its trace; the next round
    starts again on freshly warm-started engines.
    """

    op = "mutation"
    kernel_runs = 1  # a batch is shorter than one sweep

    def __init__(self) -> None:
        self.deployments: list[Deployment] = []
        self.engines: list[ServeEngine] = []
        self._pending: list[tuple[int, int]] = []
        self._final: dict[int, tuple[float, int]] = {}  # engine -> (cost, customers)

    def setup(self, seed: int) -> tuple[float, float]:
        """Generate the inputs and warm-start the engines."""
        started = time.perf_counter()
        self.deployments = serve_deployments(seed)
        self._final = {}
        datagen = time.perf_counter() - started
        return datagen, self._build()

    def _build(self) -> float:
        self.engines = []
        started = time.perf_counter()
        self.engines = [
            ServeEngine(d.instance, range(d.instance.l)) for d in self.deployments
        ]
        self._pending = [
            (e, b)
            for e, d in enumerate(self.deployments)
            for b in range(len(d.batches))
        ]
        return time.perf_counter() - started

    def warmup(self) -> Request:
        return self._request(*self._pending[0])

    def round(self) -> list[Request]:
        """The batches not yet applied; a finished round rebuilds the engines."""
        if not self._pending:
            self._build()
        return [self._request(e, b) for e, b in self._pending]

    def _request(self, e: int, b: int) -> Request:
        engine = self.engines[e]
        batch = self.deployments[e].batches[b]
        return Request(
            call=lambda: engine.apply(batch),
            ops=len(batch),
            check=lambda result, info: self._check(e, batch, result, info),
        )

    def _check(
        self,
        e: int,
        batch: list[Mutation],
        result: ServeResult,
        info: dict[str, float],
    ) -> int:
        engine = self.engines[e]
        last = self._pending.pop(0) == (e, len(self.deployments[e].batches) - 1)
        info["occupancy"] = engine.n_active / sum(engine.selected_capacities)
        info["moves"] = result.moves
        info["stale"] = float(result.staleness != "optimal")
        failed = result.rejected + result.shed
        if result.applied + result.rejected + result.shed != len(batch):
            _fail(f"batch outcome counts do not add up to {len(batch)} mutations")
            failed = len(batch)
        if result.staleness != "optimal":
            _fail(f"batch left engine {e} {result.staleness!r}")
            failed = len(batch)
        end = (engine.cost, engine.n_active)
        if last and self._final.setdefault(e, end) != end:
            _fail(f"engine {e} ended its replay at a different cost than before")
            failed = len(batch)
        return failed

    def finish(self) -> int:
        """Cold-check the final cost of every engine that ended its replay."""
        failed = 0
        unfinished = {e for e, _ in self._pending}
        for e, engine in enumerate(self.engines):
            if e in unfinished:
                continue
            cold = assign_all(
                engine.network,
                engine.customer_nodes(),
                engine.selected_nodes,
                engine.selected_capacities,
            ).cost
            if cold != engine.cost:
                _fail(f"engine {e} cost {engine.cost} differs from cold {cold}")
                failed += 1
        return failed

    def objective(self) -> float:
        """Mean assignment cost per active customer at the end of the replays.

        Per customer, because where a trace's random walk leaves the
        population is luck of the seed and would swing a total cost.
        """
        if len(self._final) < len(self.deployments):
            return float("nan")
        ends = self._final.values()
        return sum(cost for cost, _ in ends) / sum(n for _, n in ends)


WORKLOADS: dict[str, Callable[[], SolveWorkload | ServeWorkload]] = {
    "city_wma": lambda: SolveWorkload("wma", city_instances),
    "uniform_kmls": lambda: SolveWorkload(
        "kmedian-ls",
        uniform_instances,
        lambda inst: repro.solve(
            inst,
            method="kmedian-ls",
            options=SolverOptions(extras={"max_rounds": KMLS_ROUNDS}),
        ),
    ),
    "serve_churn": ServeWorkload,
}
