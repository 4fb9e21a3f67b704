"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import statistics

import pytest
import run
import spans
from refkernel import ReferenceKernel
from workloads import Request, SolveWorkload

import repro
from repro.core.instance import MCFSInstance
from repro.core.solution import MCFSSolution
from repro.datagen import uniform_instance
from repro.network.graph import Network


class FakeClock:
    """Returns the scripted times in order."""

    def __init__(self, times: list[float]) -> None:
        self._times = iter(times)

    def __call__(self) -> float:
        return next(self._times)


def test_self_time_on_a_nested_span_tree() -> None:
    # request [0, 10]
    #   find_pair (flow.sspa) [1, 6]
    #     take (network.stream) [2, 4]
    #     rebuild_rows (flow.sspa) [4.5, 5.5]
    #   peek (network.stream) [7, 9]
    tracer = spans.Tracer(clock=FakeClock([0, 0, 1, 2, 4, 4.5, 5.5, 6, 7, 9, 10]))
    tracer.open_request()
    tracer.enter("find_pair", "flow.sspa")
    tracer.enter("take", "network.stream")
    tracer.exit()
    tracer.enter("rebuild_rows", "flow.sspa")
    tracer.exit()
    tracer.exit()
    tracer.enter("peek", "network.stream")
    tracer.exit()
    assert tracer.exit() == 10

    assert tracer.self_s == {"request": 3, "flow.sspa": 3, "network.stream": 4}
    assert sum(tracer.self_s.values()) == 10
    # A span nested in its own layer is not a new entry into that layer.
    assert tracer.calls == {"request": 1, "flow.sspa": 1, "network.stream": 2}
    parents = [record[4] for record in tracer.records]
    assert parents == [-1, 0, 1, 1, 0]
    assert {record[5] for record in tracer.records} == {0}


def test_wrapped_function_records_only_inside_a_request() -> None:
    tracer = spans.Tracer()
    double = tracer.wrap("double", "core.cover", lambda x: 2 * x)
    assert double(2) == 4
    assert tracer.records == []
    tracer.open_request()
    assert double(3) == 6
    tracer.exit()
    assert [record[0] for record in tracer.records] == ["request", "double"]


def test_patched_wraps_every_imported_name_and_restores_it() -> None:
    import repro.baselines.kmedian_ls as kmls
    import repro.core.wma as wma
    import repro.flow.sspa as sspa

    find_pair = sspa.find_pair
    solver = repro.SOLVERS["kmedian-ls"]
    tracer = spans.Tracer()
    with spans.patched(tracer):
        assert wma.find_pair is not find_pair
        assert sspa.find_pair is wma.find_pair
        assert repro.SOLVERS["kmedian-ls"] is not solver
        assert kmls.multi_source_lengths.__wrapped__ is not None
        instance = uniform_instance(128, seed=3)
        tracer.open_request()
        repro.solve(instance, method="kmedian-ls")
        wall = tracer.exit()
    assert wma.find_pair is find_pair and sspa.find_pair is find_pair
    assert repro.SOLVERS["kmedian-ls"] is solver
    assert tracer.calls["baselines.kmls"] == 1
    assert tracer.self_s["network.bulk"] > 0
    assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=1e-9)


def test_three_kernel_runs_read_about_three_ref() -> None:
    kernel = ReferenceKernel()
    refs = []
    for _ in range(5):
        request = Request(
            call=lambda: [kernel.time() for _ in range(3)], ops=1, check=lambda r, i: 0
        )
        sample, _ = run.timed(request, kernel, run.Tally())
        refs.append(sample.ref)
    assert 2.5 < statistics.median(refs) < 3.5


def test_set_up_running_the_kernel_twice_reads_about_two_ref() -> None:
    kernel = ReferenceKernel()

    class TwoSweeps:
        def setup(self, seed: int) -> tuple[float, float]:
            return kernel.time(), kernel.time()

    timing = kernel.time()
    refs = []
    for _ in range(5):
        _, _, ref, timing = run.timed_setup(TwoSweeps(), kernel, 0, timing)
        refs.append(ref)
    assert 1.6 < statistics.median(refs) < 2.4


def test_p90_needs_ten_samples_beyond_it() -> None:
    assert run.tail_percentile([float(v) for v in range(99)], 0.9) is None
    assert run.tail_percentile([float(v) for v in range(100)], 0.9) == 89.0
    assert run.tail_percentile([float(v) for v in range(200)], 0.9) == 179.0


def test_over_capacity_solution_counts_as_failed() -> None:
    network = Network(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    instance = MCFSInstance(
        network=network,
        customers=(0, 1, 2),
        facility_nodes=(0, 3),
        capacities=(2, 2),
        k=2,
    )
    overfull = MCFSSolution(selected=(0, 1), assignment=(0, 0, 0), objective=3.0)
    workload = SolveWorkload(
        "fake", lambda seed: [instance], solve=lambda inst: overfull
    )
    workload.setup(0)
    tally = run.Tally()
    samples = [run.timed(r, ReferenceKernel(), tally)[0] for r in workload.round()]
    assert tally.failed == 1 and tally.attempted == 1
    assert samples[0].failed == 1


def test_raising_request_aborts_the_run() -> None:
    def boom() -> None:
        raise RuntimeError("solver crashed")

    tally = run.Tally()
    request = Request(call=boom, ops=40, check=lambda r, i: 0)
    assert run.timed(request, ReferenceKernel(), tally)[0] is None
    assert tally.aborted and tally.failed == 40
