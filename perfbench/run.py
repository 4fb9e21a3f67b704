"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload city_wma --seed 1 --seconds 20 --trace 0

Every timed request -- one solve, or one ``ServeEngine.apply`` batch --
is divided by the mean time of the reference kernel
(:mod:`refkernel`) run just before and just after it, so latencies are
in ``ref`` units.  Each set-up is timed the same way, and ``setup_s``
is its time in ref converted to seconds at the kernel's fixed nominal
time (``refkernel.NOMINAL_SECONDS``).  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it measures half its time untraced and half
with every layer function wrapped (:mod:`spans`), and prints the
per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Any failed
check makes the command exit with code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from refkernel import ReferenceKernel
    from spans import Tracer
    from workloads import Request, ServeWorkload, SolveWorkload

    Workload = SolveWorkload | ServeWorkload

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Environment variables that would change which program path runs.
PINNED_ENV = ("REPRO_WORKERS", "REPRO_ORACLE", "REPRO_ORACLE_DIR")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Kernel sweeps per timing around a set-up (their median).
SETUP_KERNEL_RUNS = 3

#: Samples a percentile needs beyond it before it is reported.
TAIL_SAMPLES = 10

#: Layers whose entries are counted (``<layer>.calls``): calls from
#: another layer, not ones nested in the layer itself.
CALLS_COUNTED = ("network.bulk", "network.stream", "flow.sspa", "core.cover")

#: Program counters summed into per-layer counts (``repro.obs.names``).
COUNTS = {
    "network.bulk.pops": ("dijkstra.pops",),
    "network.bulk.kernel_runs": ("dijkstra.kernel_runs",),
    "network.stream.pops": ("incremental.pops",),
    "network.stream.opened": ("incremental.streams",),
    "flow.sspa.pops": ("sspa.pops",),
    "flow.sspa.path_edges": ("sspa.path_edges",),
    "core.cover.heap_pops": ("set_cover.heap_pops",),
    "core.wma.iterations": ("wma.iterations",),
    "serve.repairs": ("serve.repairs_component", "serve.repairs_global"),
}

#: Ratios of useful outcomes to attempts: (numerator, denominator) counters.
RATIOS = {
    "network.stream.reveal_ratio": (
        "incremental.edges_materialized",
        "incremental.settled",
    ),
    "flow.sspa.augment_ratio": ("sspa.augmentations", "sspa.dijkstra_runs"),
    "core.cover.select_ratio": ("set_cover.selections", "set_cover.heap_pops"),
}


@dataclass
class Sample:
    """One timed request."""

    seconds: float
    ref: float
    ops: int
    failed: int
    counters: dict[str, float] = field(default_factory=dict)
    info: dict[str, float] = field(default_factory=dict)


@dataclass
class Tally:
    """Operations attempted and failed over the whole run."""

    attempted: int = 0
    failed: int = 0
    aborted: bool = False


def tail_percentile(values: list[float], q: float) -> float | None:
    """The nearest-rank ``q`` quantile, or ``None`` with too few samples beyond it."""
    ordered = sorted(values)
    rank = max(math.ceil(len(ordered) * q), 1)
    if len(ordered) - rank < TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


def timed(
    request: Request,
    kernel: ReferenceKernel,
    tally: Tally,
    tracer: Tracer | None = None,
    before: float | None = None,
    kernel_runs: int = 1,
) -> tuple[Sample | None, float]:
    """Time one request between two reference-kernel timings, then check it.

    Each timing is the median of ``kernel_runs`` kernel sweeps.
    ``before`` is the timing taken right after the previous request, so
    consecutive requests share one.  Returns the sample -- ``None``, with
    the run marked aborted, when the request raised -- and the timing
    taken after it.
    """
    from repro.obs import metrics

    if before is None:
        gc.collect()
        before = kernel.time(kernel_runs)
    registry = metrics.Registry()
    tally.attempted += request.ops
    try:
        with metrics.use(registry):
            if tracer is None:
                started = time.perf_counter()
                result = request.call()
                seconds = time.perf_counter() - started
            else:
                tracer.open_request()
                try:
                    result = request.call()
                finally:
                    seconds = tracer.exit()
    except Exception:
        traceback.print_exc()
        tally.failed += request.ops
        tally.aborted = True
        return None, before
    gc.collect()
    after = kernel.time(kernel_runs)
    failed = request.check(result, request.info)
    tally.failed += failed
    sample = Sample(
        seconds=seconds,
        ref=seconds / ((before + after) / 2),
        ops=request.ops,
        failed=failed,
        counters=registry.as_dict(),
        info=request.info,
    )
    return sample, after


def timed_setup(
    workload: Workload, kernel: ReferenceKernel, seed: int, before: float
) -> tuple[float, float, float, float]:
    """Set the workload up between two reference-kernel timings.

    ``before`` is the timing taken just before, so consecutive set-ups
    share one.  Returns the raw ``(datagen_s, build_s)``, the whole
    set-up's time in ref and the timing taken after it.
    """
    gen_s, build_s = workload.setup(seed)
    gc.collect()
    after = kernel.time(SETUP_KERNEL_RUNS)
    return gen_s, build_s, (gen_s + build_s) / ((before + after) / 2), after


def measure(
    workload: Workload,
    kernel: ReferenceKernel,
    seconds: float,
    tally: Tally,
    tracer: Tracer | None = None,
) -> list[Sample]:
    """Run whole rounds of the workload until ``seconds`` would be exceeded.

    At least one round runs; another starts only if a round as long as
    the last one still fits.
    """
    samples: list[Sample] = []
    started = time.perf_counter()
    last_round = 0.0
    rounds = 0
    while not tally.aborted and (
        rounds == 0 or time.perf_counter() - started + last_round <= seconds
    ):
        round_started = time.perf_counter()
        ref = None
        for request in workload.round():
            sample, ref = timed(
                request, kernel, tally, tracer, ref, workload.kernel_runs
            )
            if sample is None:
                break
            samples.append(sample)
        last_round = time.perf_counter() - round_started
        rounds += 1
    return samples


def end_to_end(
    workload: Workload, samples: list[Sample], setup_refs: list[float]
) -> dict[str, tuple[float, str]]:
    from refkernel import NOMINAL_SECONDS

    refs = [s.ref for s in samples]
    done = sum(s.ops - s.failed for s in samples)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_refs) * NOMINAL_SECONDS, "s"),
        "latency_p50": (statistics.median(refs), "ref"),
        "throughput": (done / sum(refs), "ops/ref"),
        "objective": (workload.objective(), "cost"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }


def per_layer(
    tracer: Tracer,
    traced: list[Sample],
    untraced: list[Sample],
    datagen: list[float],
    builds: list[float],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced requests, each a mean per request."""
    from spans import LAYERS, REQUEST

    n = len(traced)
    totals: dict[str, float] = defaultdict(float)
    for sample in traced:
        for key, value in sample.counters.items():
            totals[key] += value
    out: dict[str, tuple[float, str]] = {}
    for layer in (*LAYERS, REQUEST):
        out[f"{layer}.self_s"] = (tracer.self_s[layer] / n, "s")
    for layer in CALLS_COUNTED:
        out[f"{layer}.calls"] = (tracer.calls[layer] / n, "count")
    for name, keys in COUNTS.items():
        out[name] = (sum(totals[k] for k in keys) / n, "count")
    for name, (num, den) in RATIOS.items():
        out[name] = (totals[num] / totals[den] if totals[den] else 0.0, "ratio")
    out["flow.sspa.occupancy_lift"] = (occupancy_lift(traced), "ratio")
    out["serve.moves"] = (sum(s.info.get("moves", 0) for s in traced) / n, "count")
    out["serve.warm_start_s"] = (statistics.median(builds), "s")
    out["datagen.s"] = (statistics.median(datagen), "s")
    out["trace.request_s"] = (sum(s.seconds for s in traced) / n, "s")
    traced_p50 = statistics.median(s.ref for s in traced)
    out["trace.overhead"] = (
        traced_p50 / statistics.median(s.ref for s in untraced),
        "ratio",
    )
    return out


def occupancy_lift(samples: list[Sample]) -> float:
    """SSPA pops per batch above the median occupancy over those at or below it.

    Above 1 when matching work grows with occupancy; 0 for workloads
    without an occupancy.
    """
    rows = [
        (s.info["occupancy"], s.counters.get("sspa.pops", 0.0))
        for s in samples
        if "occupancy" in s.info
    ]
    if not rows:
        return 0.0
    middle = statistics.median(occ for occ, _ in rows)
    high = [pops for occ, pops in rows if occ > middle]
    low = [pops for occ, pops in rows if occ <= middle]
    if not high or not any(low):
        return 0.0
    return statistics.fmean(high) / statistics.fmean(low)


def print_diagnostics(workload: Workload, samples: list[Sample]) -> None:
    """Figures printed for reading, not gated."""
    refs = [s.ref for s in samples]
    kernel = [s.seconds / s.ref for s in samples]
    kernel_mid = statistics.median(kernel)
    raw_ms = statistics.median(s.seconds for s in samples) * 1000
    print(f"samples: {len(samples)} {workload.op} requests")
    print(f"raw latency p50: {raw_ms:.1f} ms (not gated)")
    print(
        f"reference kernel: median {kernel_mid * 1000:.2f} ms, "
        f"(max-min)/median {(max(kernel) - min(kernel)) / kernel_mid:.3f}"
    )
    p90 = tail_percentile(refs, 0.9)
    if p90 is None:
        print(
            f"latency p90: not reported, fewer than {TAIL_SAMPLES} "
            f"of {len(refs)} samples beyond it"
        )
    else:
        print(f"latency p90: {p90:.4f} ref ({len(refs)} samples)")
    stale = [s.info["stale"] for s in samples if "stale" in s.info]
    if stale:
        print(f"stale share: {sum(stale) / len(stale):.4f} of {len(stale)} batches")
    occupancy = [s.info["occupancy"] for s in samples if "occupancy" in s.info]
    if occupancy:
        print(f"occupancy: {min(occupancy):.3f} .. {max(occupancy):.3f}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from refkernel import ReferenceKernel
    from spans import Tracer, patched
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]()
    kernel = ReferenceKernel()

    datagen: list[float] = []
    builds: list[float] = []
    setup_refs: list[float] = []
    gc.collect()
    timing = kernel.time(SETUP_KERNEL_RUNS)
    for _ in range(SETUP_REPEATS):
        gen_s, build_s, ref, timing = timed_setup(workload, kernel, args.seed, timing)
        datagen.append(gen_s)
        builds.append(build_s)
        setup_refs.append(ref)
    print(
        "setup: "
        + " ".join(f"{g + b:.3f}" for g, b in zip(datagen, builds, strict=True))
        + " s raw (datagen + build, not gated) = "
        + " ".join(f"{r:.2f}" for r in setup_refs)
        + " ref"
    )

    tally = Tally()
    warmup, _ = timed(
        workload.warmup(), kernel, tally, kernel_runs=workload.kernel_runs
    )
    if warmup is not None:
        print(
            f"warm-up: {warmup.seconds * 1000:.1f} ms = {warmup.ref:.2f} ref "
            "(not sampled)"
        )

    if args.trace:
        untraced = measure(workload, kernel, args.seconds / 2, tally)
        tracer = Tracer()
        with patched(tracer):
            traced = measure(workload, kernel, args.seconds / 2, tally, tracer)
    else:
        untraced = measure(workload, kernel, args.seconds, tally)
    tally.failed += workload.finish()

    metrics: dict[str, tuple[float, str]] = {}
    if untraced and not tally.aborted:
        print_diagnostics(workload, untraced)
        if not args.trace:
            metrics = end_to_end(workload, untraced, setup_refs)
        elif traced:
            metrics = per_layer(tracer, traced, untraced, datagen, builds)
            tally.failed += report_trace(tracer, traced, args)
    share = tally.failed / max(tally.attempted, 1)
    print(f"failed share: {share:.4f} of {tally.attempted} {workload.op}s")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    correct = tally.failed == 0 and bool(metrics) and finite
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(tally.attempted, 1),
                "failed": tally.failed,
                "metrics": {
                    k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def report_trace(tracer: Tracer, traced: list[Sample], args: argparse.Namespace) -> int:
    """Check that span self times add up, write the spans; returns failures."""
    wall = sum(s.seconds for s in traced)
    error = abs(sum(tracer.self_s.values()) - wall) / wall
    print(
        f"trace: {len(traced)} traced requests; span self times sum to "
        f"their wall time within {error:.1e}"
    )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(str(path))
    print(
        f"trace: wrote {len(tracer.records)} spans to "
        f"{path.relative_to(HERE.parent)} ({tracer.dropped} more not kept)"
    )
    if error > 1e-6:
        print(
            "CHECK FAILED: span self times do not add up to request time",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
