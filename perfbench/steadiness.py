"""Steadiness report: run one workload N times and show each metric's spread.

    python3 perfbench/steadiness.py --workload city_wma --runs 5 --seconds 30

Run ``i`` uses seed ``--seed + i``, each in its own process, as the
gate does; ``--same-seed`` repeats ``--seed`` instead, which leaves only
the timing noise.  For every metric the report prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the interquartile
range and (max - min) as shares of the median, and the same for the
reference kernel's raw time, which shows how much the host drifted.
Exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
KERNEL_LINE = re.compile(r"^reference kernel: median ([0-9.]+) ms")


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, float, float]:
    """One run's result object, its median kernel time in ms and its wall time."""
    started = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        capture_output=True,
        text=True,
        cwd=HERE.parent,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
    kernel = next(
        float(m.group(1)) for m in map(KERNEL_LINE.match, lines) if m is not None
    )
    return json.loads(lines[-1]), kernel, time.perf_counter() - started


def spread_row(name: str, values: list[float]) -> str:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    iqr = (q3 - q1) / median if median else float("nan")
    span = (max(values) - min(values)) / median if median else float("nan")
    return f"| {name} | {median:.6g} | {q1:.6g} | {q3:.6g} | {iqr:.4f} | {span:.4f} |"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args(argv)
    seeds = [args.seed + (0 if args.same_seed else i) for i in range(args.runs)]

    results = []
    kernels = []
    walls = []
    for seed in seeds:
        result, kernel, wall = run_once(args.workload, seed, args.seconds)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(
            f"seed {seed} ({wall:.1f} s): "
            + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
            flush=True,
        )
        results.append(values)
        kernels.append(kernel)
        walls.append(wall)

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s, seeds {seeds}\n")
    print("| metric | median | q1 | q3 | iqr/median | (max-min)/median |")
    print("|---|---|---|---|---|---|")
    for name in results[0]:
        print(spread_row(name, [r[name] for r in results]))
    print(spread_row("kernel raw ms", kernels))
    print(spread_row("run wall s", walls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
