"""Check that the speed probe's samples do not depend on the code beside them.

    python3 perfbench/probe_check.py --cycles 40

Pins itself to one CPU as an end-to-end run does, opens the probe, and runs
0.4 s segments of four kinds in turn on the main thread: small numpy steps
(the shape of the simulator's hot loop today), a 400x400 BLAS product, a
64 MB memory stream, and sleep.  A neighbour's load changes on the scale of
a second, so each kind's mean sample speed is taken as a ratio to the small
steps' segment of the same cycle.  If a change of kernel could move the
probe, the BLAS or stream ratio would stand away from 1 by more than a few
standard errors.  Sleep is shown for reference only: a pass never leaves
its CPU idle.
"""

from __future__ import annotations

import argparse
import math
import statistics
import time

import numpy as np

from speed import SpeedProbe, pin_to_one_cpu

SEGMENT = 0.4


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cycles", type=int, default=40)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    small_x = rng.standard_normal((200, 10))
    square = rng.standard_normal((400, 400))
    big = np.ones(8_000_000)

    def small(until):
        w = np.zeros(10)
        while time.perf_counter() < until:
            for x in small_x:
                w -= 0.01 * ((x @ w - 0.5) * x)

    def blas(until):
        while time.perf_counter() < until:
            square @ square

    def stream(until):
        while time.perf_counter() < until:
            big.sum()
            big * 2.0

    def idle(until):
        time.sleep(max(until - time.perf_counter(), 0.0))

    kinds = {"small": small, "blas": blas, "stream": stream, "idle": idle}
    pin_to_one_cpu()
    segments = []
    with SpeedProbe() as probe:
        for _ in range(args.cycles):
            cycle = {}
            for name, run in kinds.items():
                start = time.perf_counter()
                run(start + SEGMENT)
                cycle[name] = (start, time.perf_counter())
            segments.append(cycle)
    ratios: dict[str, list[float]] = {name: [] for name in kinds}
    for cycle in segments:
        base = probe.speed(*cycle["small"])
        for name, (start, end) in cycle.items():
            ratios[name].append(probe.speed(start, end) / base)
    print(f"probe speed beside each kind of code, over small steps, {args.cycles} cycles:")
    for name, values in ratios.items():
        se = statistics.stdev(values) / math.sqrt(len(values))
        print(f"  {name:<7} mean {statistics.mean(values):.3f}  standard error {se:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
