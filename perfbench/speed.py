"""A probe of how fast the CPU under the end-to-end timings runs.

On a shared machine the same pass can take 1.7x as long when a neighbour
loads the physical core under the vCPU: a fixed loop of small numpy steps
switches between a fast and a slow state every second or so, and the share
of slow time drifts over minutes.  Raw wall times of five ``stress`` runs
made back to back spread 0.42 (quartile distance over median), wider than
any bound a regression check can use, and a speed check taken between
passes does not help, because the state changes within a pass.

So an end-to-end run is pinned to one CPU, and a sampler thread pinned to
the same CPU wakes every ``INTERVAL`` seconds and times a fixed slice of work
shaped like the simulator's hot loop.  Two things keep the code under test
from moving a sample: the slice is timed in the sampler thread's own CPU
time, so time the simulator's threads hold the CPU (numpy calls that release
the interpreter lock) is not counted; and its first ``WARMUP_STEPS`` steps
are not timed, so the cache state the simulator leaves is replaced first.
probe_check.py measures that the samples read the same beside an idle
thread, small numpy steps, a BLAS product and a memory stream.

A sample's speed is ``REFERENCE`` over its time, and a region's corrected
seconds are its wall seconds times the mean speed of the samples taken in
it: the seconds it would have taken on an unloaded core of the machine the
benchmark was written on (a 2-vCPU KVM guest on a Xeon, whose fast state
runs the slice in ``REFERENCE`` seconds).  A sample holds the interpreter
lock for about 0.2 ms, so the probe costs the timed code under 1%.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

import numpy as np

INTERVAL = 0.05
WARMUP_STEPS = 10
STEPS = 40
REFERENCE = 120e-6


def pin_to_one_cpu() -> int:
    """Pin this thread, and the threads it starts later, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """While open, samples the speed of the CPU it was opened on."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._X = rng.standard_normal((STEPS, 10))
        self._y = self._X[:, 0].copy()
        self.times: list[float] = []
        self.speeds: list[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> float:
        """Thread CPU seconds of STEPS steps, after WARMUP_STEPS untimed ones."""
        X, y = self._X, self._y
        w = np.zeros(10)
        for i in range(WARMUP_STEPS + STEPS):
            if i == WARMUP_STEPS:
                start = time.thread_time()
            x = X[i % STEPS]
            w -= 0.01 * ((x @ w - y[i % STEPS]) * x)
        return time.thread_time() - start

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL):
            at = time.perf_counter()
            speed = REFERENCE / self.sample()
            with self._lock:
                self.times.append(at)
                self.speeds.append(speed)

    def __enter__(self) -> "SpeedProbe":
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="speed-probe")
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("speed probe thread did not stop")

    def speed(self, start: float, end: float) -> float:
        """Mean speed of the samples taken in [start, end]; a region too
        short to hold one takes the samples on either side of it."""
        with self._lock:
            lo = bisect.bisect_left(self.times, start)
            hi = bisect.bisect_right(self.times, end)
            if hi == lo:
                lo, hi = max(lo - 1, 0), hi + 1
            speeds = self.speeds[lo:hi]
        if not speeds:
            raise RuntimeError("speed probe took no samples")
        return sum(speeds) / len(speeds)
