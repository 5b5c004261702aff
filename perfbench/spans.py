"""Spans recorded from outside the simulator, and the per-layer metrics
derived from them.

The tracer replaces a module attribute with a timing wrapper for the duration
of one traced pass.  Each wrapper is installed where its caller resolves the
name (``simulation`` imports ``run_local_epochs`` by name, so the wrapper goes
on ``safl_sim.simulation.run_local_epochs``), so no timer sits inside the
package.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import itertools
import math
import statistics
import threading
import time
from dataclasses import dataclass

# Percentiles tried for a tail figure, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99, 99.999)
TAIL_MIN_BEYOND = 10
# Spans opened on a thread with nothing open (a worker-pool thread) are
# children of the open span of this name.
ADOPTER = "experiments.execute"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: tuple[str, int] | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread.

    A span's parent is the innermost span open on its own thread, or else
    the open ``ADOPTER`` span, so jobs run by ``execute``'s pool are
    attributed to ``execute``.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._adopt: int | None = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        # per-thread state: the open-span stack, the current job, and
        # whatever the wrap sites need to remember between calls
        self.local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    @property
    def job(self) -> tuple[str, int] | None:
        return getattr(self.local, "job", None)

    @job.setter
    def job(self, value: tuple[str, int] | None) -> None:
        self.local.job = value

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._adopt
        job = self.job
        adopting = name == ADOPTER
        if adopting:
            self._adopt = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if adopting:
                self._adopt = None
            self.spans.append(Span(span_id, name, start, end, parent, job))


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other (jobs on two pool threads under one
    ``execute``), so the covered part is the union of their intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end) for s in spans}


def outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in ``names`` that have no ancestor named in ``names``, so a
    layer's time is not counted twice when it calls itself."""
    names = set(names)
    by_id = {s.id: s for s in spans}
    picked = []
    for s in spans:
        if s.name not in names:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent)
        if parent is None:
            picked.append(s)
    return picked


def nearest_rank(sorted_values, pct: float) -> tuple[float, int]:
    """The ``pct`` percentile by nearest rank, and how many values lie beyond it."""
    n = len(sorted_values)
    rank = max(math.ceil(round(pct * n / 100.0, 9)), 1)  # round off float noise before ceil
    return sorted_values[rank - 1], n - rank


def tail(values, min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float]:
    """The highest percentile of ``TAIL_LADDER`` with at least ``min_beyond``
    values beyond it, as (value, percentile).  Falls back to the median when
    even the median has too few values beyond it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of an empty sample")
    best = (nearest_rank(ordered, 50.0)[0], 50.0)
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, pct)
        if beyond < min_beyond:
            break
        best = (value, pct)
    return best


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass (times in seconds unless named)."""
    spans = tracer.spans
    counts = tracer.counts
    own = self_times(spans)

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(*names):
        return sum(s.duration for s in outermost(spans, names))

    def self_total(*names):
        return sum(own[s.id] for s in named(*names))

    training_s = total("training.run_local_epochs")
    steps = counts.get("training.steps", 0)
    decisions = counts.get("upload_gate.decisions", 0)
    uploads = counts.get("upload_gate.uploads", 0)

    rounds_ms = [s.duration * 1e3 for s in named("simulation.run_round")]
    tail_ms, tail_pct = tail(rounds_ms) if rounds_ms else (0.0, 50.0)

    bound_names = (
        "bounds.measure_bound_inputs",
        "bounds.theorem1_bound",
        "bounds.corollary1_constant",
        "bounds.corollary1_bound",
        # experiments calls curvature directly only to assemble the
        # decaying-step bound, so those calls are bound assembly too
        "objectives.curvature",
    )
    return {
        "training.s": training_s,
        "training.calls": len(named("training.run_local_epochs")),
        "training.steps": steps,
        "training.ns_per_step": training_s / steps * 1e9 if steps else 0.0,
        "bounds.s": total(*bound_names),
        "objectives.curvature_s": total("objectives.curvature"),
        "objectives.curvature_calls": len(named("objectives.curvature")),
        "objectives.optimum_s": total("objectives.optimum_oracle"),
        "objectives.optimum_calls": len(named("objectives.optimum_oracle")),
        "partition.s": total("partition.partition_with_holdout"),
        "partition.calls": len(named("partition.partition_with_holdout")),
        "simulation.build_state_s": total("simulation.build_state"),
        "simulation.build_state_self_s": self_total("simulation.build_state"),
        "upload_gate.s": total(
            "upload_gate.accuracy_proxy",
            "upload_gate.performance_gap",
            "upload_gate.upload_probability",
            "upload_gate.decide_upload",
        ),
        "upload_gate.decisions": decisions,
        "upload_gate.uploads": uploads,
        "upload_gate.upload_ratio": uploads / decisions if decisions else 0.0,
        "annealing.s": total("annealing.selection_probability", "annealing.sample_mask", "annealing.mix"),
        "annealing.calls": len(named("annealing.selection_probability", "annealing.sample_mask", "annealing.mix")),
        "aggregation.s": total("aggregation.weights", "aggregation.aggregate"),
        "aggregation.updates_fused": counts.get("aggregation.updates_fused", 0),
        "simulation.round_s": total("simulation.run_round"),
        "simulation.round_self_s": self_total("simulation.run_round"),
        "simulation.metrics_s": total("simulation.global_estimate", "simulation.metrics_proxy"),
        "simulation.round_ms_p50": statistics.median(rounds_ms) if rounds_ms else 0.0,
        "simulation.round_ms_tail": tail_ms,
        "simulation.round_ms_tail_pct": tail_pct,
        "experiments.load_s": total("experiments.load_experiment"),
        "experiments.rows_s": total("experiments.rows_for_run"),
        "experiments.write_s": total("experiments.emit_metrics_csv"),
        "experiments.execute_self_s": self_total("experiments.execute"),
    }


def concurrency(tracer: Tracer) -> float:
    """Summed job time (``run`` plus ``rows_for_run``) over the ``execute``
    span: how many jobs were running at once, on average."""
    execute_s = sum(s.duration for s in tracer.spans if s.name == "experiments.execute")
    jobs_s = sum(s.duration for s in tracer.spans if s.name in ("simulation.run", "experiments.rows_for_run"))
    return jobs_s / execute_s if execute_s else 0.0


# Figures that must repeat exactly between two traced passes of the same code.
EXACT_COUNTS = (
    "training.calls",
    "training.steps",
    "objectives.curvature_calls",
    "objectives.optimum_calls",
    "partition.calls",
    "upload_gate.decisions",
    "upload_gate.uploads",
    "upload_gate.upload_ratio",
    "annealing.calls",
    "aggregation.updates_fused",
)
