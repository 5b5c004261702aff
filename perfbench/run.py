"""safl-sim benchmark: times the simulator end to end, or traces it per layer.

    python3 perfbench/run.py --workload demo --seed 0 --seconds 20 --trace 0

Run from the repository root.  The simulator is imported from ``src/`` of the
same tree and driven only through its public entry points.  With
``--trace 0`` the run reports the end-to-end metrics, measured with tracing
off; with ``--trace 1`` it reports the per-layer metrics of traced passes.
Every pass's output is checked (check.py).  The last line on stdout is one
JSON object: ``correct``, ``attempted`` and ``failed`` count (variant, seed)
jobs, and ``metrics`` maps each metric that BENCHMARK.json names for the
mode to its value and unit.  End-to-end times are medians over the run's
passes, corrected for the machine's speed at the time (speed.py); per-layer
times are raw.  The line before it stamps the result with the code and
machine it came from.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A run times whole passes until --seconds have gone and it has at least
# MIN_PASSES of them, but starts no pass it expects to end after HARD_LIMIT.
MIN_PASSES = 4
MIN_TRACED_PASSES = 2
HARD_LIMIT = 150.0
# Before each pass set-up is timed again and again for SETUP_SECONDS (at
# least once), so its median samples the whole run: a cheap set-up many
# times, an expensive one once per pass.
SETUP_SECONDS = 0.25
SETUP_MAX_REPS = 200


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics a run reports, with units."""
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise SystemExit(f"benchmark: cannot read {path}: {err}")


def load_package():
    """Import safl_sim from this tree's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "safl_sim" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no simulator source at {src}/safl_sim")
    sys.path.insert(0, str(src))
    import safl_sim
    from safl_sim import cli, experiments, simulation

    if Path(safl_sim.__file__).resolve().parent != (src / "safl_sim").resolve():
        raise SystemExit(f"benchmark: imported safl_sim from {safl_sim.__file__}, not from {src}")
    return cli, experiments, simulation


def stamp() -> dict:
    """The code and machine a result comes from."""
    import numpy

    sha = "unknown"
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


class Bench:
    """One workload at one seed: writes its document, runs and checks passes."""

    def __init__(self, workload: str, seed: int, work: Path):
        from check import Expect
        from workloads import document

        self.cli, self.experiments, self.simulation = load_package()
        self.work = work
        doc = document(ROOT, workload, seed)
        self.config = work / f"{workload}.json"
        self.config.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        self.first_job = (doc["variants"][0], doc["seeds"][0])
        self.rows = len(doc["variants"]) * len(doc["seeds"]) * doc["T"]
        self.expect = Expect(
            variants=tuple(doc["variants"]),
            seeds=tuple(doc["seeds"]),
            rounds=doc["T"],
            selected=doc["s"],
            reference=reference(workload, seed),
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None
        # diagnostics printed with the stamp
        self.raw: dict = {}

    def fail(self, message: str, jobs: int = 0) -> None:
        self.problems.append(message)
        self.failed += jobs

    def run_pass(self, threads: int, label: str) -> tuple[float, float, str]:
        """One ``safl-sim run`` in-process; returns its start, end and CSV digest."""
        from check import check_run, digest

        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        os.environ["SAFL_SIM_THREADS"] = str(threads)
        argv = ["run", "--config", str(self.config), "--out", str(out), "--quiet"]
        gc.collect()
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:  # the run's failure is reported, the benchmark goes on
            traceback.print_exc()
            code = -1
        end = time.perf_counter()
        jobs = check_run(out, self.expect)
        self.attempted += len(jobs)
        bad = {job: p for job, p in jobs.items() if p or code != 0}
        self.failed += len(bad)
        for (variant, seed), problems in sorted(bad.items()):
            why = "; ".join(problems[:3]) or f"exit code {code}"
            self.problems.append(f"{label}: {variant} seed {seed}: {why}")
        csv_digest = digest(out, self.expect.variants)
        print(f"{label}: {end - start:.3f} s, exit {code}, {len(bad)}/{len(jobs)} jobs failed, "
              f"csv sha256 {csv_digest[:16]}", file=sys.stderr)
        return start, end, csv_digest

    def same_bytes(self, csv_digest: str, label: str) -> None:
        """Every pass of one run must write the same bytes as the first."""
        if self.digest is None:
            self.digest = csv_digest
        elif csv_digest != self.digest:
            self.fail(f"{label}: CSV bytes differ from the run's first pass", len(self.expect.jobs))

    def setup_times(self) -> list[tuple[float, float]]:
        """load_experiment plus build_state of the first job, repeated; the
        start and end of each."""
        variant, seed = self.first_job
        times: list[tuple[float, float]] = []
        begin = time.perf_counter()
        while not times or (time.perf_counter() - begin < SETUP_SECONDS and len(times) < SETUP_MAX_REPS):
            gc.collect()
            start = time.perf_counter()
            spec = self.experiments.load_experiment(self.config)
            self.simulation.build_state(self.experiments.sim_config(spec, variant, seed), dataset=spec.dataset)
            times.append((start, time.perf_counter()))
        return times


def reference(workload: str, seed: int) -> dict | None:
    path = HERE / "reference.json"
    if not path.exists():
        return None
    recorded = json.loads(path.read_text(encoding="utf-8"))["workloads"]
    return recorded.get(workload, {}).get(str(seed))


def keep_going(count: int, minimum: int, begin: float, seconds: float, longest: float) -> bool:
    elapsed = time.perf_counter() - begin
    if elapsed + longest > HARD_LIMIT:
        return False
    return count < minimum or elapsed < seconds


def end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    """Medians over the run's passes and set-up reps, each in seconds on an
    unloaded core: its wall seconds times the CPU's speed meanwhile (speed.py)."""
    from speed import SpeedProbe, pin_to_one_cpu

    bench.raw["cpu"] = pin_to_one_cpu()
    begin = time.perf_counter()
    setup: list[tuple[float, float]] = []
    passes: list[tuple[float, float]] = []
    longest = 0.0
    with SpeedProbe() as probe:
        while keep_going(len(passes), MIN_PASSES, begin, seconds, longest):
            started = time.perf_counter()
            setup += bench.setup_times()
            label = f"pass {len(passes) + 1}"
            start, end, csv_digest = bench.run_pass(1, label)
            bench.same_bytes(csv_digest, label)
            passes.append((start, end))
            longest = max(longest, time.perf_counter() - started)
    walls = [(b - a) * probe.speed(a, b) for a, b in passes]
    wall_s = statistics.median(walls)
    bench.raw.update(
        pass_s=[b - a for a, b in passes],
        pass_speed=[probe.speed(a, b) for a, b in passes],
        setup_reps=len(setup),
        raw_setup_s=statistics.median(b - a for a, b in setup),
    )
    return {
        "wall_s": wall_s,
        "setup_s": statistics.median((b - a) * probe.speed(a, b) for a, b in setup),
        "rounds_per_s": bench.rows / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(bench: Bench, seconds: float, pool_workers: int) -> dict[str, float]:
    from layers import missing_sites, traced
    from spans import EXACT_COUNTS, Tracer, concurrency, layer_metrics

    for site in missing_sites():
        bench.fail(f"trace: wrap site {site} not found, so its layer would read 0")
    begin = time.perf_counter()
    start, end, csv_digest = bench.run_pass(1, "untraced pass")
    untraced = end - start
    bench.same_bytes(csv_digest, "untraced pass")
    longest = untraced
    walls: list[float] = []
    passes: list[dict[str, float]] = []
    while keep_going(len(passes), MIN_TRACED_PASSES, begin, seconds, longest):
        label = f"traced pass {len(passes) + 1}"
        tracer = Tracer()
        with traced(tracer):
            start, end, csv_digest = bench.run_pass(1, label)
        bench.same_bytes(csv_digest, label)
        wall = end - start
        longest = max(longest, wall)
        walls.append(wall)
        passes.append(layer_metrics(tracer))
    for key in EXACT_COUNTS:
        values = {p[key] for p in passes}
        if len(values) > 1:
            bench.fail(f"trace: {key} differs between traced passes: {sorted(values)}")
    if len(passes) < MIN_TRACED_PASSES:
        bench.fail("trace: fewer than two traced passes, counts unchecked")
    metrics = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    metrics["trace.wall_s"] = statistics.median(walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    metrics["pool.wall_ratio"] = metrics["pool.concurrency"] = 0.0
    if pool_workers > 1:
        # execute's worker pool, untraced and then traced: its bytes must
        # equal the 1-worker passes', and its cost shows against them
        label = f"{pool_workers}-worker pass"
        start, end, csv_digest = bench.run_pass(pool_workers, label)
        bench.same_bytes(csv_digest, label)
        metrics["pool.wall_ratio"] = (end - start) / untraced
        tracer = Tracer()
        with traced(tracer):
            *_, csv_digest = bench.run_pass(pool_workers, f"{label}, traced")
        bench.same_bytes(csv_digest, f"{label}, traced")
        metrics["pool.concurrency"] = concurrency(tracer)
    bench.raw.update(traced_passes=len(passes), untraced_wall_s=untraced)
    for key in SHARES:
        print(f"share of traced wall: {key:<32} {metrics[key] / metrics['trace.wall_s']:7.1%}", file=sys.stderr)
    return metrics


# Layer times whose share of the traced wall time is printed after a trace.
SHARES = (
    "training.s", "bounds.s", "objectives.optimum_s", "partition.s", "simulation.build_state_s",
    "upload_gate.s", "annealing.s", "aggregation.s", "simulation.round_self_s", "simulation.metrics_s",
    "experiments.rows_s", "experiments.write_s", "experiments.execute_self_s",
)


def main(argv: list[str] | None = None) -> int:
    from workloads import POOL_WORKERS

    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed; 0 runs the shipped run seeds")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long to keep timing passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    pool_workers = POOL_WORKERS.get(args.workload, 0) if args.trace else 0
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        if bench.expect.reference is None:
            print(f"no recorded reference for seed {args.seed}: checking structure and determinism only",
                  file=sys.stderr)
        if args.trace:
            values = per_layer(bench, args.seconds, pool_workers)
        else:
            values = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "stamp": {**stamp(), "workers": max(pool_workers, 1), "seed": args.seed},
        "workload": args.workload,
        **bench.raw,
    }))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
