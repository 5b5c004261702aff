"""Experiment files, the multi-variant runner, and the metrics CSV format.

An experiment file is a JSON document naming a dataset, an objective, a
partition, the round-loop knobs, and a list of algorithm variants to run over
a list of seeds.  All variants share the partition seed and the per-seed
device initialisations, so differences between their metric files are due to
the algorithms alone.  Unknown keys anywhere in the document are rejected.

Each variant produces one CSV with columns

    variant,seed,round,mse,accuracy_proxy,uploads_cumulative,p,bound_theorem1,bound_corollary1

where ``p`` is empty for plain averaging and the bound columns are empty
whenever their preconditions do not hold.  A ``summary.json`` with final-round
aggregates is written alongside.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregation import WeightScheme
from .annealing import AnnealConfig
from .bounds import BoundInputs, corollary1_bound, corollary1_constant, measure_bound_inputs, theorem1_bound
from .datasets import load_csv, make_blobs, make_linear_regression
from .objectives import Dataset, Objective, curvature
from .partition import PartitionSpec
from .simulation import ALGORITHMS, RunResult, SimConfig, run
from .training import LrSchedule
from .upload_gate import GateConfig

METRICS_COLUMNS = (
    "variant",
    "seed",
    "round",
    "mse",
    "accuracy_proxy",
    "uploads_cumulative",
    "p",
    "bound_theorem1",
    "bound_corollary1",
)


class ExperimentConfigError(ValueError):
    """The experiment document is malformed; the message names the key."""


@dataclass(frozen=True)
class MetricsRow:
    variant: str
    seed: int
    round: int
    mse: float
    accuracy_proxy: float
    uploads_cumulative: int
    p: float | None
    bound_theorem1: float | None
    bound_corollary1: float | None


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    dataset: Dataset
    objective: Objective
    partition: PartitionSpec
    selected_per_round: int
    rounds: int
    local_epochs: int
    lr: LrSchedule
    anneal: AnnealConfig
    gate: GateConfig | None
    weight_scheme: WeightScheme
    sample_order: str
    local_solver: str
    holdout_fraction: float
    init_scale: float
    early_stop_mse: float | None
    variants: tuple[str, ...]
    seeds: tuple[int, ...]


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ExperimentConfigError(f"missing required key '{key}' in {where}")
    return section[key]


def _section(doc: dict, key: str, default: dict | None = None) -> dict:
    """The sub-object ``doc[key]``, required unless a ``default`` is given."""
    section = _require(doc, key, "experiment") if default is None else doc.get(key, default)
    if not isinstance(section, dict):
        raise ExperimentConfigError(f"section '{key}' must be a JSON object")
    return section


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ExperimentConfigError(f"unknown key '{unknown[0]}' in {where}")


def _build_dataset(section: dict) -> Dataset:
    kind = _require(section, "kind", "data")
    if kind == "linear":
        _check_keys(section, {"kind", "samples", "dim", "feature_scale", "coef_scale", "noise_std", "seed"}, "data")
        return make_linear_regression(
            _require(section, "samples", "data"),
            _require(section, "dim", "data"),
            feature_scale=section.get("feature_scale", 1.0),
            coef_scale=section.get("coef_scale", 1.0),
            noise_std=section.get("noise_std", 0.0),
            seed=section.get("seed", 0),
        )
    if kind == "blobs":
        _check_keys(section, {"kind", "samples", "dim", "classes", "separation", "cluster_std", "seed"}, "data")
        return make_blobs(
            _require(section, "samples", "data"),
            _require(section, "dim", "data"),
            _require(section, "classes", "data"),
            separation=section.get("separation", 2.0),
            cluster_std=section.get("cluster_std", 1.0),
            seed=section.get("seed", 0),
        )
    if kind == "csv":
        _check_keys(section, {"kind", "path", "classes"}, "data")
        return load_csv(_require(section, "path", "data"), n_classes=section.get("classes"))
    raise ExperimentConfigError(f"unknown data kind '{kind}'")


def _build_objective(section: dict, dataset: Dataset) -> Objective:
    kind = _require(section, "kind", "objective")
    _check_keys(section, {"kind", "reg"}, "objective")
    try:
        if kind == "multinomial_logistic":
            if not dataset.is_classification:
                raise ExperimentConfigError("objective 'multinomial_logistic' needs classification data")
            return Objective(kind, dataset.dim, reg=section.get("reg", 0.0), n_classes=dataset.n_classes)
        return Objective(kind, dataset.dim, reg=section.get("reg", 0.0))
    except ValueError as err:
        raise ExperimentConfigError(f"objective: {err}") from err


def _build_weights(value) -> WeightScheme:
    try:
        if isinstance(value, str):
            return WeightScheme(value)
        if isinstance(value, dict):
            _check_keys(value, {"kind", "custom"}, "weights")
            custom = value.get("custom")
            return WeightScheme(_require(value, "kind", "weights"), tuple(custom) if custom else None)
    except ValueError as err:
        raise ExperimentConfigError(f"weights: {err}") from err
    raise ExperimentConfigError("weights must be a scheme name or an object")


TOP_KEYS = {
    "name", "data", "objective", "partition", "n", "s", "T", "E", "lr", "anneal",
    "gate", "weights", "sample_order", "local_solver", "holdout_fraction",
    "init_scale", "early_stop_mse", "variants", "seeds",
}


def load_experiment(path) -> ExperimentSpec:
    """Parse and validate an experiment document."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ExperimentConfigError(f"experiment file is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ExperimentConfigError("experiment document must be a JSON object")
    _check_keys(doc, TOP_KEYS, "experiment")

    dataset = _build_dataset(_section(doc, "data"))
    objective = _build_objective(_section(doc, "objective"), dataset)

    n = _require(doc, "n", "experiment")
    part_section = _section(doc, "partition")
    _check_keys(part_section, {"mean_size", "size_var", "max_labels_per_device", "pure_count", "seed"}, "partition")
    try:
        part = PartitionSpec(
            n=n,
            mean_size=_require(part_section, "mean_size", "partition"),
            size_var=part_section.get("size_var", 0.0),
            max_labels_per_device=part_section.get("max_labels_per_device", 1),
            seed=part_section.get("seed", 0),
            pure_count=part_section.get("pure_count", 0),
        )
    except ValueError as err:
        raise ExperimentConfigError(f"partition: {err}") from err

    lr_section = _section(doc, "lr")
    _check_keys(lr_section, {"kind", "value"}, "lr")
    try:
        lr = LrSchedule(_require(lr_section, "kind", "lr"), _require(lr_section, "value", "lr"))
    except ValueError as err:
        raise ExperimentConfigError(f"lr: {err}") from err

    anneal_section = _section(doc, "anneal", default={})
    _check_keys(anneal_section, {"temperature", "epsilon", "clock", "mask_mode"}, "anneal")
    try:
        anneal = AnnealConfig(
            temperature=anneal_section.get("temperature", 10.0),
            epsilon=anneal_section.get("epsilon", 0.5),
            clock=anneal_section.get("clock", "rounds"),
            mask_mode=anneal_section.get("mask_mode", "per_coordinate"),
        )
    except ValueError as err:
        raise ExperimentConfigError(f"anneal: {err}") from err

    gate = None
    if "gate" in doc:
        gate_section = _section(doc, "gate")
        _check_keys(gate_section, {"gap_scale", "eps_div", "proxy"}, "gate")
        try:
            gate = GateConfig(
                gap_scale=_require(gate_section, "gap_scale", "gate"),
                eps_div=gate_section.get("eps_div", 1e-6),
                proxy=gate_section.get("proxy", "holdout_accuracy" if objective.is_classification else "inverse_risk"),
            )
        except ValueError as err:
            raise ExperimentConfigError(f"gate: {err}") from err

    variants = _require(doc, "variants", "experiment")
    if not variants or not isinstance(variants, list):
        raise ExperimentConfigError("'variants' must be a nonempty list")
    for v in variants:
        if v not in ALGORITHMS:
            raise ExperimentConfigError(f"unknown variant '{v}' (choose from {', '.join(ALGORITHMS)})")
    if len(set(variants)) != len(variants):
        raise ExperimentConfigError("'variants' contains duplicates")
    if "safl_extended" in variants and gate is None:
        raise ExperimentConfigError("variant 'safl_extended' requires a 'gate' section")

    rounds = _require(doc, "T", "experiment")
    if isinstance(rounds, bool) or not isinstance(rounds, int) or rounds < 1:
        raise ExperimentConfigError("'T' must be an integer >= 1")

    seeds = _require(doc, "seeds", "experiment")
    if not seeds or not isinstance(seeds, list) or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds):
        raise ExperimentConfigError("'seeds' must be a nonempty list of integers")

    return ExperimentSpec(
        name=doc.get("name", Path(path).stem),
        dataset=dataset,
        objective=objective,
        partition=part,
        selected_per_round=_require(doc, "s", "experiment"),
        rounds=rounds,
        local_epochs=_require(doc, "E", "experiment"),
        lr=lr,
        anneal=anneal,
        gate=gate,
        weight_scheme=_build_weights(doc.get("weights", "uniform")),
        sample_order=doc.get("sample_order", "iid_draw"),
        local_solver=doc.get("local_solver", "sgd"),
        holdout_fraction=doc.get("holdout_fraction", 0.2),
        init_scale=doc.get("init_scale", 0.1),
        early_stop_mse=doc.get("early_stop_mse"),
        variants=tuple(variants),
        seeds=tuple(seeds),
    )


def sim_config(spec: ExperimentSpec, variant: str, seed: int) -> SimConfig:
    try:
        return SimConfig(
            objective=spec.objective,
            partition=spec.partition,
            selected_per_round=spec.selected_per_round,
            rounds=spec.rounds,
            local_epochs=spec.local_epochs,
            algorithm=variant,
            anneal=spec.anneal,
            gate=spec.gate,
            weight_scheme=spec.weight_scheme,
            lr=spec.lr,
            seed=seed,
            sample_order=spec.sample_order,
            local_solver=spec.local_solver,
            holdout_fraction=spec.holdout_fraction,
            init_scale=spec.init_scale,
            early_stop_mse=spec.early_stop_mse,
        )
    except ValueError as err:
        raise ExperimentConfigError(str(err)) from err


def _static_etas(spec: ExperimentSpec, result: RunResult) -> np.ndarray | None:
    if spec.weight_scheme.kind == "uniform":
        return np.full(spec.partition.n, 1.0 / spec.partition.n)
    if spec.weight_scheme.kind == "size_proportional":
        sizes = np.array([float(d.full_size) for d in result.devices])
        return sizes / sizes.sum()
    if spec.weight_scheme.kind == "custom":
        raw = np.asarray(spec.weight_scheme.custom, dtype=np.float64)
        return raw / raw.sum()
    return None  # ida weights vary per round; no static eta vector exists


def _bound_columns(spec: ExperimentSpec, result: RunResult) -> tuple[list, list]:
    """Per-round bound values, or Nones when the preconditions are unmet."""
    rounds = len(result.records)
    empty = [None] * rounds
    if spec.local_solver != "sgd" or not spec.objective.is_smooth:
        return empty, empty
    if spec.selected_per_round != spec.partition.n:
        return empty, empty
    etas = _static_etas(spec, result)
    if etas is None:
        return empty, empty

    shards = [d.shard for d in result.devices]
    q_local = spec.local_epochs * max(len(s) for s in shards)
    theorem1_col: list = empty
    corollary1_col: list = empty
    if spec.lr.kind == "constant":
        try:
            inputs = measure_bound_inputs(
                spec.objective, shards, result.init_params, result.w_star, etas,
                alpha=spec.lr.value, epsilon=spec.anneal.epsilon, local_iterations=q_local,
            )
            theorem1_col = [theorem1_bound(inputs, r.round_index) for r in result.records]
        except ValueError:
            pass
    else:
        try:
            curvatures = [curvature(spec.objective, s) for s in shards]
            mu = min(c.mu for c in curvatures)
            sigma_sq_max = max(c.sigma_sq for c in curvatures)
            zeta = float(((result.init_params - result.w_star) ** 2).sum(axis=1).max())
            c0 = corollary1_constant(spec.lr.value, mu, sigma_sq_max, zeta)
            corollary1_col = [corollary1_bound(c0, r.round_index) for r in result.records]
        except ValueError:
            pass
    return theorem1_col, corollary1_col


def rows_for_run(spec: ExperimentSpec, variant: str, seed: int, result: RunResult) -> list[MetricsRow]:
    theorem1_col, corollary1_col = _bound_columns(spec, result)
    rows = []
    cumulative = 0
    for i, rec in enumerate(result.records):
        cumulative += rec.uploads
        rows.append(
            MetricsRow(
                variant=variant,
                seed=seed,
                round=rec.round_index,
                mse=rec.mse,
                accuracy_proxy=rec.accuracy,
                uploads_cumulative=cumulative,
                p=rec.selection_prob,
                bound_theorem1=theorem1_col[i],
                bound_corollary1=corollary1_col[i],
            )
        )
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def emit_metrics_csv(rows: list[MetricsRow], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(METRICS_COLUMNS) + "\n")
        for r in rows:
            fh.write(
                f"{r.variant},{r.seed},{r.round},{_fmt(r.mse)},{_fmt(r.accuracy_proxy)},"
                f"{r.uploads_cumulative},{_fmt(r.p)},{_fmt(r.bound_theorem1)},{_fmt(r.bound_corollary1)}\n"
            )


def parse_metrics_csv(path) -> list[MetricsRow]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header.split(",") != list(METRICS_COLUMNS):
            raise ValueError(f"{path}: unexpected metrics header")
        rows = []
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(METRICS_COLUMNS):
                raise ValueError(f"{path}: malformed metrics row")
            rows.append(
                MetricsRow(
                    variant=parts[0],
                    seed=int(parts[1]),
                    round=int(parts[2]),
                    mse=float(parts[3]),
                    accuracy_proxy=float(parts[4]),
                    uploads_cumulative=int(parts[5]),
                    p=float(parts[6]) if parts[6] else None,
                    bound_theorem1=float(parts[7]) if parts[7] else None,
                    bound_corollary1=float(parts[8]) if parts[8] else None,
                )
            )
    return rows


def execute(
    spec: ExperimentSpec,
    out_dir,
    *,
    seed_override: int | None = None,
    variants_filter: list[str] | None = None,
    quiet: bool = False,
) -> dict[str, Path]:
    """Run every (variant, seed) pair and write per-variant CSVs plus a summary.

    Returns the mapping from variant name to its metrics file.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    variants = list(spec.variants)
    if variants_filter:
        unknown = [v for v in variants_filter if v not in variants]
        if unknown:
            raise ExperimentConfigError(f"variant '{unknown[0]}' not declared in the experiment file")
        variants = [v for v in variants if v in variants_filter]
    seeds = [seed_override] if seed_override is not None else list(spec.seeds)

    # a job's RunResult is dropped once its rows are built, so no two jobs'
    # device states are alive at once
    by_job = {
        (variant, seed): rows_for_run(spec, variant, seed, run(sim_config(spec, variant, seed), dataset=spec.dataset))
        for variant in variants
        for seed in seeds
    }

    paths: dict[str, Path] = {}
    summary: dict = {"experiment": spec.name, "variants": {}}
    for variant in variants:
        rows: list[MetricsRow] = []
        for seed in seeds:
            rows.extend(by_job[(variant, seed)])
        path = out / f"{variant}.csv"
        emit_metrics_csv(rows, path)
        paths[variant] = path

        finals = [by_job[(variant, seed)][-1] for seed in seeds]
        mse_values = [r.mse for r in finals]
        acc_values = [r.accuracy_proxy for r in finals]
        summary["variants"][variant] = {
            "seeds": len(seeds),
            "final_round": max(r.round for r in finals),
            "final_mse_mean": statistics.fmean(mse_values),
            "final_mse_stderr": (statistics.stdev(mse_values) / math.sqrt(len(mse_values)) if len(mse_values) > 1 else 0.0),
            "final_accuracy_mean": statistics.fmean(acc_values),
            "uploads_total_mean": statistics.fmean([r.uploads_cumulative for r in finals]),
        }
        if not quiet:
            s = summary["variants"][variant]
            print(f"{variant}: final mse {s['final_mse_mean']:.6g} over {len(seeds)} seed(s) -> {path}")

    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def _series_by_variant(rows: list[MetricsRow]) -> dict[str, dict[int, list[MetricsRow]]]:
    grouped: dict[str, dict[int, list[MetricsRow]]] = {}
    for r in rows:
        grouped.setdefault(r.variant, {}).setdefault(r.round, []).append(r)
    return grouped


def compare(paths: list, mse_threshold: float | None = None, stream=None) -> None:
    """Print per-round mean and standard error of the metrics in each file,
    the difference against the first file, and rounds-to-threshold stats."""
    import sys

    stream = stream or sys.stdout
    if len(paths) < 2:
        raise ValueError("compare needs at least two metrics files")
    tables = []
    for path in paths:
        grouped = _series_by_variant(parse_metrics_csv(path))
        for variant, by_round in grouped.items():
            tables.append((variant, by_round))
    base_rounds = sorted(tables[0][1])
    for variant, by_round in tables[1:]:
        if sorted(by_round) != base_rounds:
            raise ValueError(f"variant '{variant}' has an incompatible round grid")

    sample = base_rounds[:: max(len(base_rounds) // 10, 1)]
    if base_rounds[-1] not in sample:
        sample.append(base_rounds[-1])

    def stats(rows):
        mses = [r.mse for r in rows]
        accs = [r.accuracy_proxy for r in rows]
        n = len(mses)
        se = statistics.stdev(mses) / math.sqrt(n) if n > 1 else 0.0
        return statistics.fmean(mses), se, statistics.fmean(accs)

    base_name = tables[0][0]
    print(f"{'variant':<16}{'round':>8}{'mse':>14}{'stderr':>12}{'accuracy':>12}{'d_mse_vs_' + base_name:>20}", file=stream)
    base_means = {r: stats(tables[0][1][r])[0] for r in sample}
    for variant, by_round in tables:
        for r in sample:
            mean, se, acc = stats(by_round[r])
            delta = mean - base_means[r]
            print(f"{variant:<16}{r:>8}{mean:>14.6g}{se:>12.3g}{acc:>12.4f}{delta:>20.6g}", file=stream)

    if mse_threshold is not None:
        print(f"\nrounds to mse <= {mse_threshold:g}:", file=stream)
        for variant, by_round in tables:
            per_seed: dict[int, int | None] = {}
            for r in sorted(by_round):
                for row in by_round[r]:
                    if row.seed not in per_seed and row.mse <= mse_threshold:
                        per_seed[row.seed] = r
            seeds = {row.seed for rows in by_round.values() for row in rows}
            reached = sorted(v for v in per_seed.values() if v is not None)
            missing = len(seeds) - len(reached)
            if reached:
                med = statistics.median(reached)
                print(f"  {variant}: median {med:g} (min {reached[0]}, max {reached[-1]}, unreached {missing})", file=stream)
            else:
                print(f"  {variant}: never reached", file=stream)
