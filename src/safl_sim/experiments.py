"""Experiment files, the multi-variant runner, and the metrics CSV format.

An experiment file is a JSON document naming a dataset, an objective, a
partition, the round-loop knobs, and a list of algorithm variants to run over
a list of seeds.  All variants share the partition seed and the per-seed
device initialisations, so differences between their metric files are due to
the algorithms alone.  Unknown keys anywhere in the document are rejected.

Each variant produces one CSV with a row per (seed, round); its columns are
the fields of ``MetricsRow``, in order.  A ``summary.json`` with final-round
aggregates is written alongside.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import re
import statistics
import typing
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .aggregation import WeightScheme, weights
from .annealing import AnnealConfig
from .bounds import (
    check_decaying_step,
    corollary1_bound,
    corollary1_constant,
    hessian_range,
    initial_spread,
    measure_bound_inputs,
    theorem1_bound,
)
from .datasets import load_csv, make_blobs, make_linear_regression
from .objectives import ConvergenceError, Dataset, Objective, curvature
from .partition import PartitionSpec, check_fits, holdout_sizes
from .simulation import RULES, PreparedProblem, RunResult, SimConfig, prepare, run_jobs
from .simulation import run  # noqa: F401  (perfbench/layers.py wraps experiments.run)
from .training import LrSchedule
from .upload_gate import GateConfig


class ExperimentConfigError(ValueError):
    """The experiment document is malformed; the message names the key."""


# Every job keeps one metrics row per round until its variant's CSV is
# written, and a row costs about 0.9 KB of peak resident memory by then
# (0.87 to 0.92 KB per row from T = 4000 to 32000 on the demo's 10 jobs), so
# T times the job count is capped at this many rows, about 2 GB: a larger
# document (T = 10**30 would run without end) is refused on load.
MAX_RECORDS = 2**21

# The kernel gathers one round's samples of every job in lockstep as a step
# table that pads every selected shard's stream to the longest, so a round
# holds up to E times s times the longest training shard times the job count
# entries, capped at this many: above it the table alone takes gigabytes (E
# near 1e9 on the demo asks for terabytes), and a document that reaches it
# is rejected on load.
MAX_ROUND_STEPS = 2**24

# A generated dataset holds samples times dim features (blobs also draws
# classes times dim centres).  Each round the kernel gathers its step table's
# samples, as float64 arrays of entries times dim features, and a logistic
# step's one-hot targets, of entries times classes; set-up gathers the pooled
# training and eval sets, rows times dim, stacks every job's device
# parameters, jobs times n times the parameter count, and the pooled solve
# and the step-size bounds form X'X, dim times dim; a logistic round's metric
# forms jobs times classes logits over the distinct pooled training rows.  A
# document that would need more than MAX_BYTES (1 GiB) for any one of them,
# or for the random generators that set-up builds before round 1
# (GENERATOR_BYTES each, measured with tracemalloc under numpy 2.4), is
# refused on load, before anything is allocated.
MAX_BYTES = 2**30
MAX_FLOATS = MAX_BYTES // 8
GENERATOR_BYTES = 745


class MetricsRow(typing.NamedTuple):
    """One row of a metrics CSV.  The fields, in order, are its columns, and
    each field's type is how the column is written and read: a float as
    ``.17g``, an int or a string as itself, and None as the empty field.

    ``p`` is None for plain averaging; a bound is None whenever its
    preconditions do not hold.  A tuple, so that a job's rows are built
    and written column by column."""

    variant: str
    seed: int
    round: int
    mse: float
    accuracy_proxy: float
    uploads_cumulative: int
    p: float | None
    bound_theorem1: float | None = None
    bound_corollary1: float | None = None


METRICS_COLUMNS = MetricsRow._fields


# (type, optional) of each column, from its annotation: an optional column's
# arguments are (type, NoneType)
_COLUMN_TYPES = tuple(
    ((typing.get_args(hint) or (hint,))[0], type(None) in typing.get_args(hint))
    for hint in typing.get_type_hints(MetricsRow).values()
)
# the columns that a row leaves None unless their bound applies
_BOUND_COLUMNS = tuple(MetricsRow._field_defaults)


@dataclass(frozen=True)
class ExperimentSpec:
    """A loaded document: the data, the settings every job shares, and the
    (variant, seed) grid of the jobs that run, the document's own narrowed by
    any ``variants`` and ``seed_override`` given to ``load_experiment``.
    ``config`` carries ``variants[0]`` and ``seeds[0]``; ``sim_config`` swaps
    in each job's own."""

    name: str
    dataset: Dataset
    config: SimConfig
    variants: tuple[str, ...]
    seeds: tuple[int, ...]


_REQUIRED = object()
_KINDS = {"int": "an integer", "float": "a finite number", "str": "a string", "dict": "a JSON object", "list": "a nonempty list"}
_JSON_TYPES = {"str": str, "dict": dict, "list": list}
# SimConfig fields that the document names otherwise (s, T and E are the paper's symbols)
_DOC_KEYS = {
    "selected_per_round": "s", "rounds": "T", "local_epochs": "E",
    "weight_scheme": "weights", "algorithm": "variants", "seed": "seeds",
}


def _typed(value, kind: str, name: str):
    """``value`` if it has JSON type ``kind``, a key of ``_KINDS`` or one with
    ``" | None"`` appended to also accept null.  An int is not a bool or a
    float; a float accepts an int, is returned as float and must be finite."""
    if value is None and kind.endswith(" | None"):
        return None
    kind = kind.removesuffix(" | None")
    if kind == "float" and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if math.isfinite(value):
            return value
    elif kind == "int" and isinstance(value, int) and not isinstance(value, bool):
        return value
    elif kind in _JSON_TYPES and isinstance(value, _JSON_TYPES[kind]) and (value or kind != "list"):
        return value
    raise ExperimentConfigError(f"{name} must be {_KINDS[kind]}")


def _read(section: dict, where: str, key: str, kind: str, default=_REQUIRED):
    """``section[key]`` of JSON type ``kind``, or ``default`` when the key is absent."""
    if key not in section:
        if default is _REQUIRED:
            raise ExperimentConfigError(f"{where}: missing required key '{key}'")
        return default
    return _typed(section[key], kind, f"{where}: '{key}'")


def _read_list(section: dict, where: str, key: str, kind: str) -> tuple:
    """``section[key]``: a nonempty list whose entries have JSON type ``kind``."""
    return tuple(_typed(v, kind, f"{where}: each entry of '{key}'") for v in _read(section, where, key, "list"))


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ExperimentConfigError(f"{where}: unknown key '{unknown[0]}'")


def _owned(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``.  The range checks belong to ``build``; a
    ValueError from them, or a MemoryError from sizes too large to
    allocate, becomes a config error naming ``where``."""
    try:
        return build(*args, **kwargs)
    except (ValueError, MemoryError) as err:
        raise ExperimentConfigError(f"{where}: {err}") from err


@functools.cache  # a handful of module-level callables; inspect is slow
def _parameters(build) -> dict[str, inspect.Parameter]:
    return dict(inspect.signature(build).parameters)


def _call(build, section: dict, where: str, fixed: dict | None = None):
    """``build`` called with the keys of ``section``.

    The keys are the parameters of ``build`` outside ``fixed``, each of the
    JSON type that its annotation names.  A key left out takes the
    parameter's own default, so each default has one owner.
    """
    values = dict(fixed or {})
    params = {name: p for name, p in _parameters(build).items() if name not in values}
    _check_keys(section, set(params), where)
    for name, param in params.items():
        if name in section or param.default is param.empty:
            values[name] = _read(section, where, name, param.annotation)
    return _owned(where, build, **values)


DATA_GENERATORS = {"linear": make_linear_regression, "blobs": make_blobs}


def _build_dataset(section: dict) -> Dataset:
    kind = _read(section, "data", "kind", "str")
    params = {k: v for k, v in section.items() if k != "kind"}
    if kind in DATA_GENERATORS:
        generate = DATA_GENERATORS[kind]
        _check_keys(params, set(_parameters(generate)), "data")
        # the generated arrays are counted before the generator draws them
        samples, dim = _read(params, "data", "samples", "int"), _read(params, "data", "dim", "int")
        counts = [("samples", samples, "rows")]
        if "classes" in _parameters(generate):
            counts.append(("classes", _read(params, "data", "classes", "int"), "class centres"))
        for key, count, what in counts:
            if min(count, dim) > 0 and count * dim > MAX_FLOATS:  # a count below 1 is the generator's to refuse
                raise ExperimentConfigError(
                    f"data: '{key}' = {count} gives {_rough(count)} {what} of dim {dim} features, "
                    f"{_rough(count * dim)} floats, above the limit of {MAX_FLOATS}"
                )
        return _call(generate, params, "data")
    if kind != "csv":
        raise ExperimentConfigError(f"data: unknown kind '{kind}'")
    _check_keys(params, {"path", "classes"}, "data")
    path = _read(params, "data", "path", "str")
    return _owned(f"data: 'path' ({path})", load_csv, path, n_classes=_read(params, "data", "classes", "int | None", None))


def _build_weights(doc: dict) -> WeightScheme:
    value = doc.get("weights", "uniform")
    if isinstance(value, str):
        return _owned("weights", WeightScheme, value)
    section = _read(doc, "experiment", "weights", "dict")
    _check_keys(section, {"kind", "custom"}, "weights")
    custom = _read_list(section, "weights", "custom", "float") if "custom" in section else None
    return _owned("weights", WeightScheme, _read(section, "weights", "kind", "str"), custom)


# the document key of each SimConfig field, which its errors may name
_ERROR_KEYS = {f.name: _DOC_KEYS.get(f.name, f.name) for f in fields(SimConfig)}
TOP_KEYS = {"name", "data", "n", *_ERROR_KEYS.values()}  # n and the data fill the partition
# top-level keys named after the SimConfig field they set, read by JSON type alone
SIM_FIELDS = tuple(f.name for f in fields(SimConfig) if f.name not in _DOC_KEYS and f.type.removesuffix(" | None") in _KINDS)


def load_experiment(path, *, variants=None, seed_override=None) -> ExperimentSpec:
    """Parse and validate an experiment document, and settle the jobs that run.

    ``variants`` (a subset of the document's, kept in its order) and
    ``seed_override`` (one seed for the document's list) narrow the grid
    after the whole document is validated and before the limits on metrics
    rows and round steps are checked against the jobs that will run.  The
    limits that need no shard size run first; only then are the sizes
    drawn (``check_fits``) for the limits that read them.

    Every check runs here, so a document that loads runs to completion or
    stops on runtime divergence, unless an optimum solve reaches its
    iteration cap, which ``execute`` reports as a config error naming the
    objective.  Types are checked as each key is read;
    ranges by the dataclass that owns the value; what needs the dataset or
    the job grid, here.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ExperimentConfigError(f"experiment file is not valid UTF-8 JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ExperimentConfigError("experiment document must be a JSON object")
    _check_keys(doc, TOP_KEYS, "experiment")

    def top(key, kind, default=_REQUIRED):
        return _read(doc, "experiment", key, kind, default)

    dataset = _build_dataset(top("data", "dict"))

    section = top("objective", "dict")
    kind = _read(section, "objective", "kind", "str")
    if kind == "multinomial_logistic" and not dataset.is_classification:
        raise ExperimentConfigError("objective: 'multinomial_logistic' needs classification data")
    n_classes = dataset.n_classes if kind == "multinomial_logistic" else None
    objective = _call(Objective, section, "objective", {"dim": dataset.dim, "n_classes": n_classes})

    part = _call(PartitionSpec, top("partition", "dict"), "partition", {"n": top("n", "int")})

    gate = _call(GateConfig, top("gate", "dict"), "gate") if "gate" in doc else None

    declared = _read_list(doc, "experiment", "variants", "str")
    seeds = _read_list(doc, "experiment", "seeds", "int")
    for key, values in (("variants", declared), ("seeds", seeds)):
        if len(set(values)) != len(values):  # a repeated job would write its rows twice
            raise ExperimentConfigError(f"experiment: '{key}' contains duplicates")
    rounds = top("T", "int")
    if rounds < 1:  # SimConfig allows 0; the summary needs a final round
        raise ExperimentConfigError("experiment: 'T' must be >= 1")

    settings = dict(
        objective=objective,
        partition=part,
        selected_per_round=top("s", "int"),
        rounds=rounds,
        local_epochs=top("E", "int"),
        anneal=_call(AnnealConfig, top("anneal", "dict", {}), "anneal"),
        gate=gate,
        weight_scheme=_build_weights(doc),
        lr=_call(LrSchedule, top("lr", "dict"), "lr"),
    )
    settings.update({f.name: top(f.name, f.type) for f in fields(SimConfig) if f.name in SIM_FIELDS and f.name in doc})
    # SimConfig reads a seed only through seed >= 0, so a variant's first
    # seed and its first negative one raise the first error of its jobs in
    # order; every declared variant is checked, whatever the CLI narrows
    probes = dict.fromkeys((seeds[0], next((seed for seed in seeds if seed < 0), seeds[0])))
    try:
        for variant, seed in itertools.product(declared, probes):
            SimConfig(**settings, algorithm=variant, seed=seed)
    except ValueError as err:
        message = re.sub(r"\b(" + "|".join(_ERROR_KEYS) + r")\b", lambda m: f"'{_ERROR_KEYS[m[1]]}'", str(err))
        raise ExperimentConfigError(f"experiment: {message}") from err

    if variants is not None:
        if not variants:
            raise ExperimentConfigError("--variants names no variant")
        unknown = [v for v in variants if v not in declared]
        if unknown:
            raise ExperimentConfigError(f"variant '{unknown[0]}' not declared in the experiment file")
    variants = declared if variants is None else tuple(v for v in declared if v in variants)
    if seed_override is not None:
        seeds = (seed_override,)
    # every declared job's checks ran above, so only an overriding seed can fail here
    config = _owned("--seed-override", SimConfig, **settings, algorithm=variants[0], seed=seeds[0])
    jobs = len(variants) * len(seeds)
    if rounds * jobs > MAX_RECORDS:
        raise ExperimentConfigError(
            f"experiment: 'T' = {rounds} gives {_rough(rounds * jobs)} metrics rows (T times {jobs} jobs, "
            f"{len(variants)} variants times {len(seeds)} seeds), above the limit of {MAX_RECORDS}"
        )
    stack = jobs * config.n * objective.param_dim
    if stack > MAX_FLOATS:
        raise ExperimentConfigError(
            f"experiment: 'seeds' = {len(seeds)} gives a parameter stack of {_rough(stack)} floats ({jobs} jobs, "
            f"{len(variants)} variants times {len(seeds)} seeds, times n = {config.n} devices times "
            f"{objective.param_dim} parameters), above the limit of {MAX_FLOATS}"
        )
    # each seed builds one generator per device per stream its lead draws
    streams = 2 + max(sum(RULES[variant]) for variant in variants)
    generators = len(seeds) * config.n * streams
    if generators * GENERATOR_BYTES > MAX_BYTES:
        raise ExperimentConfigError(
            f"experiment: 'seeds' = {len(seeds)} gives {_rough(generators)} random generators before round 1 "
            f"({len(seeds)} seeds times n = {config.n} devices times {streams} streams), "
            f"{_rough(generators * GENERATOR_BYTES)} bytes at {GENERATOR_BYTES} each, above the limit of {MAX_BYTES}"
        )
    # every limit above reads only the job grid and n; the shard sizes are
    # drawn once those hold, for the limits that read them
    sizes, dim = _owned("partition", check_fits, dataset, part), dataset.dim
    holds = holdout_sizes(sizes, config.holdout_fraction)
    if config.local_solver == "sgd":
        longest = int((sizes - holds).max())
        steps = config.local_epochs * config.selected_per_round * longest * jobs
        classes = objective.n_classes or 0
        width, what = (dim, f"dim {dim} features") if dim >= classes else (classes, f"{classes} one-hot targets")
        if steps > MAX_ROUND_STEPS or steps * width > MAX_FLOATS:
            raise ExperimentConfigError(
                f"experiment: 'E' = {config.local_epochs} gives a round a step table of {_rough(steps)} entries "
                f"(E times s = {config.selected_per_round} times the longest training shard, {longest} samples, "
                f"times the job count, {jobs}, as the jobs train in lockstep) of {what} each, "
                f"{_rough(steps * width)} floats, above the limit of {MAX_ROUND_STEPS} entries or {MAX_FLOATS} floats"
            )
    # every drawn row once; unless no device holds out, the eval set holds
    # again the training rows of each device with an empty holdout
    rows = int(sizes.sum()) + (int(sizes[holds == 0].sum()) if holds.any() else 0)
    if rows * dim > MAX_FLOATS:
        raise ExperimentConfigError(
            f"partition: the pooled training and eval sets hold {_rough(rows)} rows of dim {dim} features, "
            f"{_rough(rows * dim)} floats, above the limit of {MAX_FLOATS}"
        )
    # ridge's pooled solve and the logistic step size always form X'X, and
    # least squares does for the bound columns, which assemble under SGD at s = n
    bounded = config.local_solver == "sgd" and config.selected_per_round == config.n
    if dim * dim > MAX_FLOATS and (objective.kind in ("ridge", "multinomial_logistic") or bounded):
        raise ExperimentConfigError(
            f"data: dim {dim} gives {objective.kind}'s set-up a {dim} x {dim} matrix (X'X), "
            f"{_rough(dim * dim)} floats, above the limit of {MAX_FLOATS}"
        )
    if objective.kind == "multinomial_logistic":
        # each round's accuracy proxy scores every job's estimate over the
        # distinct pooled training rows, of which there are at most as many
        # as either pooled training rows or dataset rows
        distinct = min(int((sizes - holds).sum()), len(dataset))
        logits = jobs * objective.n_classes * distinct
        if logits > MAX_FLOATS:
            raise ExperimentConfigError(
                f"experiment: 'seeds' = {len(seeds)} gives the round metric a logit table of {_rough(logits)} floats "
                f"({jobs} jobs, {len(variants)} variants times {len(seeds)} seeds, times {objective.n_classes} classes "
                f"times {distinct} distinct training rows at most), above the limit of {MAX_FLOATS}"
            )
    return ExperimentSpec(top("name", "str", Path(path).stem), dataset, config, variants, seeds)


def _rough(count: int) -> str:
    """``count`` to three significant figures, or in full beyond the float range."""
    return f"{count:.3g}" if count < 1e308 else str(count)


def sim_config(spec: ExperimentSpec, variant: str, seed: int) -> SimConfig:
    return replace(spec.config, algorithm=variant, seed=seed)


# a bound column's name -> (a job's initial spread zeta -> (round t -> its bound))
BoundColumns = dict[str, Callable[[float], Callable[[int], float]]]


def _shared_bounds(config: SimConfig, problem: PreparedProblem) -> BoundColumns:
    """The bound columns whose preconditions hold, with the inputs that every
    job of the experiment shares; a job adds only its own zeta.

    The step-size preconditions need only the Hessian bounds, so they are
    checked before any shard's sigma_sq (for logistic, an iterative solve).
    """
    if config.local_solver != "sgd" or config.selected_per_round != config.n:
        return {}

    obj = config.objective
    etas = weights(config.weight_scheme, np.arange(config.n), problem.sizes)
    shards = [problem.train.dataset(k) for k in range(config.n)]
    try:
        if config.lr.kind == "constant":
            # measured at zeta = 0; each job replaces it with its own
            inputs = measure_bound_inputs(
                obj, shards, problem.w_star[None], problem.w_star, etas,
                alpha=config.lr.value, epsilon=config.anneal.epsilon,
                local_iterations=config.local_epochs * max(len(s) for s in shards),
            )
            return {"bound_theorem1": lambda zeta: functools.partial(theorem1_bound, replace(inputs, zeta=zeta))}
        mu, _ = hessian_range(obj, shards)
        check_decaying_step(config.lr.value, mu)
        sigma_sq_max = max(curvature(obj, s).sigma_sq for s in shards)
        return {
            "bound_corollary1": lambda zeta: functools.partial(
                corollary1_bound, corollary1_constant(config.lr.value, mu, sigma_sq_max, zeta)
            )
        }
    except ValueError:
        return {}


def rows_for_run(
    spec: ExperimentSpec, variant: str, seed: int, result: RunResult, bounds: BoundColumns
) -> list[MetricsRow]:
    """The job's metrics rows, one per record; ``bounds`` comes from ``_shared_bounds``.

    The rows are built column by column from the records' columns, and a
    bound column calls its bound once per round."""
    zeta = initial_spread(result.init_params, result.w_star)
    try:
        bound_at = {column: at_spread(zeta) for column, at_spread in bounds.items()}
    except ValueError:  # a zeta beyond the float range
        bound_at = {}
    rounds, mse, accuracy, uploads, probs, _ = zip(*result.records)
    bound_columns = [
        [bound_at[column](t) for t in rounds] if column in bound_at else itertools.repeat(None)
        for column in _BOUND_COLUMNS
    ]
    columns = (rounds, mse, accuracy, itertools.accumulate(uploads), probs, *bound_columns)
    return list(map(MetricsRow, itertools.repeat(variant), itertools.repeat(seed), *columns))


def emit_metrics_csv(rows: list[MetricsRow], path) -> None:
    specs = [".17g" if kind is float else "" for kind, _ in _COLUMN_TYPES]
    columns = [["" if v is None else format(v, spec) for v in values] for values, spec in zip(zip(*rows), specs)]
    lines = [",".join(METRICS_COLUMNS), *map(",".join, zip(*columns))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_metrics_csv(path) -> list[MetricsRow]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header.split(",") != list(METRICS_COLUMNS):
            raise ValueError(f"{path}: unexpected metrics header")
        rows, keys = [], set()
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(METRICS_COLUMNS):
                raise ValueError(f"{path}: malformed metrics row")
            cells = zip(parts, _COLUMN_TYPES)
            row = MetricsRow(*(None if optional and not text else kind(text) for text, (kind, optional) in cells))
            if row[:3] in keys:
                raise ValueError(f"{path}: repeated metrics row for (variant, seed, round) = {row[:3]}")
            keys.add(row[:3])
            rows.append(row)
    return rows


def execute(spec: ExperimentSpec, out_dir, *, quiet: bool = False) -> dict[str, Path]:
    """Run every (variant, seed) job that ``spec`` holds and write per-variant
    CSVs plus a summary.

    Returns the mapping from variant name to its metrics file.  An optimum
    that its solver cannot reach within its iteration cap (``ConvergenceError``)
    is an ``ExperimentConfigError`` naming the objective.
    """
    variants, seeds = spec.variants, spec.seeds
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # the jobs differ only in algorithm and run seed, so they share one
    # read-only problem and its bound inputs, and advance in lockstep
    jobs = [(variant, seed) for variant in variants for seed in seeds]
    try:  # each may solve optima: the pooled one, the bounds' and the oracle solver's
        problem = prepare(spec.config, spec.dataset)
        bounds = _shared_bounds(spec.config, problem)
        results = run_jobs([sim_config(spec, *job) for job in jobs], problem)
    except ConvergenceError as err:
        raise ExperimentConfigError(f"objective: no optimum within the solver's iteration cap: {err}") from err
    by_job = {job: rows_for_run(spec, *job, result, bounds) for job, result in zip(jobs, results)}

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
        mse_mean, mse_stderr, accuracy_mean = _row_stats(finals)
        summary["variants"][variant] = {
            "seeds": len(seeds),
            "final_round": max(r.round for r in finals),
            "final_mse_mean": mse_mean,
            "final_mse_stderr": mse_stderr,
            "final_accuracy_mean": accuracy_mean,
            "uploads_total_mean": statistics.fmean([r.uploads_cumulative for r in finals]),
        }
        if not quiet:
            s = summary["variants"][variant]
            print(f"{variant}: final mse {s['final_mse_mean']:.6g} over {len(seeds)} seed(s) -> {path}")

    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def _stderr(values: list[float]) -> float:
    """The standard error of the mean of ``values``, 0 for a single value."""
    return statistics.stdev(values) / math.sqrt(len(values)) if len(values) > 1 else 0.0


def _row_stats(rows: list[MetricsRow]) -> tuple[float, float, float]:
    """The mse mean, the mse standard error and the mean accuracy of ``rows``."""
    mses = [r.mse for r in rows]
    return statistics.fmean(mses), _stderr(mses), statistics.fmean([r.accuracy_proxy for r in rows])


def _sign_test(wins: int, losses: int) -> float:
    """The two-sided exact sign test's p-value of ``wins`` against ``losses``, ties dropped."""
    trials = wins + losses
    tail = sum(math.comb(trials, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**trials)


def compare(paths: list, mse_threshold: float | None = None, stream=None) -> None:
    """Print per-round mean and standard error of the metrics in each file,
    the difference against the first file, then each file's final-round
    difference paired by seed against the first (its mean, paired stderr,
    wins and losses, where a win is a lower mse, and sign test), and
    rounds-to-threshold stats.

    Each variant of each file is read as its seeds' trajectories, seed ->
    round -> row."""
    import sys

    stream = stream or sys.stdout
    if len(paths) < 2:
        raise ValueError("compare needs at least two metrics files")
    tables = []
    for path in paths:
        rows = parse_metrics_csv(path)
        if not rows:
            raise ValueError(f"{path}: no metrics rows")
        by_variant: dict[str, dict[int, dict[int, MetricsRow]]] = {}
        for r in rows:
            by_variant.setdefault(r.variant, {}).setdefault(r.seed, {})[r.round] = r
        tables.extend(by_variant.items())
    trajectories = [t for _, seeds in tables for t in seeds.values()]
    grid = set().union(*tables[0][1].values())
    for variant, seeds in tables[1:]:
        if set().union(*seeds.values()) != grid:
            raise ValueError(f"variant '{variant}' has an incompatible round grid")

    # a round that some seed of some file stopped before (early_stop_mse)
    # would average over the survivors only, so the table leaves it out
    rounds = sorted(set(trajectories[0]).intersection(*trajectories))
    if not rounds:
        raise ValueError("no round was reached by every seed")
    sample = rounds[:: max(len(rounds) // 10, 1)]
    if rounds[-1] not in sample:
        sample.append(rounds[-1])

    base_name, base = tables[0]
    print(f"{'variant':<16}{'round':>8}{'mse':>14}{'stderr':>12}{'accuracy':>12}{'d_mse_vs_' + base_name:>20}", file=stream)
    stats = [[_row_stats([t[r] for t in seeds.values()]) for r in sample] for _, seeds in tables]
    for (variant, _), table in zip(tables, stats):
        for r, (mean, se, acc), (base_mean, _, _) in zip(sample, table, stats[0]):
            print(f"{variant:<16}{r:>8}{mean:>14.6g}{se:>12.3g}{acc:>12.4f}{mean - base_mean:>20.6g}", file=stream)
    # variants share each seed's random numbers, so a seed's difference
    # against the first file is far less noisy than the difference of means
    last = rounds[-1]
    for variant, seeds in tables[1:]:
        diffs = [t[last].mse - base[seed][last].mse for seed, t in seeds.items() if seed in base]
        if not diffs:
            print(f"{variant:<16}{last:>8}  paired vs {base_name}: no shared seed", file=stream)
            continue
        wins, losses = sum(d < 0 for d in diffs), sum(d > 0 for d in diffs)
        print(
            f"{variant:<16}{last:>8}  paired vs {base_name} over {len(diffs)} seeds: wins {wins}, losses {losses},"
            f" sign test p {_sign_test(wins, losses):.3g}, stderr {_stderr(diffs):.3g}, d_mse {statistics.fmean(diffs):.6g}",
            file=stream,
        )

    if mse_threshold is not None:
        print(f"\nrounds to mse <= {mse_threshold:g}:", file=stream)
        for variant, seeds in tables:
            # each seed's first round at or below the threshold
            hits = ([r for r, row in t.items() if row.mse <= mse_threshold] for t in seeds.values())
            reached = sorted(min(h) for h in hits if h)
            missing = len(seeds) - len(reached)
            if reached:
                med = statistics.median(reached)
                print(f"  {variant}: median {med:g} (min {reached[0]}, max {reached[-1]}, unreached {missing})", file=stream)
            else:
                print(f"  {variant}: never reached", file=stream)
