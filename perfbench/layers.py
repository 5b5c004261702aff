"""Where the tracer wraps the simulator: one entry per (module, name) that a
caller resolves at call time, each mapped to a ``layer.function`` span name.

Only public functions are wrapped, at the module that calls them, so the
package itself carries no timer.  A wrap site that no longer exists would
leave its layer reading zero, so ``missing_sites`` names them and the traced
run fails on any; a refactor that renames or removes one updates ``SITES``.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager

from spans import Tracer


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _run_job(args, kwargs):
    config = _arg(args, kwargs, 0, "config")
    return (config.algorithm, config.seed)


def _rows_job(args, kwargs):
    return (_arg(args, kwargs, 1, "variant"), _arg(args, kwargs, 2, "seed"))


def _count_steps(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("training.steps", int(result[1]))


def _count_decision(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("upload_gate.decisions")
    tracer.count("upload_gate.uploads", int(bool(result)))


def _count_fused(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("aggregation.updates_fused", len(_arg(args, kwargs, 0, "updates")))


def _remember_pooled(tracer: Tracer, args, kwargs, result) -> None:
    tracer.local.pooled = result[2]


def _proxy_name(tracer: Tracer, args, kwargs) -> str:
    # run_round scores the pooled data for its metrics row and each device's
    # holdout for the upload gate through the same function
    if _arg(args, kwargs, 1, "eval_set") is getattr(tracer.local, "pooled", None):
        return "simulation.metrics_proxy"
    return "upload_gate.accuracy_proxy"


# (module, attribute, span name or name chooser, job getter, after-hook)
SITES = (
    ("safl_sim.cli", "load_experiment", "experiments.load_experiment", None, None),
    ("safl_sim.cli", "execute", "experiments.execute", None, None),
    ("safl_sim.experiments", "run", "simulation.run", _run_job, None),
    ("safl_sim.experiments", "rows_for_run", "experiments.rows_for_run", _rows_job, None),
    ("safl_sim.experiments", "emit_metrics_csv", "experiments.emit_metrics_csv", None, None),
    ("safl_sim.experiments", "measure_bound_inputs", "bounds.measure_bound_inputs", None, None),
    ("safl_sim.experiments", "theorem1_bound", "bounds.theorem1_bound", None, None),
    ("safl_sim.experiments", "corollary1_constant", "bounds.corollary1_constant", None, None),
    ("safl_sim.experiments", "corollary1_bound", "bounds.corollary1_bound", None, None),
    ("safl_sim.experiments", "curvature", "objectives.curvature", None, None),
    ("safl_sim.bounds", "curvature", "objectives.curvature", None, None),
    ("safl_sim.objectives", "optimum_oracle", "objectives.optimum_oracle", None, None),
    ("safl_sim.simulation", "optimum_oracle", "objectives.optimum_oracle", None, None),
    ("safl_sim.simulation", "partition_with_holdout", "partition.partition_with_holdout", None, None),
    ("safl_sim.simulation", "build_state", "simulation.build_state", None, _remember_pooled),
    ("safl_sim.simulation", "run_round", "simulation.run_round", None, None),
    ("safl_sim.simulation", "global_estimate", "simulation.global_estimate", None, None),
    ("safl_sim.simulation", "run_local_epochs", "training.run_local_epochs", None, _count_steps),
    ("safl_sim.simulation", "accuracy_proxy", _proxy_name, None, None),
    ("safl_sim.simulation", "performance_gap", "upload_gate.performance_gap", None, None),
    ("safl_sim.simulation", "upload_probability", "upload_gate.upload_probability", None, None),
    ("safl_sim.simulation", "decide_upload", "upload_gate.decide_upload", None, _count_decision),
    ("safl_sim.simulation", "selection_probability", "annealing.selection_probability", None, None),
    ("safl_sim.simulation", "sample_mask", "annealing.sample_mask", None, None),
    ("safl_sim.simulation", "mix", "annealing.mix", None, None),
    ("safl_sim.simulation", "weights", "aggregation.weights", None, None),
    ("safl_sim.simulation", "aggregate", "aggregation.aggregate", None, _count_fused),
)


def _wrap(tracer: Tracer, fn, name, job_of, after):
    def traced(*args, **kwargs):
        span_name = name if isinstance(name, str) else name(tracer, args, kwargs)
        if job_of is None:
            result = tracer.call(span_name, fn, args, kwargs)
        else:
            outer = tracer.job
            tracer.job = job_of(args, kwargs)
            try:
                result = tracer.call(span_name, fn, args, kwargs)
            finally:
                tracer.job = outer
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return traced


def _resolve(module_name: str, attr: str):
    """The module and its attribute, or None for either that does not exist."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    return module, getattr(module, attr, None)


def missing_sites() -> list[str]:
    """Wrap sites whose module or attribute does not exist."""
    return [f"{m}.{a}" for m, a, *_ in SITES if _resolve(m, a)[1] is None]


@contextmanager
def traced(tracer: Tracer):
    """Install every wrap site that exists for the duration of the block."""
    installed = []
    try:
        for module_name, attr, name, job_of, after in SITES:
            module, fn = _resolve(module_name, attr)
            if fn is None:
                continue
            setattr(module, attr, _wrap(tracer, fn, name, job_of, after))
            installed.append((module, attr, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(installed):
            setattr(module, attr, fn)
