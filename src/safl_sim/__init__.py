"""Deterministic federated-learning simulator over convex tasks.

Implements plain federated averaging, an annealed local/global mixing variant,
and its gap-gated-upload extension, together with the convergence-rate bounds
that the simulated trajectories can be checked against.
"""

from .aggregation import WeightScheme, aggregate, weights
from .annealing import AnnealConfig, mix, sample_mask, selection_probability
from .bounds import (
    BoundInputs,
    corollary1_bound,
    corollary1_constant,
    fit_rate,
    measure_bound_inputs,
    rate_class,
    theorem1_bound,
    theorem3_bound,
    theorem3_constant,
)
from .datasets import load_csv, make_blobs, make_linear_regression, save_csv
from .objectives import (
    Dataset,
    GradientUnavailableError,
    Objective,
    curvature,
    empirical_risk,
    optimum_oracle,
    per_sample_grads,
)
from .partition import PartitionSpec, partition, partition_with_holdout, sample_sizes
from .simulation import SimConfig, global_estimate, run
from .training import DivergenceError, LrSchedule, run_local_epochs
from .upload_gate import GateConfig, accuracy_proxy, decide_upload, performance_gap, upload_probability

__version__ = "0.1.0"

__all__ = [
    "AnnealConfig",
    "BoundInputs",
    "Dataset",
    "DivergenceError",
    "GateConfig",
    "GradientUnavailableError",
    "LrSchedule",
    "Objective",
    "PartitionSpec",
    "SimConfig",
    "WeightScheme",
    "accuracy_proxy",
    "aggregate",
    "corollary1_bound",
    "corollary1_constant",
    "curvature",
    "decide_upload",
    "empirical_risk",
    "fit_rate",
    "global_estimate",
    "load_csv",
    "make_blobs",
    "make_linear_regression",
    "measure_bound_inputs",
    "mix",
    "optimum_oracle",
    "partition",
    "partition_with_holdout",
    "per_sample_grads",
    "performance_gap",
    "rate_class",
    "run",
    "run_local_epochs",
    "sample_mask",
    "sample_sizes",
    "save_csv",
    "selection_probability",
    "theorem1_bound",
    "theorem3_bound",
    "theorem3_constant",
    "upload_probability",
    "weights",
]
