"""Deterministic federated-learning simulator over convex tasks.

Implements plain federated averaging, an annealed local/global mixing variant,
and its gap-gated-upload extension, together with the convergence-rate bounds
that the simulated trajectories can be checked against.
"""

from .aggregation import WeightScheme, aggregate, weights
from .annealing import AnnealConfig, mix, sample_mask, selection_probability
from .bounds import corollary1_bound, corollary1_constant, measure_bound_inputs, theorem1_bound
from .datasets import load_csv, make_blobs, make_linear_regression
from .objectives import Dataset, GradientUnavailableError, Objective, accuracy_proxy, curvature, empirical_risk, optimum_oracle
from .partition import PartitionSpec, partition_with_holdout
from .simulation import DivergenceError, SimConfig, run
from .training import LrSchedule, run_local_epochs
from .upload_gate import GateConfig, decide_upload, performance_gap, upload_probability

__version__ = "0.1.0"

__all__ = [
    "AnnealConfig",
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
    "load_csv",
    "make_blobs",
    "make_linear_regression",
    "measure_bound_inputs",
    "mix",
    "optimum_oracle",
    "partition_with_holdout",
    "performance_gap",
    "run",
    "run_local_epochs",
    "sample_mask",
    "selection_probability",
    "theorem1_bound",
    "upload_probability",
    "weights",
]
