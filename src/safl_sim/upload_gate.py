"""Gap-driven probabilistic upload decisions.

A device compares the quality of the model it last received from the server
against its freshly trained local model, both scored on its own held-out
split.  The relative gap

    gap = |h_global - h_local| / (h_global + h_local + eps_div)

feeds an exponentially decaying upload probability ``exp(-gap / gap_scale)``:
a device whose local model behaves very differently from the global one is
probably overfitting a biased shard, and mostly keeps its update to itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import Dataset, Objective, empirical_risk, predict_classes

PROXY_KINDS = ("holdout_accuracy", "inverse_risk")


@dataclass(frozen=True)
class GateConfig:
    gap_scale: float
    eps_div: float = 1e-6
    proxy: str = "holdout_accuracy"

    def __post_init__(self):
        if not (self.gap_scale > 0):
            raise ValueError("gap_scale must be > 0")
        if not (self.eps_div > 0):
            raise ValueError("eps_div must be > 0")
        if self.proxy not in PROXY_KINDS:
            raise ValueError(f"unknown accuracy proxy {self.proxy!r}")


def accuracy_proxy(model: np.ndarray, eval_set: Dataset, obj: Objective, kind: str) -> float:
    """Nonnegative model-quality score on ``eval_set``.

    ``holdout_accuracy`` is the fraction of correct argmax predictions
    (classification objectives only); ``inverse_risk`` is 1/(1 + risk), a
    bounded stand-in for tasks without a native accuracy.
    """
    if len(eval_set) == 0:
        raise ValueError("accuracy proxy needs a nonempty evaluation set")
    if kind == "holdout_accuracy":
        if not obj.is_classification:
            raise ValueError("holdout_accuracy requires a classification objective")
        pred = predict_classes(obj, model, eval_set)
        return float((pred == eval_set.y).mean())
    if kind == "inverse_risk":
        return 1.0 / (1.0 + empirical_risk(obj, model, eval_set))
    raise ValueError(f"unknown accuracy proxy {kind!r}")


def performance_gap(h_global: float, h_local: float, eps_div: float = 1e-6) -> float:
    """Relative accuracy gap in [0, 1)."""
    if h_global < 0 or h_local < 0:
        raise ValueError("accuracy proxies must be >= 0")
    return abs(h_global - h_local) / (h_global + h_local + eps_div)


def upload_probability(gap: float, gap_scale: float) -> float:
    """Upload probability ``exp(-gap / gap_scale)`` in (0, 1]."""
    if gap < 0:
        raise ValueError("gap must be >= 0")
    if gap_scale <= 0:
        raise ValueError("gap_scale must be > 0")
    return math.exp(-gap / gap_scale)


def decide_upload(q: float, rng: np.random.Generator) -> bool:
    """Bernoulli(q) draw from the device's gate stream."""
    if not (0.0 < q <= 1.0):
        raise ValueError("upload probability must lie in (0, 1]")
    return bool(rng.random() < q)
