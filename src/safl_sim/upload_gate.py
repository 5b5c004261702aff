"""Gap-driven probabilistic upload decisions.

A device compares the quality of the model it last received from the server
against its freshly trained local model, both scored on its own held-out
split.  The relative gap

    gap = |h_global - h_local| / (h_global + h_local + GAP_EPS)

feeds an exponentially decaying upload probability ``exp(-gap / gap_scale)``:
a device whose local model behaves very differently from the global one is
probably overfitting a biased shard, and mostly keeps its update to itself.
The objective picks the score: holdout accuracy for classification, and
``1 / (1 + risk)`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import Dataset, Objective, _check_params, _first_max_class, empirical_risk
from .training import Shards

# keeps the gap defined when both scores are 0
GAP_EPS = 1e-6


@dataclass(frozen=True)
class GateConfig:
    gap_scale: float

    def __post_init__(self):
        if not (self.gap_scale > 0):
            raise ValueError("gap_scale must be > 0")
        # a gap is at most 1, so exp(-1 / gap_scale) is the smallest upload
        # probability; at 0 a device with a full gap could never be decided
        if math.exp(-1.0 / self.gap_scale) == 0.0:
            raise ValueError(f"gap_scale {self.gap_scale!r} is too small: exp(-1 / gap_scale) underflows to 0")


def accuracy_proxy(model: np.ndarray, eval_set: Dataset, obj: Objective) -> float | np.ndarray:
    """Nonnegative model-quality score on ``eval_set``.

    For a classification objective, the fraction of correct argmax
    predictions; otherwise 1/(1 + risk), a bounded stand-in for tasks
    without a native accuracy.  ``model`` is one parameter vector, giving a
    float, or a stack of J jobs' models (J, param_dim), giving one score per
    row, each bitwise the float that row gives alone.

    A classification set is scored on its table of distinct (x, y) rows
    (``Dataset.distinct``), kept with a read-only set: each model's
    class-major logits are its (C, d) weights times the table's features,
    a row's prediction is its first class with the largest logit
    (``_first_max_class``), and the accuracy is the hit count, each hit
    weighted by its row's count, over m.  The count is an integer, so the
    accuracy is bitwise the mean of the m rows' hits.

    Equivalence policy.  A prediction can differ from the row-major
    ``np.argmax(X @ W.T, axis=1)`` only where two of the row's class scores
    lie within rounding of each other.
    """
    m = len(eval_set)
    if m == 0:
        raise ValueError("accuracy proxy needs a nonempty evaluation set")
    if obj.is_classification:
        w = _check_params(obj, model)
        XT, y, counts = eval_set.distinct()
        hits = _first_max_class(w.reshape(*w.shape[:-1], obj.n_classes, obj.dim) @ XT) == y
        accuracy = (hits @ counts) / m
        return float(accuracy) if w.ndim == 1 else accuracy
    return 1.0 / (1.0 + empirical_risk(obj, model, eval_set))


def gate_proxies(
    global_model: np.ndarray,
    local_models: np.ndarray,
    eval_sets: Shards,
    obj: Objective,
) -> tuple[np.ndarray, np.ndarray]:
    """``accuracy_proxy`` of the global model and of each local model, for
    every device of a round at once.

    Device ``i`` scores ``global_model`` and ``local_models[i]`` on shard
    ``i`` of ``eval_sets``.  The shards' rows are gathered in one take: the
    global model is scored over every row in one product, each local model
    over its own rows, and the per-device sums are ``np.bincount`` over row
    owners.  Returns ``(h_global, h_local)``, each of shape (k,).

    Equivalence policy.  Accuracy equals ``accuracy_proxy``: the hit counts
    are integers, and a row's prediction, the first class with the largest
    score as in ``accuracy_proxy``, could differ only if two of its class
    scores lay within rounding of each other.  Inverse risk agrees to
    within 1e-13 relative, since a device's losses are summed in another
    order.
    """
    sizes = eval_sets.sizes
    if not sizes.all():
        raise ValueError("accuracy proxy needs a nonempty evaluation set")
    owner = np.repeat(np.arange(sizes.size), sizes)
    rows = np.arange(owner.size) + (eval_sets.starts - np.cumsum(sizes) + sizes)[owner]  # each shard's own rows
    X, y = eval_sets.data.X[rows], eval_sets.data.y[rows]
    local_models = np.asarray(local_models, dtype=np.float64)
    if obj.is_classification:
        shape = (obj.n_classes, obj.dim)
        global_scores = X @ global_model.reshape(shape).T
        local_scores = (local_models.reshape(-1, *shape)[owner] * X[:, None, :]).sum(-1)
    else:
        global_scores = X @ global_model
        local_scores = (local_models[owner] * X).sum(-1)

    def per_device(scores: np.ndarray, models: np.ndarray) -> np.ndarray:
        if obj.is_classification:
            hits = _first_max_class(scores.T) == y
            return np.bincount(owner[hits], minlength=sizes.size) / sizes
        scale = 0.5 if obj.kind in ("least_squares", "ridge") else 1.0  # lasso sums whole squares
        risk = scale * np.bincount(owner, weights=(scores - y) ** 2, minlength=sizes.size) / sizes
        if obj.kind == "lasso":
            risk += obj.reg * np.abs(models).sum(axis=1)
        elif obj.reg:
            risk += 0.5 * obj.reg * (models * models).sum(axis=1)
        return 1.0 / (1.0 + risk)

    return per_device(global_scores, global_model[None, :]), per_device(local_scores, local_models)


def performance_gap(h_global: float | np.ndarray, h_local: float | np.ndarray) -> float | np.ndarray:
    """Relative accuracy gap in [0, 1), of two scores or elementwise of two
    arrays of them; each element is bitwise the gap of its pair alone."""
    if np.any(np.less(h_global, 0)) or np.any(np.less(h_local, 0)):
        raise ValueError("accuracy proxies must be >= 0")
    return abs(h_global - h_local) / (h_global + h_local + GAP_EPS)


def upload_probability(gap: float | np.ndarray, gap_scale: float) -> float | np.ndarray:
    """Upload probability ``exp(-gap / gap_scale)`` in (0, 1], of one gap or
    elementwise of an array of them.

    Each element is ``math.exp`` of its own gap, bitwise the probability of
    that gap alone: numpy's SIMD ``exp`` may round the last bit otherwise,
    and the probability is compared with a uniform draw.
    """
    if np.any(np.less(gap, 0)):
        raise ValueError("gap must be >= 0")
    if gap_scale <= 0:
        raise ValueError("gap_scale must be > 0")
    if np.ndim(gap) == 0:
        return math.exp(-gap / gap_scale)
    return np.array([math.exp(-g / gap_scale) for g in np.asarray(gap).tolist()])


def decide_upload(q: float, rng: np.random.Generator) -> bool:
    """Bernoulli(q) draw from the device's gate stream."""
    if not (0.0 < q <= 1.0):
        raise ValueError("upload probability must lie in (0, 1]")
    return bool(rng.random() < q)
