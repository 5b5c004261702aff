"""Gap-driven probabilistic upload decisions.

A device compares the quality of the model it last received from the server
against its freshly trained local model, both scored on its own held-out
split.  The relative gap

    gap = |h_global - h_local| / (h_global + h_local + GAP_EPS)

feeds an exponentially decaying upload probability ``exp(-gap / gap_scale)``:
a device whose local model behaves very differently from the global one is
probably overfitting a biased shard, and mostly keeps its update to itself.

This module keeps the gate's policy alone: the gap, the probability and the
draw.  The score is ``objectives.accuracy_proxy``, which the objective
picks: holdout accuracy for classification, and ``1 / (1 + risk)``
otherwise.  ``gate_proxies`` scores a round's devices in one batch; it takes
each family's loss terms from ``objectives`` (the squared-residual scale and
the regulariser, which ``empirical_risk`` reads too) and each device's rows
of the pooled eval set from ``Shards.row_map``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import Objective, _first_max_class, _penalty, _scores, _square_scale
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


def gate_proxies(
    global_model: np.ndarray,
    local_models: np.ndarray,
    eval_sets: Shards,
    obj: Objective,
) -> tuple[np.ndarray, np.ndarray]:
    """``accuracy_proxy`` of the global model and of each local model, for
    every device of a round at once.

    Device ``i`` scores ``global_model`` and ``local_models[i]`` on shard
    ``i`` of ``eval_sets``.  The shards' rows are gathered in one take by
    their row map (``Shards.row_map``): the global model is scored over
    every row in one product (``objectives._scores``, as ``empirical_risk``
    scores a model), each local model over its own rows, and the per-device
    sums are ``np.bincount`` over row owners.  Inverse risk takes each
    family's squared-residual scale and regulariser from ``objectives``, as
    ``empirical_risk`` does.  Returns ``(h_global, h_local)``, each of
    shape (k,).

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
    rows, owner = eval_sets.row_map
    X, y = eval_sets.data.X[rows], eval_sets.data.y[rows]
    global_scores = _scores(obj, global_model, X)
    if obj.is_classification:
        local_scores = (local_models.reshape(-1, obj.n_classes, obj.dim)[owner] * X[:, None, :]).sum(-1)
    else:
        local_scores = (local_models[owner] * X).sum(-1)

    def per_device(scores: np.ndarray, models: np.ndarray) -> np.ndarray:
        if obj.is_classification:
            return np.bincount(owner, weights=_first_max_class(scores.T) == y, minlength=sizes.size) / sizes
        squares = np.bincount(owner, weights=(scores - y) ** 2, minlength=sizes.size)
        return 1.0 / (1.0 + (_square_scale(obj) * squares / sizes + _penalty(obj, models)))

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
