"""The per-sample reference that the batched code is tested against: one
labelled example, its loss and gradient, and one SGD step on it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from safl_sim import Dataset, DivergenceError, GradientUnavailableError, Objective
from safl_sim.objectives import _check_param, log_softmax


@dataclass(frozen=True)
class Sample:
    """One labelled example: feature vector ``x`` and target ``y``."""

    x: np.ndarray
    y: float


def sample(data: Dataset, i: int) -> Sample:
    """Row ``i`` of ``data``."""
    return Sample(data.X[i], data.y[i])


def _check_sample(obj: Objective, s: Sample) -> None:
    if np.shape(s.x) != (obj.dim,):
        raise ValueError(f"sample feature vector has shape {np.shape(s.x)}, expected ({obj.dim},)")


def loss(obj: Objective, w: np.ndarray, s: Sample) -> float:
    """Per-sample loss at ``w``."""
    w = _check_param(obj, w)
    _check_sample(obj, s)
    if obj.kind == "least_squares":
        r = float(s.x @ w - s.y)
        return 0.5 * r * r
    if obj.kind == "ridge":
        r = float(s.x @ w - s.y)
        return 0.5 * r * r + 0.5 * obj.reg * float(w @ w)
    if obj.kind == "lasso":
        r = float(s.y - s.x @ w)
        return r * r + obj.reg * float(np.abs(w).sum())
    # multinomial_logistic
    scores = w.reshape(obj.n_classes, obj.dim) @ s.x
    ce = -float(log_softmax(scores)[int(s.y)])
    return ce + 0.5 * obj.reg * float(w @ w)


def grad(obj: Objective, w: np.ndarray, s: Sample) -> np.ndarray:
    """Per-sample gradient at ``w``.  Raises for the non-smooth lasso family."""
    w = _check_param(obj, w)
    _check_sample(obj, s)
    if obj.kind == "lasso":
        raise GradientUnavailableError("lasso is non-smooth; use optimum_oracle instead")
    if obj.kind in ("least_squares", "ridge"):
        g = (float(s.x @ w - s.y)) * s.x
        if obj.reg:
            g = g + obj.reg * w
        return np.asarray(g, dtype=np.float64)
    scores = w.reshape(obj.n_classes, obj.dim) @ s.x
    p = np.exp(log_softmax(scores))
    p[int(s.y)] -= 1.0
    return (np.outer(p, s.x)).ravel() + obj.reg * w


def sgd_step(w: np.ndarray, sample, obj: Objective, alpha: float) -> np.ndarray:
    """One stochastic gradient step ``w - alpha * grad(w; sample)``.

    The reference stepper that ``run_local_epochs`` is tested against.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    g = grad(obj, w, sample)
    if not np.isfinite(g).all():
        raise DivergenceError("non-finite gradient in sgd_step")
    return w - alpha * g
