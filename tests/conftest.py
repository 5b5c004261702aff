"""Shared test oracles: finite differences, power iteration, random problems."""

from __future__ import annotations

import numpy as np

from reference import Sample, loss

from safl_sim import Dataset, Objective


def finite_difference_grad(obj: Objective, w: np.ndarray, sample: Sample, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of the per-sample loss."""
    g = np.zeros_like(w, dtype=np.float64)
    for j in range(w.size):
        hi = w.copy()
        lo = w.copy()
        hi[j] += step
        lo[j] -= step
        g[j] = (loss(obj, hi, sample) - loss(obj, lo, sample)) / (2 * step)
    return g


def power_iteration_extremes(H: np.ndarray, iters: int = 20_000) -> tuple[float, float]:
    """Largest and smallest eigenvalues of a symmetric PSD matrix by power
    iteration (smallest via the spectrum-shifted complement)."""
    rng = np.random.default_rng(123)
    v = rng.standard_normal(H.shape[0])
    for _ in range(iters):
        v = H @ v
        v /= np.linalg.norm(v)
    lam_max = float(v @ H @ v)
    shifted = lam_max * np.eye(H.shape[0]) - H
    u = rng.standard_normal(H.shape[0])
    for _ in range(iters):
        u = shifted @ u
        norm = np.linalg.norm(u)
        if norm == 0.0:
            return lam_max, lam_max  # H is a multiple of the identity
        u /= norm
    lam_min = lam_max - float(u @ shifted @ u)
    return lam_max, lam_min


def random_problem(kind: str, rng: np.random.Generator, m: int = 12, d: int = 4):
    """A random (objective, dataset) pair of the requested smooth kind."""
    X = rng.standard_normal((m, d))
    if kind == "multinomial_logistic":
        y = rng.integers(0, 3, size=m)
        return Objective(kind, d, reg=0.1, n_classes=3), Dataset(X, y, n_classes=3)
    y = X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(m)
    if kind == "ridge":
        return Objective(kind, d, reg=0.3), Dataset(X, y)
    if kind == "lasso":
        return Objective(kind, d, reg=1.0), Dataset(X, y)
    return Objective("least_squares", d), Dataset(X, y)


def full_batch_grad(obj: Objective, w: np.ndarray, dataset: Dataset) -> np.ndarray:
    from safl_sim.objectives import per_sample_grads

    return per_sample_grads(obj, w, dataset).mean(axis=0)
