"""Local stochastic gradient descent for the devices selected in a round.

``run_local_epochs`` trains every selected device at once: the parameters
are stacked as (K, param_dim), viewed as (K, C, d) for the logistic
objective, and a single loop over the step index updates all devices whose
index stream has not run out yet.  Each device still draws its stream from
its own generator, so stream ownership and determinism are those of a
device-by-device loop.

Equivalence policy.  A device's trained parameters match chained
``sgd_step`` calls over the same index stream and rates to within
``max|delta| <= 1e-13 * max(1, max|ref|)``, not bitwise: dot products are
elementwise products summed along the last axis instead of BLAS dot calls.
The elementwise order of the update is kept (``r * x + reg * w``, then
``alpha * g``).  Every operation acts on each device's row alone, so a
device's result is bitwise independent of which other devices share its
batch, and of their order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .objectives import Dataset, GradientUnavailableError, Objective, grad

SAMPLE_ORDERS = ("iid_draw", "shuffle")


class DivergenceError(FloatingPointError):
    """Parameters or gradients left the finite range.

    ``device_index`` is the position, in the batch passed to
    ``run_local_epochs``, of the first device whose parameters diverged.
    """

    def __init__(self, message: str, round_index: int | None = None, device_index: int | None = None):
        super().__init__(message)
        self.round_index = round_index
        self.device_index = device_index


@dataclass(frozen=True)
class LrSchedule:
    """Learning-rate schedule: ``constant`` alpha or ``inverse`` alpha0/(t+1)."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("constant", "inverse"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not (self.value > 0):
            raise ValueError("learning rate value must be > 0")

    def rate(self, step: int) -> float:
        if self.kind == "constant":
            return self.value
        return self.value / (step + 1)

    def rates(self, start_step: int | np.ndarray, count: int) -> np.ndarray:
        """Rates of steps ``start_step .. start_step + count - 1``, shape (count,).

        An array of K start steps gives one column per entry, shape (count, K).
        """
        steps = np.add.outer(np.arange(count), start_step)
        if self.kind == "constant":
            return np.full(steps.shape, self.value)
        return self.value / (steps + 1.0)


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


def _sample_indices(m: int, epochs: int, order: str, rng: np.random.Generator) -> np.ndarray:
    if order == "iid_draw":
        return rng.integers(0, m, size=epochs * m)
    return np.concatenate([rng.permutation(m) for _ in range(epochs)])


def run_local_epochs(
    params: Sequence[np.ndarray],
    shards: Sequence[Dataset],
    obj: Objective,
    epochs: int,
    schedule: LrSchedule,
    rngs: Sequence[np.random.Generator],
    *,
    start_steps: Sequence[int] | None = None,
    order: str = "iid_draw",
) -> tuple[np.ndarray, int]:
    """Run ``epochs`` passes of per-sample SGD on each device's shard.

    Device ``k`` starts from ``params[k]``, trains on ``shards[k]`` and draws
    its sample indices from ``rngs[k]``; ``start_steps[k]`` (default 0)
    offsets its schedule.  ``order="iid_draw"`` samples with replacement each
    step; ``order="shuffle"`` reshuffles the shard per epoch.

    Returns the trained parameters, stacked as (K, param_dim) in input order,
    and the total number of steps, ``epochs * sum(len(shard))``.  Raises
    ``DivergenceError`` whose ``device_index`` names the first device, in
    input order, whose parameters left the finite range.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if order not in SAMPLE_ORDERS:
        raise ValueError(f"unknown sample order {order!r}")
    if not obj.is_smooth:
        raise GradientUnavailableError(f"{obj.kind} is non-smooth; use optimum_oracle instead")
    count = len(shards)
    if count == 0 or len(params) != count or len(rngs) != count:
        raise ValueError("need one parameter vector, shard and generator per device, and at least one device")
    if start_steps is None:
        start_steps = [0] * count
    sizes = np.array([len(shard) for shard in shards], dtype=np.intp)
    steps = epochs * sizes
    if not sizes.all():
        raise ValueError("cannot train on an empty shard")

    # longest stream first, so the devices still training at step j are the
    # leading rows W[:active[j]]; ties keep input order
    rank = np.argsort(-steps, kind="stable")
    ranked = steps[rank]
    n_steps = int(ranked[0])
    live = ranked > np.arange(n_steps)[:, None]  # (n_steps, K)
    active = np.count_nonzero(live, axis=1).tolist()

    # every device draws from its own generator; its rows are gathered from
    # the shards pooled in input order, into column rank-of-device
    draws = [_sample_indices(len(shard), epochs, order, rng) for shard, rng in zip(shards, rngs)]
    offsets = np.cumsum(sizes) - sizes
    picks = np.zeros((count, n_steps), dtype=np.intp)
    picks[live.T] = np.concatenate([draws[k] for k in rank]) + np.repeat(offsets[rank], ranked)
    X = np.concatenate([shard.X for shard in shards])[picks.T]  # (n_steps, K, d)
    y = np.concatenate([shard.y for shard in shards])[picks.T]
    alphas = schedule.rates(np.asarray(start_steps)[rank], n_steps)

    W = np.array([params[k] for k in rank], dtype=np.float64)
    if W.shape != (count, obj.param_dim):
        raise ValueError(f"parameters have shape {W.shape[1:]}, expected ({obj.param_dim},)")

    # overflow is caught by the finite check below, not by numpy warnings; a
    # non-finite entry spreads to its whole row and never becomes finite
    # again, so one check at the end sees every divergence
    reg = obj.reg
    with np.errstate(over="ignore", invalid="ignore"):
        if obj.kind in ("least_squares", "ridge"):
            for j, a in enumerate(active):
                w, x = W[:a], X[j, :a]
                g = ((w * x).sum(-1) - y[j, :a])[:, None] * x
                if reg:
                    g += reg * w
                w -= alphas[j, :a, None] * g
        else:  # multinomial_logistic
            W3 = W.reshape(count, obj.n_classes, obj.dim)
            batch = np.arange(count)
            for j, a in enumerate(active):
                w, x = W3[:a], X[j, :a]
                scores = (w * x[:, None, :]).sum(-1)
                scores -= scores.max(-1, keepdims=True)
                p = np.exp(scores)
                p /= p.sum(-1, keepdims=True)
                p[batch[:a], y[j, :a]] -= 1.0
                w -= alphas[j, :a, None, None] * (p[:, :, None] * x[:, None, :] + reg * w)

    trained = np.empty_like(W)
    trained[rank] = W
    finite = np.isfinite(trained).all(axis=1)
    if not finite.all():
        raise DivergenceError(
            "parameters diverged during local training", device_index=int(np.argmin(finite))
        )
    return trained, int(steps.sum())
