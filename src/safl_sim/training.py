"""Local stochastic gradient descent for the devices selected in a round.

``run_local_epochs`` trains every selected device at once: the parameters
are stacked as (K, param_dim), viewed as (K, C, d) for the logistic
objective, and a single loop over the step index updates all devices whose
index stream has not run out yet.  The kernel draws nothing: each device's
sample-index stream comes from ``sample_indices`` on that device's own
training generator, drawn ahead for a block of rounds by the simulation's
planner, so stream ownership and determinism are those of a
device-by-device loop.

Equivalence policy.  A device's trained parameters match chained calls of
the per-sample reference step ``sgd_step`` (in the test suite's
``tests/reference.py``) over the same index stream and rates to within
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

from .objectives import Dataset, GradientUnavailableError, Objective

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


def sample_indices(m: int, epochs: int, order: str, rng: np.random.Generator) -> np.ndarray:
    """``epochs * m`` sample indices into a shard of ``m`` samples, from ``rng``.

    ``order="iid_draw"`` samples with replacement; ``order="shuffle"`` is one
    permutation per epoch, all shuffled in one ``permuted`` call, which gives
    the values of, and leaves the generator as, one ``permutation(m)`` call
    per epoch (tested).  One call for ``a + b`` epochs returns the values
    of a call for ``a`` followed by a call for ``b`` on the same generator,
    so a stream drawn ahead for several rounds is the one drawn round by
    round (see README "Determinism").
    """
    if order == "iid_draw":
        return rng.integers(0, m, size=epochs * m)
    return rng.permuted(np.tile(np.arange(m), (epochs, 1)), axis=1).ravel()


@dataclass(frozen=True)
class Shards:
    """Devices' training shards as row ranges of one dataset: shard ``k`` is
    rows ``starts[k]`` to ``starts[k] + sizes[k]`` of ``data``."""

    data: Dataset
    starts: np.ndarray
    sizes: np.ndarray

    @classmethod
    def pool(cls, shards: Sequence[Dataset]) -> "Shards":
        """Separate shards, concatenated in order."""
        sizes = np.array([len(shard) for shard in shards], dtype=np.intp)
        return cls(Dataset.concat(list(shards)), np.cumsum(sizes) - sizes, sizes)

    def __len__(self) -> int:
        return len(self.sizes)


def run_local_epochs(
    params: Sequence[np.ndarray],
    shards: Sequence[Dataset] | Shards,
    obj: Objective,
    epochs: int,
    schedule: LrSchedule,
    indices: np.ndarray,
    *,
    start_steps: Sequence[int] | None = None,
) -> tuple[np.ndarray, int]:
    """Run ``epochs`` passes of per-sample SGD on each device's shard.

    Device ``k`` starts from ``params[k]`` and trains on ``shards[k]``;
    ``start_steps[k]`` (default 0) offsets its schedule.  The shards are
    separate datasets, or row ranges of one (``Shards``), which the kernel
    reads in place.  ``indices`` holds every device's sample-index stream,
    ``epochs * len(shards[k])`` indices into ``shards[k]`` for device ``k``,
    concatenated in input order (see ``sample_indices``).

    Returns the trained parameters, stacked as (K, param_dim) in input order,
    and the total number of steps, ``epochs * sum(len(shard))``.  Raises
    ``DivergenceError`` whose ``device_index`` names the first device, in
    input order, whose parameters left the finite range.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not obj.is_smooth:
        raise GradientUnavailableError(f"{obj.kind} is non-smooth; use optimum_oracle instead")
    count = len(shards)
    if count == 0 or len(params) != count:
        raise ValueError("need one parameter vector and shard per device, and at least one device")
    if start_steps is None:
        start_steps = [0] * count
    if not isinstance(shards, Shards):
        shards = Shards.pool(shards)
    sizes = shards.sizes
    steps = epochs * sizes
    if not sizes.all():
        raise ValueError("cannot train on an empty shard")

    # each index is offset to its shard's rows of the pooled data; a stream
    # that must stay inside its own shard could otherwise read a neighbour's
    indices = np.asarray(indices)
    if indices.shape != (int(steps.sum()),):
        raise ValueError(f"need {int(steps.sum())} sample indices, one per step, not an array of shape {indices.shape}")
    if not ((indices >= 0) & (indices < np.repeat(sizes, steps))).all():
        raise ValueError("every sample index must lie inside its own device's shard")
    n_steps = int(steps.max())
    picks = np.zeros((count, n_steps), dtype=np.intp)
    picks[steps[:, None] > np.arange(n_steps)] = indices + np.repeat(shards.starts, steps)

    # longest stream first, so the devices still training at step j are the
    # leading rows W[:active[j]]; ties keep input order
    rank = np.argsort(-steps, kind="stable")
    active = np.count_nonzero(steps[rank] > np.arange(n_steps)[:, None], axis=1).tolist()
    picks = picks[rank].T  # (n_steps, K), column rank-of-device
    X = shards.data.X[picks]  # (n_steps, K, d)
    y = shards.data.y[picks]
    alphas = schedule.rates(np.asarray(start_steps)[rank], n_steps)

    W = np.asarray(params, dtype=np.float64)[rank]
    if W.shape != (count, obj.param_dim):
        raise ValueError(f"parameters have shape {W.shape[1:]}, expected ({obj.param_dim},)")

    # overflow is caught by the finite check below, not by numpy warnings; a
    # non-finite entry spreads to its whole row and never becomes finite
    # again, so one check at the end sees every divergence
    with np.errstate(over="ignore", invalid="ignore"):
        _sgd_steps(W, X, y, alphas, active, obj)

    trained = np.empty_like(W)
    trained[rank] = W
    finite = np.isfinite(trained).all(axis=1)
    if not finite.all():
        raise DivergenceError(
            "parameters diverged during local training", device_index=int(np.argmin(finite))
        )
    return trained, int(steps.sum())


def _sgd_steps(
    W: np.ndarray, X: np.ndarray, y: np.ndarray, alphas: np.ndarray, active: list[int], obj: Objective
) -> None:
    """Step ``W`` (K, param_dim) in place: at step ``j`` the leading
    ``active[j]`` rows take one SGD step on the samples ``X[j]``, ``y[j]``
    at the rates ``alphas[j]``.

    Every intermediate is written into a buffer allocated once for all the
    steps, sliced to the active rows, and the reductions are direct
    ``np.add.reduce``/``np.maximum.reduce`` calls: the same ufunc calls on
    the same layouts as allocating each step, so the same bits.
    """
    count, reg = len(W), obj.reg
    if obj.kind in ("least_squares", "ridge"):
        prod = np.empty_like(W)
        grad = np.empty_like(W)
        resid = np.empty(count)
        for j, a in enumerate(active):
            w, x, g, r = W[:a], X[j, :a], grad[:a], resid[:a]
            np.add.reduce(np.multiply(w, x, out=prod[:a]), axis=-1, out=r)
            np.subtract(r, y[j, :a], out=r)
            np.multiply(r[:, None], x, out=g)
            if reg:
                g += np.multiply(reg, w, out=prod[:a])
            w -= np.multiply(alphas[j, :a, None], g, out=g)
        return
    # multinomial_logistic
    C = obj.n_classes
    W3 = W.reshape(count, C, obj.dim)
    # the one-hot labels: subtracting a row takes 1 from the label's entry
    # and 0 from the rest, which leaves them bitwise as they were
    Y = np.eye(C)[y]  # (n_steps, K, C)
    prod = np.empty_like(W3)
    penalty = np.empty_like(W3)
    scores = np.empty((count, C))
    top = np.empty((count, 1))
    total = np.empty((count, 1))
    for j, a in enumerate(active):
        w, x, g, s = W3[:a], X[j, :a], prod[:a], scores[:a]
        np.add.reduce(np.multiply(w, x[:, None, :], out=g), axis=-1, out=s)
        s -= np.maximum.reduce(s, axis=-1, keepdims=True, out=top[:a])
        p = np.exp(s, out=s)
        p /= np.add.reduce(p, axis=-1, keepdims=True, out=total[:a])
        p -= Y[j, :a]
        np.multiply(p[:, :, None], x[:, None, :], out=g)
        g += np.multiply(reg, w, out=penalty[:a])
        w -= np.multiply(alphas[j, :a, None, None], g, out=g)
