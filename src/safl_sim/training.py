"""Local stochastic gradient descent for the devices selected in a round.

``run_local_epochs`` trains every selected device at once: the parameters
are stacked as (K, param_dim), viewed as (K, C, d) for the logistic
objective, and a single loop over the step index updates all devices whose
index stream has not run out yet.  The kernel draws nothing: each device's
sample-index stream comes from ``sample_indices`` on that device's own
training generator, drawn ahead for a block of rounds by the simulation's
planner, so stream ownership and determinism are those of a
device-by-device loop.  Where each stream's entries go in the kernel's step
table depends on the shard sizes alone (``StepLayout``); a ``Shards`` keeps
the layout once built, so a simulation whose batch of shards repeats from
round to round builds it once.

Equivalence policy.  A device's trained parameters match chained calls of
the per-sample reference step ``sgd_step`` (in the test suite's
``tests/reference.py``) over the same index stream and rates to within
``max|delta| <= 1e-13 * max(1, max|ref|)``, not bitwise: dot products are
elementwise products summed along the last axis instead of BLAS dot calls.
The elementwise order of the update is kept (``r * x + reg * w``, then
``alpha * g``).  Every operation acts on each device's row alone, so a
device's result is bitwise independent of which other devices share its
batch, and of their order.  The step loops (``_sgd_steps``) are bitwise
equal to loops that allocate every intermediate and give every row its own
rate column, which ``tests/reference.py`` keeps (``sgd_steps``): they write
into buffers allocated once per call, keep ``np.add.reduce`` for the feature
and class sums (numpy's pairwise order from 8 terms on), take the class max
as column ``np.maximum`` calls (exact in any order), and multiply by one
float per step when every row shares its rate.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .objectives import Dataset, GradientUnavailableError, Objective

SAMPLE_ORDERS = ("iid_draw", "shuffle")


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


@dataclass(frozen=True, eq=False)
class StepLayout:
    """Where ``epochs`` passes over each shard of a ``Shards`` go in the
    kernel's step table; it depends on the shards' sizes and starts alone.

    Device ``k`` takes ``steps[k]`` steps.  The table has one row per step
    and one column per device, longest stream first (``rank``, ties in input
    order), so the devices still training at step ``j`` are its leading
    ``active[j]`` columns.  Entry ``i`` of the devices' concatenated index
    streams lands at flat ``positions[i]`` of the table.  A column's indices
    must lie below ``bounds``, its shard's size, and are offset by
    ``offsets``, its shard's first row in the pooled data.
    """

    steps: np.ndarray
    rank: np.ndarray
    active: list[int]
    positions: np.ndarray
    bounds: np.ndarray
    offsets: np.ndarray


def step_layout(shards: Shards, epochs: int) -> StepLayout:
    """The ``StepLayout`` of ``epochs`` passes over ``shards``."""
    count, steps = len(shards), epochs * shards.sizes
    n_steps = int(steps.max())
    rank = np.argsort(-steps, kind="stable")
    # the streams still running at step j are those longer than j
    active = (count - np.searchsorted(np.sort(steps), np.arange(n_steps), side="right")).tolist()
    column = np.empty(count, dtype=np.intp)
    column[rank] = np.arange(count)
    # entry t of a device's stream is its step t: row t, the device's column
    first = np.cumsum(steps) - steps
    positions = (np.arange(int(steps.sum())) - np.repeat(first, steps)) * count
    positions += np.repeat(column, steps)
    return StepLayout(steps, rank, active, positions, shards.sizes[rank].astype(np.uintp), shards.starts[rank])


@dataclass(frozen=True)
class Shards:
    """Devices' data as row ranges of one dataset: shard ``k`` is rows
    ``starts[k]`` to ``starts[k] + sizes[k]`` of ``data``.

    The kernel's step layout for a number of epochs is built on first use
    and kept (``layout``), so a batch that trains the same shards again
    reuses it.
    """

    data: Dataset
    starts: np.ndarray
    sizes: np.ndarray
    _layouts: dict[int, StepLayout] = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def pool(cls, shards: Sequence[Dataset]) -> "Shards":
        """Separate shards, concatenated in order into fresh read-only arrays."""
        n_classes = {shard.n_classes for shard in shards}
        if len(n_classes) != 1:
            raise ValueError("need at least one shard, and shards that agree on n_classes")
        X = np.concatenate([shard.X for shard in shards])
        y = np.concatenate([shard.y for shard in shards])
        return cls._frozen(X, y, *n_classes, shards)

    @classmethod
    def take(cls, dataset: Dataset, rows: Sequence[np.ndarray]) -> "Shards":
        """Shard ``k`` as rows ``rows[k]`` of ``dataset``, gathered in order into fresh read-only arrays."""
        flat = np.concatenate(rows)
        return cls._frozen(np.take(dataset.X, flat, axis=0), np.take(dataset.y, flat), dataset.n_classes, rows)

    @classmethod
    def _frozen(cls, X: np.ndarray, y: np.ndarray, n_classes: int | None, shards: Sequence) -> "Shards":
        """``X`` and ``y`` cut into runs of ``len(shards[k])`` rows, every array read-only."""
        sizes = np.array([len(shard) for shard in shards], dtype=np.intp)
        starts = np.cumsum(sizes) - sizes
        for array in (X, y, starts, sizes):
            array.setflags(write=False)
        return cls(Dataset._trusted(X, y, n_classes), starts, sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def dataset(self, k: int) -> Dataset:
        """Shard ``k`` as a view of its rows of ``data``, which copies nothing."""
        start = int(self.starts[k])
        rows = slice(start, start + int(self.sizes[k]))
        return Dataset._trusted(self.data.X[rows], self.data.y[rows], self.data.n_classes)

    def layout(self, epochs: int) -> StepLayout:
        """The step layout of ``epochs`` passes over these shards (``step_layout``), kept once built."""
        if epochs not in self._layouts:
            self._layouts[epochs] = step_layout(self, epochs)
        return self._layouts[epochs]


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
    and the total number of steps, ``epochs * sum(len(shard))``.  A device
    whose parameters left the finite range comes back as a non-finite row;
    the kernel raises nothing for divergence, which is its caller's to find.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not obj.is_smooth:
        raise GradientUnavailableError(f"{obj.kind} is non-smooth; use optimum_oracle instead")
    count = len(shards)
    if count == 0 or len(params) != count:
        raise ValueError("need one parameter vector and shard per device, and at least one device")
    if not isinstance(shards, Shards):
        shards = Shards.pool(shards)
    if not shards.sizes.all():
        raise ValueError("cannot train on an empty shard")
    layout = shards.layout(epochs)

    indices = np.asarray(indices)
    if indices.shape != layout.positions.shape:
        raise ValueError(
            f"need {len(layout.positions)} sample indices, one per step, not an array of shape {indices.shape}"
        )
    rank, active = layout.rank, layout.active
    picks = np.zeros((len(active), count), dtype=np.intp)  # (n_steps, K), column rank-of-device
    picks.reshape(-1)[layout.positions] = indices
    # each index is offset to its shard's rows of the pooled data, so a
    # stream that strayed outside its own shard would read a neighbour's; a
    # negative index reads as a huge unsigned one, so one comparison checks
    # both ends (the table's padding, 0, lies inside every shard)
    if not (picks.view(np.uintp) < layout.bounds).all():
        raise ValueError("every sample index must lie inside its own device's shard")
    picks += layout.offsets
    X = np.take(shards.data.X, picks, axis=0)  # (n_steps, K, d)
    y = np.take(shards.data.y, picks, axis=0)
    starts = np.zeros(count, dtype=np.int64) if start_steps is None else np.asarray(start_steps)[rank]

    W = np.asarray(params, dtype=np.float64)[rank]
    if W.shape != (count, obj.param_dim):
        raise ValueError(f"parameters have shape {W.shape[1:]}, expected ({obj.param_dim},)")

    # overflow shows in the rows, not as numpy warnings: a non-finite entry
    # never becomes finite again, so a returned row shows every divergence
    with np.errstate(over="ignore", invalid="ignore"):
        _sgd_steps(W, X, y, active, obj, schedule, starts)

    trained = np.empty_like(W)
    trained[rank] = W
    return trained, int(layout.steps.sum())


def _step_rates(schedule: LrSchedule, starts: np.ndarray, active: list[int], trailing: int) -> list:
    """Each step's rates for the rows of ``starts``: one float when every row
    shares it, else the active rows' column, shaped to broadcast over
    ``trailing`` axes.

    Every row shares its rate under a constant schedule and when all the
    start steps are equal.  Numpy multiplies a float as the float64 that a
    rate array would hold, so both forms give the same bits.
    """
    if schedule.kind == "constant" or (starts == starts[0]).all():
        return schedule.rates(int(starts[0]), len(active)).tolist()
    alphas = schedule.rates(starts, len(active)).reshape(len(active), len(starts), *[1] * trailing)
    return [alphas[j, :a] for j, a in enumerate(active)]


def _sgd_steps(
    W: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    active: list[int],
    obj: Objective,
    schedule: LrSchedule,
    starts: np.ndarray,
) -> None:
    """Step ``W`` (K, param_dim) in place: at step ``j`` the leading
    ``active[j]`` rows take one SGD step on the samples ``X[j]``, ``y[j]``,
    row ``k`` at the rate of its schedule's step ``starts[k] + j``.

    Every intermediate is written into a buffer allocated once for all the
    steps, and the views of the active rows are made once per active count.
    The reductions are direct ``np.add.reduce`` calls on the same layouts as
    allocating each step, and the class max is exact in any order, so the
    result is bitwise that of ``tests/reference.py``'s allocating loops.
    """
    count, reg = len(W), obj.reg
    size = None
    if obj.kind in ("least_squares", "ridge"):
        prod = np.empty_like(W)
        grad = np.empty_like(W)
        resid = np.empty(count)
        for a, x, t, rate in zip(active, X, y, _step_rates(schedule, starts, active, 1)):
            if a != size:
                size = a
                w, p, g, r = W[:a], prod[:a], grad[:a], resid[:a]
                column = r[:, None]
            if a < count:
                x, t = x[:a], t[:a]
            np.add.reduce(np.multiply(w, x, out=p), axis=-1, out=r)
            np.subtract(r, t, out=r)
            np.multiply(column, x, out=g)
            if reg:
                g += np.multiply(reg, w, out=p)
            w -= np.multiply(rate, g, out=g)
        return
    # multinomial_logistic
    C = obj.n_classes
    W3 = W.reshape(count, C, obj.dim)
    # the one-hot labels: subtracting a row takes 1 from the label's entry
    # and 0 from the rest, which leaves them bitwise as they were
    Y = np.eye(C)[y]  # (n_steps, K, C)
    samples = np.empty_like(W3)  # the step's samples, one copy per class
    prod = np.empty_like(W3)
    penalty = np.empty_like(W3)
    scores = np.empty((count, C))
    top = np.empty((count, 1))
    total = np.empty((count, 1))
    for a, x, labels, rate in zip(active, X[:, :, None, :], Y, _step_rates(schedule, starts, active, 2)):
        if a != size:
            size = a
            w, xs, g, pen, s, m, z = W3[:a], samples[:a], prod[:a], penalty[:a], scores[:a], top[:a], total[:a]
            classes = [s[:, c : c + 1] for c in range(C)]
            p = s[:, :, None]
        if a < count:
            x, labels = x[:a], labels[:a]
        np.copyto(xs, x)
        np.add.reduce(np.multiply(w, xs, out=g), axis=-1, out=s)
        np.maximum(classes[0], classes[1], out=m)
        for column in classes[2:]:
            np.maximum(m, column, out=m)
        s -= m
        np.exp(s, out=s)
        s /= np.add.reduce(s, axis=-1, keepdims=True, out=z)
        s -= labels
        np.multiply(p, xs, out=g)
        g += np.multiply(reg, w, out=pen)
        w -= np.multiply(rate, g, out=g)
