"""Local stochastic gradient descent for the devices selected in a round.

``run_local_epochs`` trains every selected device at once: the parameters
are stacked as (K, param_dim), viewed as (K, C, d) with C = 1 for least
squares and ridge, and for every smooth objective a single loop over the
step index updates all devices whose index stream has not run out yet.
The kernel draws nothing: each device's sample-index stream comes from
``sample_indices`` on that device's own training generator, drawn ahead
for a block of rounds by the simulation's planner, so stream ownership and
determinism are those of a device-by-device loop.  Where each stream's
entries go in the kernel's step table depends on the shard sizes alone
(``StepLayout``); a ``Shards`` keeps the layout once built, so a simulation
whose batch of shards repeats from round to round builds it once.

Equivalence policy.  A device's trained parameters match chained calls of
the per-sample reference step ``sgd_step`` (in the test suite's
``tests/reference.py``) over the same index stream and rates to within
``max|delta| <= 1e-13 * max(1, max|ref|)``, not bitwise.  Within a call the
kernel holds row ``k`` as ``w = sigma * v``, where ``sigma`` is the product
of the row's weight decays ``1 - rate * reg`` so far: a step reads its
logits or residuals as one ``np.vecdot(v, sigma * x)`` per row and class,
scales the softmax residual or the residual by ``rate / (sigma * sigma')``
and subtracts its outer product with ``sigma * x`` from ``v``, and the row
returns ``sigma * v`` (``_sgd_steps``).  A row with a decay of the call
outside [1/2, 1], or whose product would fall below 2**-256, keeps ``sigma
== 1`` and multiplies ``w`` by each decay instead (``_decay_scales``).  As
``v`` is at most 2**256 times ``w``, a row within that factor of the top of
the float range may come back non-finite where the reference's stays
finite.  A logistic step shifts the logits by their class max only for a
row whose logits could overflow (``_unshifted_rows``).  Every operation acts
on each device's row alone, and in a call where other rows are shifted or
decayed explicitly a row that is not subtracts +0.0 or multiplies by 1.0,
so a device's result is bitwise independent of which other devices share
its batch, and of their order.  The step loop (``_sgd_steps``) is bitwise
equal to loops that allocate every intermediate and give every row its own
rate column, which ``tests/reference.py`` keeps (``sgd_steps``): it writes
into buffers allocated once per call, keeps ``np.add.reduce`` for the
class sums (numpy's pairwise order from 8 terms on), takes the class max
as column ``np.maximum`` calls (exact in any order), and multiplies by one
float per step when every row shares it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .objectives import Dataset, GradientUnavailableError, Objective, _unshifted_limit

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
    ``offsets``, its shard's first row in the pooled data.  ``norms`` is
    the largest row norm of its shard, which bounds the logistic logits
    (see ``_unshifted_rows``).
    """

    steps: np.ndarray
    rank: np.ndarray
    active: list[int]
    positions: np.ndarray
    bounds: np.ndarray
    offsets: np.ndarray
    norms: np.ndarray


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
    # each shard's largest row norm, over its rows gathered shard by shard
    sizes = shards.sizes
    heads = np.cumsum(sizes) - sizes
    rows = np.arange(int(sizes.sum())) + np.repeat(shards.starts - heads, sizes)
    norms = np.maximum.reduceat(shards.data.row_norms()[rows], heads)
    return StepLayout(steps, rank, active, positions, sizes[rank].astype(np.uintp), shards.starts[rank], norms[rank])


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
        return cls(Dataset(X, y, n_classes), starts, sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def dataset(self, k: int) -> Dataset:
        """Shard ``k`` as a view of its rows of ``data``, which copies nothing."""
        start = int(self.starts[k])
        rows = slice(start, start + int(self.sizes[k]))
        return Dataset(self.data.X[rows], self.data.y[rows], self.data.n_classes)

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
        _sgd_steps(W, X, y, layout, obj, schedule, starts)

    trained = np.empty_like(W)
    trained[rank] = W
    return trained, int(layout.steps.sum())


def _step_rates(schedule: LrSchedule, starts: np.ndarray, n_steps: int) -> np.ndarray:
    """Each step's rate for the rows of ``starts``: (n_steps, 1) when every
    row shares it, else (n_steps, K).

    Every row shares its rate under a constant schedule and when all the
    start steps are equal.
    """
    if schedule.kind == "constant" or (starts == starts[0]).all():
        return schedule.rates(int(starts[0]), n_steps)[:, None]
    return schedule.rates(starts, n_steps)


def _per_step(table: np.ndarray, active: list[int], trailing: int) -> list:
    """Row ``j`` of ``table`` (n_steps, 1 or K) for step ``j``: one float
    when the table has one column, else the active rows' column, shaped to
    broadcast over ``trailing`` axes.

    Numpy multiplies a float as the float64 that a column would hold, so
    both forms give the same bits.
    """
    if table.shape[1] == 1:
        return table[:, 0].tolist()
    table = table.reshape(*table.shape, *[1] * trailing)
    return [table[j, :a] for j, a in enumerate(active)]


# a row whose running decay would fall below this takes its decay explicitly
_SCALE_FLOOR = 2.0**-256


def _decay_scales(decays: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which rows take their weight decay explicitly, bool (K,), and the
    running decays ``sigma`` of the others, (n_steps + 1, columns).

    ``decays`` holds each step's ``1 - rate * reg``, one column per row
    (n_steps, K) or one that every row shares (n_steps, 1); row ``k`` takes
    ``steps[k]`` steps.  ``sigma[j]`` is the product of the first ``j``
    decays, taken in order, while every decay so far lies in [1/2, 1] and
    the product stays at or above ``_SCALE_FLOOR``, and constant from the
    first step at which either fails.  A row is lazy when that holds for
    all its own steps, so its ``sigma`` never reaches 0 and ``1 / sigma``
    grows its parameters at most 2**256-fold; every other row is explicit.

    A shared column, the common case, is multiplied out in Python floats,
    which round as numpy's float64 products do: over a call's few dozen
    steps that is quicker than a table's dozen array calls.
    """
    if decays.shape[1] == 1:
        sigma = [1.0]
        for decay in decays[:, 0].tolist():
            product = sigma[-1] * decay
            if not (0.5 <= decay <= 1.0 and product >= _SCALE_FLOOR):
                break
            sigma.append(product)
        explicit = steps >= len(sigma)
        sigma += sigma[-1:] * (len(decays) + 1 - len(sigma))
        return explicit, np.array(sigma)[:, None]
    kept = np.logical_and.accumulate((decays >= 0.5) & (decays <= 1.0))
    sigma = np.ones((len(decays) + 1, decays.shape[1]))
    np.cumprod(np.where(kept, decays, 1.0), axis=0, out=sigma[1:])
    kept &= sigma[1:] >= _SCALE_FLOOR  # sigma falls, so once below it stays below
    np.cumprod(np.where(kept, decays, 1.0), axis=0, out=sigma[1:])
    return ~kept[steps - 1, np.arange(len(steps))], sigma


def _unshifted_rows(
    W3: np.ndarray, layout: StepLayout, obj: Objective, schedule: LrSchedule, starts: np.ndarray
) -> np.ndarray:
    """Which rows of ``W3`` (K, C, d) may skip the class max shift at every
    step of the call: bool (K,).

    A step moves class row ``c`` of ``W`` by ``rate * (p_c - y_c) * x``,
    at most ``rate * ||x||`` in norm, and scales it by the decay
    ``1 - rate * reg``, at most 1 in size while ``0 <= rate * reg <= 2``.
    So while that holds, no logit of row ``k`` exceeds
    ``(max_c ||W_kc|| + xmax_k * steps_k * alpha_k) * xmax_k`` in size,
    where ``xmax_k`` is its shard's largest row norm and ``alpha_k`` its
    first rate, the largest of either schedule; below the limit
    ``_unshifted_limit(C)`` no exp or class sum can overflow.  A row whose
    parameters are not finite is never below it.
    """
    alphas = schedule.rates(starts, 1)[0]
    reach = layout.norms * layout.steps[layout.rank] * alphas
    bound = (np.sqrt((W3 * W3).sum(-1).max(-1)) + reach) * layout.norms
    return (bound < _unshifted_limit(obj.n_classes)) & (alphas * obj.reg <= 2.0)


def _sgd_steps(
    W: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    layout: StepLayout,
    obj: Objective,
    schedule: LrSchedule,
    starts: np.ndarray,
) -> None:
    """Step ``W`` (K, param_dim), viewed as (K, C, d) with ``C = 1`` for
    least squares and ridge, in place: at step ``j`` the leading
    ``layout.active[j]`` rows take one SGD step on the samples ``X[j]``,
    ``y[j]``, row ``k`` at the rate of its schedule's step ``starts[k] + j``.
    A step takes the scores ``vecdot(w, x)``, their softmax for the logistic
    objective alone, subtracts the targets (one-hot labels or regression
    targets), scales by the rate and subtracts the outer product with ``x``.
    ``X`` is the call's own table, which it scales in place.

    The weight decay ``1 - rate * reg`` is lazy: a row holds ``w = sigma *
    v``, with ``sigma`` the product of its decays so far (``_decay_scales``),
    so it reads its scores as ``vecdot(v, sigma * x)`` and subtracts
    ``rate / (sigma * sigma') * resid * (sigma * x)`` from ``v``, and no step
    touches ``w`` for the decay; the row returns ``sigma * v`` after its last
    step.  The sample table is scaled by ``sigma`` once, in place.  A row
    that the scales do not suit keeps ``sigma == 1`` and multiplies ``w`` by
    its decay each step; in a call with such a row, every other row
    multiplies by exactly 1.0, and a ``sigma`` of 1.0 divides the rates and
    scales the table and the rows without changing a bit.  So a step takes
    5 numpy calls for a quadratic objective and 8 for a logistic one, 6 and
    9 in a call with an explicit row.

    Every intermediate is written into a buffer allocated once for all the
    steps, and the views of the active rows are made once per active count,
    so the result is bitwise that of ``tests/reference.py``'s allocating
    loops.  A logistic step shifts the logits by their class max only in a
    call where some row needs it (``_unshifted_rows``), and then subtracts
    +0.0 from every row that does not, which leaves its logits bitwise as
    they were: a row's bits never depend on its batch-mates.
    """
    count, reg, active = len(W), obj.reg, layout.active
    steps = layout.steps[layout.rank]
    rates = _step_rates(schedule, starts, len(active))
    decays = final = None  # each step's explicit decays, and each row's final sigma
    if reg:
        decay = 1.0 - rates * reg
        explicit, sigma = _decay_scales(decay, steps)
        if explicit.any():
            sigma = np.where(explicit, 1.0, sigma)
            decays = np.where(explicit, decay, 1.0)
        rates = rates / (sigma[:-1] * sigma[1:])
        X *= sigma[:-1, :, None]
        final = sigma[steps, np.arange(count) if sigma.shape[1] > 1 else 0][:, None]
    coefs = _per_step(rates, active, 1)
    decays = [None] * len(active) if decays is None else _per_step(decays, active, 2)
    logistic, C = obj.is_classification, obj.n_classes or 1
    W3 = W.reshape(count, C, obj.dim)
    if logistic:
        unshifted = _unshifted_rows(W3, layout, obj, schedule, starts)
        shift = not unshifted.all()
        # the one-hot labels: subtracting a row takes 1 from the label's entry
        # and 0 from the rest, which leaves them bitwise as they were
        targets = np.eye(C)[y]  # (n_steps, K, C)
    else:
        shift = False
        targets = y[:, :, None]  # (n_steps, K, 1)
    prod = np.empty_like(W3)
    scores = np.empty((count, C))
    top, total = np.empty((2, count, 1))
    size = None
    for a, x, target, coef, decay in zip(active, X[:, :, None, :], targets, coefs, decays):
        if a != size:
            size = a
            w, g, s, z = W3[:a], prod[:a], scores[:a], total[:a]
            p = s[:, :, None]
            if shift:
                m, kept = top[:a], unshifted[:a, None]
                classes = [s[:, c : c + 1] for c in range(C)]
        if a < count:
            x, target = x[:a], target[:a]
        np.vecdot(w, x, out=s)
        if logistic:
            if shift:
                np.maximum(classes[0], classes[1], out=m)
                for column in classes[2:]:
                    np.maximum(m, column, out=m)
                s -= np.where(kept, 0.0, m)
            np.exp(s, out=s)
            s /= np.add.reduce(s, axis=-1, keepdims=True, out=z)
        s -= target
        s *= coef
        if decay is not None:
            w *= decay
        w -= np.multiply(p, x, out=g)
    if final is not None:
        W *= final
