"""The references that the batched code is tested against: one labelled
example, its loss and gradient, and one SGD step on it; the pooled
logistic solve in row-major layout; the batched SGD
kernel's step loops with a fresh array for every intermediate, in the
kernel's order (a row is held as ``w = sigma * v`` with ``sigma`` its
running weight decay, or decays ``w`` step by step where that does not
suit, and a logistic step shifts by the class max only the rows whose logit
bound fails); a sample-index stream drawn one epoch at a time; a block
of rounds planned device by device; and a partition drawn device by
device."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from safl_sim import Dataset, GradientUnavailableError, LrSchedule, Objective
from safl_sim.objectives import _check_param, _unshifted_limit, log_softmax
from safl_sim.partition import PartitionSpec, _check_sizes, _draw_sizes, _label_pool, _labels
from safl_sim.simulation import Devices, PreparedProblem, RoundDraws, ServerState, SimConfig
from safl_sim.training import StepLayout


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

    The reference stepper that ``run_local_epochs`` is tested against.  As
    the kernel does, it raises nothing for divergence: a step that leaves
    the finite range returns a non-finite row, with no numpy warning.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        return w - alpha * grad(obj, w, sample)


def row_major_gd(obj: Objective, dataset: Dataset, tol: float = 1e-10, max_iter: int = 200_000) -> tuple[np.ndarray, int]:
    """The logistic solve in row-major (m, C) layout, as it was written
    before the class-major one: the reference that ``optimum_oracle`` is
    tested against.  Returns the optimum and the number of gradient
    evaluations, the last of which met ``tol``."""
    X, m = dataset.X, len(dataset)
    lam = 0.5 * float(np.linalg.eigvalsh(X.T @ X / m)[-1]) + obj.reg
    step = 1.0 / lam
    w = np.zeros(obj.param_dim)
    rows = np.arange(m)
    for steps in range(1, max_iter + 1):
        P = np.exp(log_softmax(X @ w.reshape(obj.n_classes, obj.dim).T))
        P[rows, dataset.y] -= 1.0
        g = (P.T @ X).ravel() / m + obj.reg * w
        if float(np.linalg.norm(g)) <= tol:
            return w, steps
        w = w - step * g
    raise AssertionError("the reference did not converge")


def sgd_steps(
    W: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    layout: StepLayout,
    obj: Objective,
    schedule: LrSchedule,
    starts: np.ndarray,
) -> None:
    """The step loops of ``training.run_local_epochs`` allocating every
    intermediate afresh, with one rate per row at every step, as
    ``training._sgd_steps`` computes them into buffers: the reference it
    must equal bitwise.

    Row ``k`` holds ``w = sigma * v``, where ``sigma`` is the product of its
    decays ``1 - rate * reg`` so far, multiplied one step at a time, when
    every decay of its steps lies in [1/2, 1] and the product never falls
    below 2**-256; otherwise ``sigma`` is 1 for the whole call and the row
    multiplies ``w`` by its decay at every step, where in the same call
    every other row multiplies by 1.0.  A logistic row is shifted by its
    class max, at every step, when its logit bound reaches the limit or its
    decay could grow it; every other row subtracts +0.0 instead, which
    changes no bit.
    """
    count, reg, active = len(W), obj.reg, layout.active
    n_steps = len(active)
    alphas = schedule.rates(starts, n_steps)  # (n_steps, K)
    decays = 1.0 - alphas * reg
    steps = (np.array(active)[:, None] > np.arange(count)).sum(0)  # each row's step count
    explicit = np.zeros(count, dtype=bool)
    sigma = np.ones((n_steps + 1, count))  # a row's padding repeats its last sigma
    for k in range(count if reg else 0):
        product = 1.0
        for j in range(steps[k]):
            decay = float(decays[j, k])
            product *= decay
            if not (0.5 <= decay <= 1.0 and product >= 2.0**-256):
                explicit[k] = True
                sigma[:, k] = 1.0
                break
            sigma[j + 1 :, k] = product
    coefs = alphas / (sigma[:-1] * sigma[1:])
    decays = np.where(explicit, decays, 1.0)
    X = X * sigma[:-1, :, None]
    if obj.kind == "multinomial_logistic":
        C = obj.n_classes
        W = W.reshape(count, C, obj.dim)
        X = X[:, :, None, :]
        Y = np.eye(C)[y]  # (n_steps, K, C)
        bound = (np.sqrt((W * W).sum(-1).max(-1)) + layout.norms * steps * alphas[0]) * layout.norms
        shifted = ~((bound < _unshifted_limit(C)) & (alphas[0] * reg <= 2.0))
    for j, a in enumerate(active):
        w, x = W[:a], X[j, :a]
        if obj.kind in ("least_squares", "ridge"):
            r = (np.vecdot(w, x) - y[j, :a]) * coefs[j, :a]
            outer = r[:, None] * x
        else:
            scores = np.vecdot(w, x)
            scores -= np.where(shifted[:a, None], scores.max(-1, keepdims=True), 0.0)
            p = np.exp(scores)
            p /= p.sum(-1, keepdims=True)
            p -= Y[j, :a]
            p *= coefs[j, :a, None]
            outer = p[:, :, None] * x
        if explicit.any():
            w *= decays[j, :a].reshape(a, *[1] * (w.ndim - 1))
        w -= outer
    W *= sigma[-1].reshape(count, *[1] * (W.ndim - 1))


def sample_indices(m: int, epochs: int, order: str, rng: np.random.Generator) -> np.ndarray:
    """``epochs * m`` sample indices into a shard of ``m`` samples: draws with
    replacement, or one ``permutation(m)`` call per epoch.

    The reference that ``training.sample_indices`` is tested against, in
    values and in the generator state it leaves.
    """
    if order == "iid_draw":
        return rng.integers(0, m, size=epochs * m)
    return np.concatenate([rng.permutation(m) for _ in range(epochs)])


def plan_block(
    config: SimConfig, server: ServerState, devices: Devices, problem: PreparedProblem, count: int
) -> list[RoundDraws]:
    """The draws of the next ``count`` rounds, one chosen device at a time:
    a sorted server ``choice`` per round, then per chosen device one draw per
    stream, written to its slots by fancy indexing.

    The reference that ``simulation.plan_rounds`` is tested against; it
    draws from the server stream even when every device is chosen.
    """
    n, s = config.n, config.selected_per_round
    chosen = np.array([np.sort(server.rng.choice(n, size=s, replace=False)) for _ in range(count)])
    slots = chosen.ravel()  # selection slots, round-major
    # each chosen device's slots in round order, the order in which its one
    # draw for the block is consumed; the draw is written straight to them
    by_device = np.argsort(slots, kind="stable")
    counts = np.bincount(slots, minlength=n)
    picked = np.flatnonzero(counts)
    ends = np.cumsum(counts[picked]).tolist()
    owned = [by_device[start:end] for start, end in zip([0, *ends], ends)]

    indices = [None] * count
    if config.local_solver == "sgd":
        E, sizes = config.local_epochs, problem.train.sizes
        lengths = E * sizes[slots]  # sample indices per slot
        starts = np.cumsum(lengths) - lengths
        flat = np.empty(int(lengths.sum()), dtype=np.intp)
        for k, its in zip(picked.tolist(), owned):
            span = np.arange(E * sizes[k])
            draw = sample_indices(int(sizes[k]), E * len(its), config.sample_order, devices.train_rngs[k])
            flat[(starts[its, None] + span).ravel()] = draw
        indices = np.split(flat, starts[s::s])

    uniforms = [None] * count
    if config.algorithm != "fedavg":
        rows = np.empty((len(slots), config.anneal.mask_columns(config.objective.param_dim)))
        for k, its in zip(picked.tolist(), owned):
            rows[its] = devices.mask_rngs[k].random((len(its), rows.shape[1]))
        uniforms = rows.reshape(count, s, -1)
    return [RoundDraws(*draws) for draws in zip(chosen, indices, uniforms)]


def shard_indices(dataset: Dataset, spec: PartitionSpec, streams) -> list[np.ndarray]:
    """Each device's rows of ``dataset``, drawn from ``streams`` (the spec's
    four) one device at a time: its label subset, then
    ``choice(pool, m_k, replace=pool.size < m_k)``.

    The reference that ``partition._shard_indices`` is tested against, in
    values and in the generator states it leaves.
    """
    sizes_rng, labels_rng, draw_rng, _ = streams
    sizes = _draw_sizes(spec, sizes_rng)
    label_values = _labels(dataset, spec)
    _check_sizes(dataset, spec, sizes)

    pools: dict[tuple, np.ndarray] = {}
    shards: list[np.ndarray] = []
    for k in range(spec.n):
        m_k = sizes[k]
        if label_values is None:
            pool = np.arange(len(dataset))
        else:  # every label is present, so no pool is empty
            n_lab = 1 if k < spec.pure_count else int(labels_rng.integers(1, spec.max_labels_per_device + 1))
            chosen = labels_rng.choice(label_values, size=n_lab, replace=False)
            key = tuple(sorted(chosen.tolist()))
            if key not in pools:
                pools[key] = _label_pool(dataset.y, chosen, dataset.n_classes)
            pool = pools[key]
        shards.append(draw_rng.choice(pool, size=m_k, replace=pool.size < m_k))
    return shards
