"""Device shard construction with label skew and Gaussian-drawn shard sizes.

Each device k receives ``m_k = max(floor(x_k), 1)`` samples where
``x_k ~ Normal(mean_size, size_var)``, restricted to a label subset drawn
uniformly in size between 1 and ``max_labels_per_device``.  The first
``pure_count`` devices are forced to a single label (the biased-device
scenario).  Regression datasets have no labels to skew and are treated as a
single label class.

All randomness derives from ``PartitionSpec.seed`` alone, so a spec identifies
one partition regardless of caller threading.

Device k's rows are those of ``choice(pool, m_k, replace=pool.size < m_k)``
on the draw stream, in device order, with numpy's ``Generator.choice`` as
the definition.  The draws are made in whole arrays rather than one call per
device (``_batched_choice``): the rows are the same bit for bit, and every
stream ends in the same state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import Dataset


@dataclass(frozen=True)
class PartitionSpec:
    n: int
    mean_size: float
    size_var: float = 0.0
    max_labels_per_device: int = 1
    seed: int = 0
    pure_count: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("device count n must be >= 1")
        if not (self.mean_size > 0):
            raise ValueError("mean_size must be > 0")
        if not (self.size_var >= 0):
            raise ValueError("size_var must be >= 0")
        if self.max_labels_per_device < 1:
            raise ValueError("max_labels_per_device must be >= 1")
        if not (0 <= self.pure_count <= self.n):
            raise ValueError("pure_count must lie in [0, n]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _streams(spec: PartitionSpec):
    kids = np.random.SeedSequence(spec.seed).spawn(4)
    return tuple(np.random.default_rng(k) for k in kids)


def _draw_sizes(spec: PartitionSpec, rng: np.random.Generator) -> list[int]:
    draws = rng.normal(spec.mean_size, np.sqrt(spec.size_var), size=spec.n)
    # floored as floats, so a draw beyond int64 still becomes its exact Python int
    return list(map(int, np.maximum(np.floor(draws), 1.0).tolist()))


def sample_sizes(spec: PartitionSpec) -> list[int]:
    """Shard sizes m_k = max(floor(x_k), 1), x_k ~ Normal(mean_size, size_var)."""
    # child 0 alone: children are keyed by their index, so spawn(1)[0] is spawn(4)[0]
    return _draw_sizes(spec, np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(1)[0]))


# A shard may be drawn with replacement from a pool smaller than itself, but
# not beyond this many times the dataset's size: a larger draw is a typo or an
# overflow (a size near 1e150 could not be allocated, let alone drawn).
MAX_SHARD_FACTOR = 10

# The kernel gathers one round's samples of every job in lockstep as a step
# table that pads every selected shard's stream to the longest, so a round
# holds up to E times s times the longest training shard times the job count
# entries, capped at this many: above it the table alone takes gigabytes (E
# near 1e9 on the demo asks for terabytes), and a document that reaches it
# is rejected on load.
MAX_ROUND_STEPS = 2**24


def _check_sizes(dataset: Dataset, spec: PartitionSpec, sizes: list[int]) -> None:
    limit = MAX_SHARD_FACTOR * len(dataset)
    biggest = max(sizes)
    if biggest > limit:
        raise ValueError(
            f"a shard size drawn from mean_size {spec.mean_size:g} and size_var {spec.size_var:g} "
            f"is {biggest:.3g}, above the limit of {limit} ({MAX_SHARD_FACTOR} times the "
            f"{len(dataset)} samples of the dataset)"
        )


def holdout_sizes(sizes, holdout_fraction: float) -> np.ndarray:
    """Samples of each shard of ``sizes`` samples that go to its holdout:
    ``floor(m * holdout_fraction)``, leaving at least one to train on."""
    sizes = np.asarray(sizes)
    return np.minimum(np.floor(sizes * holdout_fraction).astype(np.intp), sizes - 1)


def _labels(dataset: Dataset, spec: PartitionSpec) -> np.ndarray | None:
    """The labels ``dataset`` holds (None for regression).  Raises ValueError
    when ``spec`` caps label subsets above their count."""
    if not dataset.is_classification:
        return None
    labels = dataset.labels()
    if spec.max_labels_per_device > labels.size:
        raise ValueError("max_labels_per_device exceeds the number of labels present")
    return labels


def check_fits(dataset: Dataset, spec: PartitionSpec) -> list[int]:
    """The shard sizes ``spec`` draws (``sample_sizes``).  Raises ValueError
    when ``spec`` caps label subsets above the labels ``dataset`` holds, or
    draws a shard above ``MAX_SHARD_FACTOR`` times its size."""
    _labels(dataset, spec)
    sizes = sample_sizes(spec)
    _check_sizes(dataset, spec, sizes)
    return sizes


def _label_pool(labels: np.ndarray, chosen: np.ndarray, n_classes: int) -> np.ndarray:
    """Sorted indices of the samples whose label is in ``chosen``."""
    in_chosen = np.zeros(n_classes, dtype=bool)
    in_chosen[chosen] = True
    return np.flatnonzero(in_chosen[labels])


def _device_pools(
    dataset: Dataset, spec: PartitionSpec, labels: np.ndarray | None, labels_rng: np.random.Generator
) -> tuple[list[np.ndarray], np.ndarray]:
    """The pools the devices draw from, each distinct label subset scanned
    once, and each device's pool number.

    The pure devices come first in the labels stream, and each one's subset,
    ``choice(labels, size=1, replace=False)``, is one draw in ``[0, L - 1]``
    for the L labels present: the draw ``integers`` makes, so they take one
    call.  A non-pure device's subset size decides the bounds of the draws
    after it, so it keeps its own ``integers`` and ``choice`` calls.
    """
    if labels is None:
        return [np.arange(len(dataset))], np.zeros(spec.n, dtype=np.intp)
    numbers: dict[tuple, int] = {}
    pools: list[np.ndarray] = []

    def number(chosen: np.ndarray) -> int:
        key = tuple(sorted(chosen.tolist()))
        if key not in numbers:
            numbers[key] = len(pools)
            pools.append(_label_pool(dataset.y, chosen, dataset.n_classes))
        return numbers[key]

    picks = labels_rng.integers(0, labels.size, size=spec.pure_count)
    by_pick = np.zeros(labels.size, dtype=np.intp)
    for i in np.flatnonzero(np.bincount(picks, minlength=labels.size)).tolist():
        by_pick[i] = number(labels[i : i + 1])
    pool_of = np.empty(spec.n, dtype=np.intp)
    pool_of[: spec.pure_count] = by_pick[picks]
    for k in range(spec.pure_count, spec.n):
        n_lab = int(labels_rng.integers(1, spec.max_labels_per_device + 1))
        pool_of[k] = number(labels_rng.choice(labels, size=n_lab, replace=False))
    return pools, pool_of


def _batched_choice(rng: np.random.Generator, pop: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``concatenate([rng.choice(p, k, replace=p < k) for p, k in zip(pop, m)])``,
    bitwise and leaving ``rng`` in the same state, from one ``integers``
    call, for devices none of which takes ``choice``'s tail shuffle.

    With replacement, ``choice`` makes k draws in ``[0, p - 1]``.  Without,
    it runs Floyd's algorithm: draw t = 0 .. k - 1 lies in ``[0, j]`` for
    ``j = p - k + t``, and a value already taken is replaced by j.  It then
    shuffles the k values (Fisher-Yates): for i = k - 1 .. 1, a draw in
    ``[0, i]`` names the place swapped with place i.  Each is the draw that
    ``integers`` makes with that bound, so the devices' bounds concatenated
    give every draw from one call.  Floyd's rule can only fire for a device
    whose picks repeat, and those few are resolved one by one.  The
    shuffles run as one loop over the swaps' steps, each step swapping in
    every device still shuffling: their places never meet.
    """
    replace = pop < m
    swaps = np.where(replace, 0, m - 1)
    # each device's bounds are two runs: its picks, from p - k up by one (or
    # p - 1 throughout, with replacement), then its swaps, from k - 1 down
    lengths = np.stack([m, swaps], axis=1).ravel()
    firsts = np.stack([np.where(replace, pop - 1, pop - m), m - 1], axis=1).ravel()
    slopes = np.stack([~replace, np.full(m.size, -1)], axis=1).ravel()
    starts = np.cumsum(lengths) - lengths
    total = starts[-1] + lengths[-1]
    bounds = np.repeat(firsts - slopes * starts, lengths) + np.repeat(slopes, lengths) * np.arange(total)
    draws = rng.integers(0, bounds, endpoint=True)
    head = np.repeat(np.arange(lengths.size) % 2 == 0, lengths)  # the picks; the rest are swaps
    values = draws[head]  # each device's k picks, concatenated

    # Floyd's rule first fires on a pick equal to an earlier one, so only a
    # device with a repeated pick can meet it
    start = np.cumsum(m) - m
    span = int(pop.max())
    keys = np.sort(np.repeat(np.arange(m.size) * span, m) + values)  # repeats are neighbours
    repeated = np.zeros(m.size, dtype=bool)
    repeated[keys[1:][keys[1:] == keys[:-1]] // span] = True
    for k in np.flatnonzero(repeated & ~replace).tolist():
        picks = values[start[k] : start[k] + m[k]].tolist()
        taken: set[int] = set()
        for t, value in enumerate(picks):
            if value in taken:
                picks[t] = value = int(pop[k] - m[k]) + t
            taken.add(value)
        values[start[k] : start[k] + m[k]] = picks

    # A device's swap s exchanges place i = k - 1 - s, its bound, with its
    # draw.  The swaps are laid out step by step, and within a step by the
    # devices' rank in swap count, longest first, so the devices swapping at
    # step s are the first active[s]; each step lists its places, then the
    # places they swap with.
    offset = np.repeat(start, swaps)
    places, partners = bounds[~head], draws[~head] + offset
    step = np.repeat(m - 1, swaps) - places
    places += offset
    rank = np.empty(m.size, dtype=np.intp)
    rank[np.argsort(-swaps, kind="stable")] = np.arange(m.size)
    active = np.cumsum(np.bincount(swaps)[:0:-1])[::-1]  # the devices swapping at each step
    ends = np.cumsum(2 * active)
    slot = (ends - 2 * active)[step] + np.repeat(rank, swaps)
    pair = slot + active[step]
    into, out_of = np.empty(2 * places.size, dtype=np.int64), np.empty(2 * places.size, dtype=np.int64)
    into[slot], into[pair] = places, partners
    out_of[slot], out_of[pair] = partners, places
    lo = 0
    for hi in ends.tolist():
        values[into[lo:hi]] = values[out_of[lo:hi]]
        lo = hi
    return values


def _shard_indices(dataset: Dataset, spec: PartitionSpec, streams=None) -> list[np.ndarray]:
    """Each device's rows of ``dataset``, ``len == m_k`` exactly, drawn from
    ``streams`` (the spec's four, ``_streams``; fresh ones by default).

    Samples are drawn without replacement from the label-restricted pool when
    it is large enough, with replacement otherwise: device k's draws are
    ``choice(pool, m_k, replace=pool.size < m_k)``, made in device order.
    A pool depends only on its label subset, so each distinct subset is
    scanned once.  The draws come in whole arrays (``_batched_choice``),
    bitwise.  numpy's ``choice`` without replacement shuffles the whole of
    ``arange(pop)`` when the pool holds more than 10000 rows and m_k is above
    ``pop // 50``; such a device takes that call itself, in stream order,
    and the devices between two of them draw together.  The rows are
    gathered once from the pools concatenated.
    """
    sizes_rng, labels_rng, draw_rng, _ = _streams(spec) if streams is None else streams
    sizes = _draw_sizes(spec, sizes_rng)
    label_values = _labels(dataset, spec)
    _check_sizes(dataset, spec, sizes)
    pools, pool_of = _device_pools(dataset, spec, label_values, labels_rng)

    pool_sizes = np.array([pool.size for pool in pools])
    pop, m = pool_sizes[pool_of], np.array(sizes)
    ends = np.cumsum(m)
    starts = ends - m
    local = np.empty(ends[-1], dtype=np.int64)  # each device's draws into its pool
    begin = 0
    for tail in np.flatnonzero((pop >= m) & (pop > 10000) & (m > pop // 50)).tolist() + [spec.n]:
        if begin < tail:
            local[starts[begin] : ends[tail - 1]] = _batched_choice(draw_rng, pop[begin:tail], m[begin:tail])
        if tail < spec.n:
            local[starts[tail] : ends[tail]] = draw_rng.choice(int(pop[tail]), sizes[tail], replace=False)
        begin = tail + 1
    offsets = np.cumsum(pool_sizes) - pool_sizes
    rows = np.concatenate(pools)[local + np.repeat(offsets[pool_of], m)]
    return [rows[a:b] for a, b in zip(starts.tolist(), ends.tolist())]


def partition(dataset: Dataset, spec: PartitionSpec) -> list[Dataset]:
    """Build the n label-restricted shards; ``|shard_k| == m_k`` exactly."""
    return [dataset.subset(idx) for idx in _shard_indices(dataset, spec)]


def partition_with_holdout(
    dataset: Dataset, spec: PartitionSpec, holdout_fraction: float
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Partition, then split each shard into training and holdout rows, index arrays into ``dataset``.

    The holdout takes ``floor(m_k * holdout_fraction)`` samples (possibly
    zero), leaving at least one training sample.  The split is driven by the
    partition seed, so every run over the same spec sees the same split.
    """
    if not (0.0 <= holdout_fraction < 1.0):
        raise ValueError("holdout_fraction must lie in [0, 1)")
    streams = _streams(spec)
    split_rng = streams[3]
    perms = [idx[split_rng.permutation(idx.size)] for idx in _shard_indices(dataset, spec, streams)]
    holds = holdout_sizes([perm.size for perm in perms], holdout_fraction).tolist()
    return [perm[n:] for perm, n in zip(perms, holds)], [perm[:n] for perm, n in zip(perms, holds)]
