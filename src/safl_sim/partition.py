"""Device shard construction with label skew and Gaussian-drawn shard sizes.

Each device k receives ``m_k = max(floor(x_k), 1)`` samples where
``x_k ~ Normal(mean_size, size_var)``, restricted to a label subset drawn
uniformly in size between 1 and ``max_labels_per_device``.  The first
``pure_count`` devices are forced to a single label (the biased-device
scenario).  Regression datasets have no labels to skew and are treated as a
single label class.

All randomness derives from ``PartitionSpec.seed`` alone, so a spec identifies
one partition regardless of caller threading.
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
    sizes_rng, _, _, _ = _streams(spec)
    return _draw_sizes(spec, sizes_rng)


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


def _shard_indices(dataset: Dataset, spec: PartitionSpec) -> list[np.ndarray]:
    """Each device's rows of ``dataset``, ``len == m_k`` exactly.

    Samples are drawn without replacement from the label-restricted pool when
    it is large enough, with replacement otherwise.  A pool depends only on
    its label subset, so each distinct subset is scanned once.
    """
    sizes_rng, labels_rng, draw_rng, _ = _streams(spec)
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
    _, _, _, split_rng = _streams(spec)
    perms = [idx[split_rng.permutation(idx.size)] for idx in _shard_indices(dataset, spec)]
    holds = holdout_sizes([perm.size for perm in perms], holdout_fraction).tolist()
    return [perm[n:] for perm, n in zip(perms, holds)], [perm[:n] for perm, n in zip(perms, holds)]
