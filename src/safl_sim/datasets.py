"""Synthetic task generators and the CSV dataset interchange format.

The CSV form is one row per sample with header ``f0,...,f{d-1},label``.  The
label column holds integer class indices for classification data and float
targets for regression; the reader decides which by the ``n_classes``
argument.
"""

from __future__ import annotations

import csv

import numpy as np

from .objectives import Dataset


def _check_draw(samples: int, dim: int, seed: int) -> None:
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")


def make_linear_regression(
    samples: int,
    dim: int,
    *,
    feature_scale: float = 1.0,
    coef_scale: float = 1.0,
    noise_std: float = 0.0,
    seed: int = 0,
) -> Dataset:
    """Gaussian features with targets ``y = X w_true + noise``.

    ``noise_std = 0`` gives noiseless labels: x'w_true interpolates every
    sample exactly, so the least-squares risk at w_true is zero.
    """
    _check_draw(samples, dim, seed)
    if noise_std < 0:
        raise ValueError("noise_std must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    X = feature_scale * rng.standard_normal((samples, dim))
    w_true = coef_scale * rng.standard_normal(dim)
    y = X @ w_true
    if noise_std > 0:
        y = y + noise_std * rng.standard_normal(samples)
    return Dataset(X, y)


def make_blobs(
    samples: int,
    dim: int,
    classes: int,
    *,
    separation: float = 2.0,
    cluster_std: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Gaussian class clusters with balanced labels (round-robin remainder)."""
    _check_draw(samples, dim, seed)
    if classes < 2:
        raise ValueError("classes must be >= 2")
    if cluster_std < 0:
        raise ValueError("cluster_std must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    centers = separation * rng.standard_normal((classes, dim))
    y = np.arange(samples) % classes
    rng.shuffle(y)
    X = centers[y] + cluster_std * rng.standard_normal((samples, dim))
    return Dataset(X, y, n_classes=classes)


def save_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{j}" for j in range(dataset.dim)] + ["label"])
        for i in range(len(dataset)):
            row = [f"{v:.17g}" for v in dataset.X[i]]
            if dataset.is_classification:
                row.append(str(int(dataset.y[i])))
            else:
                row.append(f"{dataset.y[i]:.17g}")
            writer.writerow(row)


def load_csv(path, *, n_classes: int | None = None) -> Dataset:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "label" or len(header) < 2:
            raise ValueError("dataset CSV must have header f0,...,f{d-1},label")
        d = len(header) - 1
        if header[:d] != [f"f{j}" for j in range(d)]:
            raise ValueError("dataset CSV feature columns must be named f0..f{d-1}")
        feats, targets = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != d + 1:
                raise ValueError(f"dataset CSV row has {len(row)} fields, expected {d + 1}")
            feats.append([float(v) for v in row[:d]])
            targets.append(float(row[d]))
    X = np.asarray(feats, dtype=np.float64).reshape(len(feats), d)
    y = np.asarray(targets)
    return Dataset(X, y, n_classes)
