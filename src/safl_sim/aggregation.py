"""Server-side fusion of device updates under pluggable weight schemes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEIGHT_KINDS = ("uniform", "size_proportional", "ida", "custom")


@dataclass(frozen=True)
class ModelUpdate:
    """One device's contribution: id, trained parameters, shard size."""

    device_id: int
    params: np.ndarray
    n_samples: int


@dataclass(frozen=True)
class WeightScheme:
    """How the server weighs received updates.

    ``custom`` carries one fixed positive weight per device id (a zero could
    leave a round whose received weights sum to zero); the weights of the
    devices actually heard from are renormalised each round.  ``ida`` weighs
    by inverse distance to a reference model (the previous global model).
    """

    kind: str = "uniform"
    custom: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight scheme {self.kind!r}")
        if self.kind == "custom":
            if not self.custom:
                raise ValueError("custom scheme requires per-device weights")
            if not all(c > 0 for c in self.custom):
                raise ValueError("custom weights must be > 0")
        elif self.custom is not None:
            raise ValueError("custom weights only apply to the custom scheme")


def weights(
    scheme: WeightScheme,
    updates: list[ModelUpdate],
    z_ref: np.ndarray | None = None,
) -> np.ndarray:
    """Normalised non-negative weights for ``updates``, summing to 1.

    For ``ida``, updates at zero distance from ``z_ref`` absorb the entire
    mass, split uniformly among themselves (the inverse distance is infinite
    there, so this is the limit behaviour).
    """
    if not updates:
        raise ValueError("cannot weigh an empty update set")
    n = len(updates)
    if scheme.kind == "uniform":
        w = np.full(n, 1.0 / n)
    elif scheme.kind == "size_proportional":
        sizes = np.array([float(u.n_samples) for u in updates])
        if sizes.sum() <= 0:
            raise ValueError("size-proportional weights need positive shard sizes")
        w = sizes / sizes.sum()
    elif scheme.kind == "ida":
        if z_ref is None:
            raise ValueError("ida weights need the previous global model as reference")
        dists = np.array([float(np.linalg.norm(z_ref - u.params)) for u in updates])
        zero = dists == 0.0
        if zero.any():
            w = np.where(zero, 1.0 / zero.sum(), 0.0)
        else:
            inv = 1.0 / dists
            w = inv / inv.sum()
    else:  # custom
        try:
            raw = np.array([float(scheme.custom[u.device_id]) for u in updates])
        except IndexError:
            raise ValueError("custom weights missing an entry for a device id") from None
        w = raw / raw.sum()
    w = w / w.sum()
    assert abs(float(w.sum()) - 1.0) <= 1e-12
    return w


def aggregate(updates: list[ModelUpdate], wts: np.ndarray) -> np.ndarray:
    """Weighted sum of the update parameter vectors."""
    if len(updates) != len(wts):
        raise ValueError("one weight per update required")
    dim = updates[0].params.shape
    if any(u.params.shape != dim for u in updates):
        raise ValueError("updates disagree on parameter dimension")
    stacked = np.stack([u.params for u in updates])
    return np.asarray(wts, dtype=np.float64) @ stacked
