"""Server-side fusion of device parameters under pluggable weight schemes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEIGHT_KINDS = ("uniform", "size_proportional", "custom")


@dataclass(frozen=True)
class WeightScheme:
    """How the server weighs received updates.

    ``custom`` carries one fixed positive weight per device id (a zero could
    leave a round whose received weights sum to zero); the weights of the
    devices actually heard from are renormalised each round.
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


def weights(scheme: WeightScheme, ids: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Normalised non-negative weights of the devices ``ids``, summing to 1.

    ``sizes`` holds every device's sample count, indexed by device id.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if len(ids) == 0:
        raise ValueError("cannot weigh an empty update set")
    n = len(ids)
    if scheme.kind == "uniform":
        w = np.full(n, 1.0 / n)
    elif scheme.kind == "size_proportional":
        picked = np.asarray(sizes, dtype=np.float64)[ids]
        if picked.sum() <= 0:
            raise ValueError("size-proportional weights need positive shard sizes")
        w = picked / picked.sum()
    else:  # custom
        try:
            raw = np.asarray(scheme.custom, dtype=np.float64)[ids]
        except IndexError:
            raise ValueError("custom weights missing an entry for a device id") from None
        w = raw / raw.sum()
    w = w / w.sum()
    assert abs(float(w.sum()) - 1.0) <= 1e-12
    return w


def aggregate(params: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """Weighted sum of the rows of ``params``, one parameter vector per row."""
    if np.ndim(params) != 2:
        raise ValueError("params must be a 2-d array, one parameter vector per row")
    if len(params) != len(wts):
        raise ValueError("one weight per row required")
    return np.asarray(wts, dtype=np.float64) @ params
