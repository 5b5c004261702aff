"""Server-side fusion of device parameters under pluggable weight schemes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WEIGHT_KINDS = ("uniform", "size_proportional", "custom")


@dataclass(frozen=True)
class WeightScheme:
    """How the server weighs received updates.

    ``custom`` carries one fixed positive weight per device id (a zero could
    leave a round whose received weights sum to zero), with a finite sum;
    the weights of the devices actually heard from are renormalised each
    round.
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
            if not math.isfinite(sum(self.custom)):  # a round's renormalising sum would overflow
                raise ValueError("custom weights must have a finite sum")
        elif self.custom is not None:
            raise ValueError("custom weights only apply to the custom scheme")


def weights(scheme: WeightScheme, ids: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Normalised non-negative weights of the devices ``ids``, summing to 1.

    ``sizes`` holds every device's sample count, indexed by device id.
    ``ids`` is one set of devices (k,), or one row of ``k`` devices per job
    (J, k), weighed row by row; each row's weights are bitwise those the row
    gets alone, since every sum runs along the contiguous last axis.
    """
    ids = np.asarray(ids, dtype=np.intp)
    n = ids.shape[-1]
    if n == 0:
        raise ValueError("cannot weigh an empty update set")
    if scheme.kind == "uniform":
        w = np.full(ids.shape, 1.0 / n)
    elif scheme.kind == "size_proportional":
        picked = np.asarray(sizes, dtype=np.float64)[ids]
        total = picked.sum(axis=-1, keepdims=True)
        if (total <= 0).any():
            raise ValueError("size-proportional weights need positive shard sizes")
        w = picked / total
    else:  # custom
        try:
            raw = np.asarray(scheme.custom, dtype=np.float64)[ids]
        except IndexError:
            raise ValueError("custom weights missing an entry for a device id") from None
        w = raw / raw.sum(axis=-1, keepdims=True)
    w = w / w.sum(axis=-1, keepdims=True)
    assert (abs(w.sum(axis=-1) - 1.0) <= 1e-12).all()
    return w


def aggregate(params: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """Weighted sum of the rows of ``params``, one parameter vector per row.

    ``params`` (k, P) with weights (k,) gives one (P,) model; a stack of J
    jobs' rows (J, k, P) with weights (J, k) gives each job's model, (J, P),
    bitwise the one its rows give alone.  Each job's rows are fused with its
    own weights, so jobs with different numbers of rows are fused apart:
    zero-padding them to one ``k`` would change the sums' bits.
    """
    params = np.asarray(params)
    wts = np.asarray(wts, dtype=np.float64)
    if params.ndim not in (2, 3) or params.ndim != wts.ndim + 1:
        raise ValueError(
            "params must be a 2-d array of rows with (k,) weights, or a (J, k, P) stack with (J, k) weights"
        )
    if params.shape[:-1] != wts.shape:
        raise ValueError("one weight per row required")
    return (wts[..., None, :] @ params)[..., 0, :]
