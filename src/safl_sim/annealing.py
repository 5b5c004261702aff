"""Annealed acceptance schedule and per-coordinate local/global mixing.

A device that receives the broadcast model blends it with its own update
coordinate-wise through a mask whose entries are ``epsilon`` with probability
``p = exp(-t / temperature)`` and 1 otherwise.  Early on (p near 1) the blend
leans on the local update; as t grows the mask entries collapse to 1 and the
device adopts the broadcast model outright, which is exactly the plain
federated-averaging update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MASK_MODES = ("per_coordinate", "scalar")


@dataclass(frozen=True)
class AnnealConfig:
    """Schedule knobs: ``temperature`` (decay constant, in communication
    rounds) and ``epsilon`` (blend weight).

    ``mask_mode`` draws the blend mask per coordinate (default) or as a single
    Bernoulli shared by all coordinates.
    """

    temperature: float = 10.0
    epsilon: float = 0.5
    mask_mode: str = "per_coordinate"

    def __post_init__(self):
        if not (self.temperature > 0):
            raise ValueError("temperature must be > 0")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in [0, 1]")
        if self.mask_mode not in MASK_MODES:
            raise ValueError(f"unknown mask_mode {self.mask_mode!r}")


def selection_probability(t: float, temperature: float) -> float:
    """Probability ``exp(-t / temperature)`` of taking the local-leaning value."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    return math.exp(-t / temperature)


def sample_mask(
    dim: int,
    p: float,
    epsilon: float,
    rng: np.random.Generator,
    mode: str = "per_coordinate",
) -> np.ndarray:
    """Blend mask of length ``dim``: entries are ``epsilon`` w.p. p, else 1."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    if mode == "per_coordinate":
        return np.where(rng.random(dim) < p, epsilon, 1.0)
    if mode == "scalar":
        return np.full(dim, epsilon if rng.random() < p else 1.0)
    raise ValueError(f"unknown mask mode {mode!r}")


def mix(mask: np.ndarray, global_params: np.ndarray, local_params: np.ndarray) -> np.ndarray:
    """Coordinate-wise blend ``mask * global + (1 - mask) * local``.

    ``mask`` and ``local_params`` share one shape: (P,) for one device, or
    (k, P) for k devices blending the one (P,) global model.
    """
    if global_params.ndim != 1 or mask.shape != local_params.shape or mask.shape[-1:] != global_params.shape:
        raise ValueError("mask and local parameters must share one shape, ending in the global model's")
    return mask * global_params + (1.0 - mask) * local_params
