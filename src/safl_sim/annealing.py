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

    def mask_columns(self, dim: int) -> int:
        """Uniforms a device draws per round for its mask: one per coordinate,
        or one for a scalar mask."""
        return dim if self.mask_mode == "per_coordinate" else 1


def selection_probability(t: float, temperature: float) -> float:
    """Probability ``exp(-t / temperature)`` of taking the local-leaning value."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    return math.exp(-t / temperature)


def sample_mask(uniforms: np.ndarray, p: float, epsilon: float, dim: int) -> np.ndarray:
    """Blend masks of a round's devices from their uniforms, shape (k, dim),
    or (J, k, dim) for the devices of J jobs.

    Row ``i`` is ``epsilon`` where ``uniforms[i] < p`` and 1 elsewhere.
    ``uniforms`` is (k, dim) for per-coordinate masks, or (k, 1) for scalar
    masks, whose one draw covers every coordinate (see
    ``AnnealConfig.mask_columns``), with a leading job axis if stacked.
    Comparing a uniform against ``p`` is a Bernoulli(p) draw, so the draws
    can be made ahead of the round's ``p``.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    if uniforms.ndim not in (2, 3) or uniforms.shape[-1] not in (1, dim):
        raise ValueError(f"uniforms must have shape ([J,] k, {dim}) or ([J,] k, 1), not {uniforms.shape}")
    masks = np.where(uniforms < p, epsilon, 1.0)
    if uniforms.shape[-1] == dim:
        return masks
    return np.broadcast_to(masks, (*uniforms.shape[:-1], dim))


def mix(mask: np.ndarray, global_params: np.ndarray, local_params: np.ndarray) -> np.ndarray:
    """Coordinate-wise blend ``mask * global + (1 - mask) * local``.

    ``mask`` and ``local_params`` share one shape: (P,) for one device, (k, P)
    for k devices blending the one (P,) global model, or (J, k, P) for the k
    devices of each of J jobs, each job's blending its own row of the
    (J, P) global models.
    """
    expected = mask.shape[:-2] + mask.shape[-1:]
    if mask.ndim > 3 or mask.shape != local_params.shape or global_params.shape != expected:
        raise ValueError("mask and local parameters must share one shape, ending in the global model's")
    if mask.ndim == 3:
        global_params = global_params[:, None, :]
    return mask * global_params + (1.0 - mask) * local_params
