"""Convergence-rate bounds for the annealed federated SGD loop and the
assembly of their measured inputs.

With strong convexity ``mu``, smoothness ``lam``, constant step ``alpha``
below ``1/(2*lam - mu)``, per-device gradient-variance bounds ``sigma_k^2``,
fusion weights ``eta_k``, at most ``q`` local steps between syncs, and initial
spread ``zeta = max_k E||w_0^k - w*||^2``, the fused model after t steps
satisfies

    E||w_hat_t - w*||^2  <=  (1 - alpha*mu)^(2t) * zeta
        + (alpha/mu) * sum_k eta_k^2 sigma_k^2
          * (1 - (1-alpha*mu)^(2q)) / (1 - exp(-c) (1-alpha*mu)^(2q)),

    c = (1 - p(1 - eps^2)) * ((1 - alpha(2*lam - mu)) / (1 - alpha*mu))^2.

The derivation of the mixing factor c assumes a compatible pairing of the
acceptance probability p and blend weight eps; the simulator treats both as
free configuration, and since p also varies over a run, the bound is
evaluated at p = 1, which minimises c and therefore maximises the bound (the
worst case).

With the decaying step ``alpha_t = alpha0/(t+1)`` two sublinear bounds of the
form c/(t+1) apply: one for strongly convex losses with
``(2-sqrt(2))/mu < alpha0 < (2+sqrt(2))/mu`` and
``c = max(2 alpha0^2 max_k sigma_k^2 / (2 - (2 - mu alpha0)^2), zeta)``, and
one for the quasi-convex regime with ``alpha0 > 1/mu`` bounding the
eta-weighted per-device error with
``c = max(alpha0^2 sum_k eta_k sigma_k^2 / (mu alpha0 - 1), weighted zeta)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import Dataset, Objective, curvature, hessian_bounds


def check_constant_step(alpha: float, mu: float, lam: float) -> None:
    """Raise ValueError unless the constant-step bound holds at step ``alpha``."""
    if not (lam >= mu > 0):
        raise ValueError("need lam >= mu > 0")
    if alpha <= 0 or alpha >= 1.0 / (2.0 * lam - mu):
        raise ValueError("constant-step bound requires 0 < alpha < 1/(2*lam - mu)")
    if alpha * mu >= 1.0:
        raise ValueError("need alpha * mu < 1")


def check_decaying_step(alpha0: float, mu: float) -> None:
    """Raise ValueError unless the strongly convex decaying-step bound holds
    at initial step ``alpha0``."""
    if mu <= 0:
        raise ValueError("mu must be > 0")
    lo, hi = (2.0 - math.sqrt(2.0)) / mu, (2.0 + math.sqrt(2.0)) / mu
    if not (lo < alpha0 < hi):
        raise ValueError(f"alpha0 must lie in ({lo:.6g}, {hi:.6g}) for this bound")


def _check_spread(zeta: float) -> None:
    if not (math.isfinite(zeta) and zeta >= 0):
        raise ValueError("zeta must be finite and >= 0")


@dataclass(frozen=True)
class BoundInputs:
    """Everything the constant-step bound consumes.

    ``sigma_sqs`` and ``etas`` are per-device; ``local_iterations`` is the
    largest number of SGD steps any device performs between syncs;
    ``selection_prob`` defaults to the worst case p = 1.
    """

    mu: float
    lam: float
    sigma_sqs: np.ndarray
    etas: np.ndarray
    alpha: float
    epsilon: float
    local_iterations: int
    zeta: float
    selection_prob: float = 1.0

    def __post_init__(self):
        check_constant_step(self.alpha, self.mu, self.lam)
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in [0, 1]")
        if not (0.0 <= self.selection_prob <= 1.0):
            raise ValueError("selection_prob must lie in [0, 1]")
        if self.local_iterations < 1:
            raise ValueError("local_iterations must be >= 1")
        _check_spread(self.zeta)
        if len(self.sigma_sqs) != len(self.etas):
            raise ValueError("sigma_sqs and etas must have one entry per device")
        if np.any(np.asarray(self.sigma_sqs) < 0):
            raise ValueError("sigma_sqs must be >= 0")
        if abs(float(np.sum(self.etas)) - 1.0) > 1e-9 or np.any(np.asarray(self.etas) < 0):
            raise ValueError("etas must be nonnegative and sum to 1")


def mixing_factor(alpha: float, mu: float, lam: float, epsilon: float, p: float) -> float:
    """The exponent c entering the constant-step bound's noise denominator."""
    contraction = (1.0 - alpha * (2.0 * lam - mu)) / (1.0 - alpha * mu)
    return (1.0 - p * (1.0 - epsilon**2)) * contraction**2


def theorem1_bound(inputs: BoundInputs, t: int) -> float:
    """Constant-step fused-model error bound after ``t`` steps."""
    if t < 0:
        raise ValueError("t must be >= 0")
    rho = 1.0 - inputs.alpha * inputs.mu
    c = mixing_factor(inputs.alpha, inputs.mu, inputs.lam, inputs.epsilon, inputs.selection_prob)
    decay = rho ** (2 * t) * inputs.zeta
    rho_q = rho ** (2 * inputs.local_iterations)
    noise_ratio = (1.0 - rho_q) / (1.0 - math.exp(-c) * rho_q)
    noise = (inputs.alpha / inputs.mu) * float(
        np.sum(np.asarray(inputs.etas) ** 2 * np.asarray(inputs.sigma_sqs))
    )
    return decay + noise * noise_ratio


def corollary1_constant(alpha0: float, mu: float, sigma_sq_max: float, zeta: float) -> float:
    """The constant c of the strongly convex decaying-step bound c/(t+1)."""
    check_decaying_step(alpha0, mu)
    if sigma_sq_max < 0:
        raise ValueError("sigma_sq_max must be >= 0")
    _check_spread(zeta)
    denom = 2.0 - (2.0 - mu * alpha0) ** 2
    return max(2.0 * alpha0**2 * sigma_sq_max / denom, zeta)


def corollary1_bound(c: float, t: int) -> float:
    """Decaying-step fused-model error bound c/(t+1)."""
    if c < 0 or t < 0:
        raise ValueError("need c >= 0 and t >= 0")
    return c / (t + 1.0)


def theorem3_constant(alpha0: float, mu: float, sigma_sqs, etas, zeta_weighted: float) -> float:
    """The constant c of the quasi-convex decaying-step bound c/(t+1)."""
    if mu <= 0:
        raise ValueError("mu must be > 0")
    if alpha0 <= 1.0 / mu:
        raise ValueError("this bound requires alpha0 > 1/mu")
    if zeta_weighted < 0:
        raise ValueError("zeta_weighted must be >= 0")
    noise = alpha0**2 * float(np.asarray(etas) @ np.asarray(sigma_sqs)) / (mu * alpha0 - 1.0)
    return max(noise, zeta_weighted)


def hessian_range(obj: Objective, shards: list[Dataset]) -> tuple[float, float]:
    """The smallest per-shard mu and the largest per-shard lam."""
    bounds = [hessian_bounds(obj, s) for s in shards]
    return min(mu for mu, _ in bounds), max(lam for _, lam in bounds)


def initial_spread(init_stacks: np.ndarray, w_star: np.ndarray) -> float:
    """zeta: the max over devices of the mean squared initial distance to
    ``w_star`` across runs.  ``init_stacks`` has shape (n_runs, n_devices,
    param_dim), or (n_devices, param_dim) for one run.  A spread beyond the
    float range comes out as inf, which every bound rejects."""
    stacks = np.asarray(init_stacks, dtype=np.float64)
    if stacks.ndim == 2:
        stacks = stacks[None, :, :]
    with np.errstate(over="ignore"):
        sq = ((stacks - w_star) ** 2).sum(axis=2)  # (runs, devices)
    return float(sq.mean(axis=0).max())


def measure_bound_inputs(
    obj: Objective,
    shards: list[Dataset],
    init_stacks: np.ndarray,
    w_star: np.ndarray,
    etas: np.ndarray,
    alpha: float,
    epsilon: float,
    local_iterations: int,
) -> BoundInputs:
    """Assemble bound inputs from measured quantities.

    ``init_stacks`` is passed to ``initial_spread``.  Curvature is worst-cased
    across shards (``hessian_range``).  The step size is checked against those
    bounds before any shard's ``sigma_sq`` is solved, so a bound that cannot
    hold costs no solve.
    """
    mu, lam = hessian_range(obj, shards)
    check_constant_step(alpha, mu, lam)
    return BoundInputs(
        mu=mu,
        lam=lam,
        sigma_sqs=np.array([curvature(obj, s).sigma_sq for s in shards]),
        etas=np.asarray(etas, dtype=np.float64),
        alpha=alpha,
        epsilon=epsilon,
        local_iterations=local_iterations,
        zeta=initial_spread(init_stacks, w_star),
    )
