"""Convex learning objectives: risks, per-sample gradients, curvature and solvable optima.

Four loss families are supported:

* ``least_squares``   f(w; x, y) = 0.5 (x'w - y)^2
* ``ridge``           least squares plus 0.5 * reg * ||w||^2
* ``lasso``           (y - x'w)^2 + reg * ||w||_1  (non-smooth, oracle-only)
* ``multinomial_logistic``  cross-entropy over C classes plus 0.5 * reg * ||w||^2,
  parameters stored as a flat vector of length C * d

The smooth families carry Hessian eigenvalue bounds (strong convexity mu,
smoothness lam) and a per-device stochastic-gradient variance estimate, which
downstream convergence-bound evaluation consumes.  The lasso family exists for
the two-device toy problem whose optima are exact rationals; it cannot be
trained by gradient steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

OBJECTIVE_KINDS = ("least_squares", "ridge", "lasso", "multinomial_logistic")


class GradientUnavailableError(TypeError):
    """Gradient or curvature requested for a non-smooth objective."""


class ConvergenceError(RuntimeError):
    """Iterative solver exhausted its iteration budget."""


class DistinctRows(NamedTuple):
    """A dataset's distinct (x, y) rows, in order of first appearance
    (``_distinct_rows``): their features class-major as a C-contiguous
    (d, k) array ``XT``, their labels ``y`` (k,), and ``counts`` (k,), how
    many rows of the dataset each stands for, as float64 summing to m."""

    XT: np.ndarray
    y: np.ndarray
    counts: np.ndarray


class Dataset:
    """In-memory dataset: features ``X`` of shape (m, d) and targets ``y`` of shape (m,).

    ``n_classes`` is set for classification data (integer labels in
    ``[0, n_classes)``) and ``None`` for regression targets.  Every target
    must be finite, and so must the sum of the squared features, which
    keeps every entry of ``X'X`` finite.  Every construction runs these
    checks.  Arrays already C-contiguous in the stored dtype (``float64``
    features; ``int64`` labels or ``float64`` targets) are kept as given,
    not copied, so a shard cut from a read-only pooled set is a view of it
    and stays read-only.
    """

    __slots__ = ("X", "y", "n_classes", "_distinct", "_norms")

    def __init__(self, X: np.ndarray, y: np.ndarray, n_classes: int | None = None):
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array of shape (m, d)")
        with np.errstate(over="ignore"):  # an overflow reads as inf
            square_sum = float(X.ravel() @ X.ravel())
        if not math.isfinite(square_sum):
            if not np.isfinite(X).all():
                raise ValueError("features must be finite")
            raise ValueError("features are too large: their sum of squares overflows")
        y = np.asarray(y)
        integral = y.dtype.kind in "iu"
        if not (integral or np.isfinite(y).all()):
            raise ValueError("targets must be finite")
        if n_classes is not None:
            if n_classes < 2:
                raise ValueError("n_classes must be >= 2")
            if not (integral or np.array_equal(y, np.trunc(y))):
                raise ValueError("class labels must be integers")
            if y.size and (y.min() < 0 or y.max() >= n_classes):
                raise ValueError("class labels must lie in [0, n_classes)")
            y = np.ascontiguousarray(y, dtype=np.int64)
        else:
            y = np.ascontiguousarray(y, dtype=np.float64)
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("y must be 1-d with one entry per row of X")
        self.X = X
        self.y = y
        self.n_classes = n_classes
        self._distinct = self._norms = None

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def is_classification(self) -> bool:
        return self.n_classes is not None

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.X[idx], self.y[idx], self.n_classes)

    def labels(self) -> np.ndarray:
        """Distinct class labels present, sorted."""
        if not self.is_classification:
            raise ValueError("labels() requires classification data")
        return np.flatnonzero(np.bincount(self.y, minlength=self.n_classes))

    def distinct(self) -> DistinctRows:
        """The table of this dataset's distinct (x, y) rows.

        Built on the first call and kept when ``X`` and ``y`` are read-only,
        as every pooled set is, so the pooled logistic solve and every
        round's accuracy read one table; built afresh on each call while
        either array is writable, since its rows could still change.
        """
        if self._distinct is not None:
            return self._distinct
        rows, counts = _distinct_rows(self.X, self.y)
        table = DistinctRows(np.ascontiguousarray(self.X[rows].T), self.y[rows], counts)
        if not (self.X.flags.writeable or self.y.flags.writeable):
            self._distinct = table
        return table

    def row_norms(self) -> np.ndarray:
        """Each row's Euclidean norm, (m,).

        Kept, read-only, when ``X`` is read-only, as ``distinct`` is, so the
        SGD kernel's step layouts over a pooled set read one array; computed
        afresh on each call while ``X`` is writable.
        """
        if self._norms is not None:
            return self._norms
        norms = np.sqrt(np.einsum("ij,ij->i", self.X, self.X))
        if not self.X.flags.writeable:
            norms.setflags(write=False)
            self._norms = norms
        return norms


@dataclass(frozen=True)
class Objective:
    """A loss family over parameter vectors of length ``param_dim``.

    ``dim`` is the feature dimension; multinomial logistic flattens its
    (n_classes, dim) weight matrix row-major into a single vector.
    """

    kind: str
    dim: int
    reg: float = 0.0
    n_classes: int | None = None

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind in ("ridge", "lasso", "multinomial_logistic") and self.reg <= 0:
            raise ValueError(f"{self.kind} requires reg > 0")
        if self.kind == "least_squares" and self.reg != 0.0:
            raise ValueError("least_squares does not take a regulariser; use ridge")
        if self.kind == "multinomial_logistic":
            if self.n_classes is None or self.n_classes < 2:
                raise ValueError("multinomial_logistic requires n_classes >= 2")
        elif self.n_classes is not None:
            raise ValueError(f"{self.kind} does not take n_classes")

    @property
    def param_dim(self) -> int:
        if self.kind == "multinomial_logistic":
            return self.dim * self.n_classes
        return self.dim

    @property
    def is_smooth(self) -> bool:
        return self.kind != "lasso"

    @property
    def is_classification(self) -> bool:
        return self.kind == "multinomial_logistic"


@dataclass(frozen=True)
class CurvatureBounds:
    """Hessian eigenvalue bounds and a per-sample gradient variance estimate.

    ``sigma_sq`` is the max over samples of the squared deviation between the
    per-sample gradient and the full gradient, both evaluated at the dataset
    optimum.  It upper-bounds the trace of the single-draw stochastic-gradient
    covariance at that point.
    """

    mu: float
    lam: float
    sigma_sq: float

    def __post_init__(self):
        if not (self.lam >= self.mu >= 0.0):
            raise ValueError("curvature bounds need lam >= mu >= 0")
        if self.sigma_sq < 0.0:
            raise ValueError("sigma_sq must be >= 0")


def _check_param(obj: Objective, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (obj.param_dim,):
        raise ValueError(f"parameter vector has shape {w.shape}, expected ({obj.param_dim},)")
    return w


def _check_params(obj: Objective, w: np.ndarray) -> np.ndarray:
    """One parameter vector (param_dim,), or a stack of them (J, param_dim)."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim not in (1, 2) or w.shape[-1] != obj.param_dim:
        raise ValueError(f"parameters have shape {w.shape}, expected ({obj.param_dim},) or (J, {obj.param_dim})")
    return w


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of two vectors, or of each pair of rows of two stacks: one
    BLAS dot per pair, so a row's product is the one it gives alone."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _scores(obj: Objective, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``X @ w`` for the quadratic families, or the (m, C) logits: (m,)/(m, C)
    for one model, (J, m)/(J, m, C) for a stack, each model's the product
    it gives alone."""
    if obj.is_classification:
        return X @ w.reshape(*w.shape[:-1], obj.n_classes, obj.dim).swapaxes(-1, -2)
    return (X @ w[..., None])[..., 0]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis, shifted by its max for stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def empirical_risk(obj: Objective, w: np.ndarray, dataset: Dataset) -> float | np.ndarray:
    """Mean of the per-sample losses over ``dataset``.

    ``w`` is one parameter vector, giving a float, or a stack (J, param_dim),
    giving one risk per row, each bitwise the float that row gives alone.
    """
    w = _check_params(obj, w)
    m = len(dataset)
    if m == 0:
        raise ValueError("empirical risk of an empty dataset is undefined")
    if dataset.dim != obj.dim:
        raise ValueError("dataset dimension does not match the objective")
    X, y = dataset.X, dataset.y
    if obj.kind in ("least_squares", "ridge"):
        r = _scores(obj, w, X) - y
        risk = 0.5 * _dots(r, r) / m
        if obj.reg:
            risk = risk + 0.5 * obj.reg * _dots(w, w)
    elif obj.kind == "lasso":
        r = y - _scores(obj, w, X)
        risk = _dots(r, r) / m + obj.reg * np.abs(w).sum(-1)
    else:
        logp = log_softmax(_scores(obj, w, X))
        # copied so that each row sums along a contiguous axis, as it does alone
        ce = -np.ascontiguousarray(logp[..., np.arange(m), y]).sum(-1) / m
        risk = ce + 0.5 * obj.reg * _dots(w, w)
    return float(risk) if w.ndim == 1 else risk


def per_sample_grads(obj: Objective, w: np.ndarray, dataset: Dataset) -> np.ndarray:
    """All per-sample gradients at ``w``, stacked into shape (m, param_dim)."""
    w = _check_param(obj, w)
    if not obj.is_smooth:
        raise GradientUnavailableError("lasso is non-smooth")
    X, y = dataset.X, dataset.y
    if obj.kind in ("least_squares", "ridge"):
        G = (X @ w - y)[:, None] * X
        if obj.reg:
            G = G + obj.reg * w
        return G
    m = len(dataset)
    P = np.exp(log_softmax(X @ w.reshape(obj.n_classes, obj.dim).T))
    P[np.arange(m), y] -= 1.0
    G = np.einsum("mc,md->mcd", P, X).reshape(m, obj.param_dim)
    return G + obj.reg * w


def _first_max_class(scores: np.ndarray) -> np.ndarray:
    """The first class with the largest score, ``np.argmax``'s rule, of
    class-major scores: (C, m) give (m,), a stack (J, C, m) gives (J, m).

    Taken as a running max in class order: a class replaces the best so far
    only if its score is strictly greater, so ties keep the first class.
    """
    best = scores[..., 0, :].copy()
    pred = np.zeros(best.shape, dtype=np.intp)
    better = np.empty(best.shape, dtype=bool)
    for c in range(1, scores.shape[-2]):
        row = scores[..., c, :]
        np.greater(row, best, out=better)
        np.putmask(pred, better, c)
        np.maximum(best, row, out=best)
    return pred


def _check_smooth_data(obj: Objective, dataset: Dataset) -> None:
    if not obj.is_smooth:
        raise GradientUnavailableError("curvature is undefined for the lasso family")
    if len(dataset) == 0:
        raise ValueError("curvature of an empty dataset is undefined")


def hessian_bounds(obj: Objective, dataset: Dataset) -> tuple[float, float]:
    """Strong convexity ``mu`` and smoothness ``lam`` of the risk over ``dataset``.

    For quadratic families the bounds are the exact extreme eigenvalues of the
    dataset Hessian X'X/m (plus reg).  For multinomial logistic the Hessian
    depends on w, so mu falls back to the regulariser (the guaranteed global
    lower bound) and lam to 0.5 * eigmax(X'X/m) + reg (the global upper bound).
    One small eigen-solve; no optimum is needed.
    """
    _check_smooth_data(obj, dataset)
    eigs = np.linalg.eigvalsh(dataset.X.T @ dataset.X / len(dataset))
    if obj.kind in ("least_squares", "ridge"):
        mu = float(max(eigs[0], 0.0)) + obj.reg
        lam = float(eigs[-1]) + obj.reg
    else:
        mu = obj.reg
        lam = 0.5 * float(eigs[-1]) + obj.reg
    return mu, max(lam, mu)


def gradient_variance(obj: Objective, dataset: Dataset) -> float:
    """``sigma_sq`` of ``CurvatureBounds``: needs the optimum of ``dataset``,
    which for multinomial logistic is an iterative solve."""
    _check_smooth_data(obj, dataset)
    G = per_sample_grads(obj, optimum_oracle(obj, dataset), dataset)
    dev = G - G.mean(axis=0)
    return float((dev * dev).sum(axis=1).max())


def curvature(obj: Objective, dataset: Dataset) -> CurvatureBounds:
    """Hessian eigenvalue bounds and gradient-variance estimate for ``dataset``."""
    mu, lam = hessian_bounds(obj, dataset)
    return CurvatureBounds(mu=mu, lam=lam, sigma_sq=gradient_variance(obj, dataset))


def _lasso_is_separable(dataset: Dataset) -> bool:
    return bool(((dataset.X != 0.0).sum(axis=1) <= 1).all())


def _lasso_separable_optimum(dataset: Dataset, reg: float) -> np.ndarray:
    # Exact rational soft-threshold per coordinate; valid because every sample
    # touches at most one coordinate, so the objective splits coordinate-wise.
    d = dataset.dim
    w = np.zeros(d)
    half = Fraction(reg) / 2
    for j in range(d):
        rows = np.nonzero(dataset.X[:, j])[0]
        if rows.size == 0:
            continue
        a = sum((Fraction(float(dataset.X[i, j])) ** 2 for i in rows), Fraction(0))
        b = sum(
            (Fraction(float(dataset.X[i, j])) * Fraction(float(dataset.y[i])) for i in rows),
            Fraction(0),
        )
        mag = abs(b) - half
        if mag > 0:
            w[j] = float((mag if b > 0 else -mag) / a)
    return w


def _lasso_coordinate_descent(dataset: Dataset, reg: float, tol: float = 1e-12, max_sweeps: int = 10_000) -> np.ndarray:
    X, y = dataset.X, dataset.y
    d = X.shape[1]
    half = 0.5 * reg
    col_sq = (X * X).sum(axis=0)
    w = np.zeros(d)
    resid = y.copy()
    for _ in range(max_sweeps):
        biggest = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            rho = float(X[:, j] @ resid) + col_sq[j] * w[j]
            new = 0.0
            if abs(rho) > half:
                new = (rho - half * np.sign(rho)) / col_sq[j]
            if new != w[j]:
                resid -= (new - w[j]) * X[:, j]
                biggest = max(biggest, abs(new - w[j]))
                w[j] = new
        if biggest < tol:
            return w
    raise ConvergenceError("lasso coordinate descent did not converge")


# the logistic solver stops once the gradient norm is at most LOGISTIC_TOL,
# and gives up after LOGISTIC_MAX_ITER steps
LOGISTIC_TOL = 1e-10
LOGISTIC_MAX_ITER = 200_000

# The logistic solver and the SGD kernel skip the max shift of their logits
# while none can exceed _UNSHIFTED_LIMIT in size, since exp(-700) and
# exp(700) are normal floats.  The limit is lowered to _LOG_MAX - log(count)
# when that is smaller (``_unshifted_limit``), so that a class sum of C exps,
# and a count over that sum, stay below the largest float, about exp(709.78).
_UNSHIFTED_LIMIT = 700.0
_LOG_MAX = 709.0


def _unshifted_limit(count: float) -> float:
    """The size below which every logit may skip the max shift, when a
    softmax sums C exps and divides ``count``, at least C, by that sum."""
    return min(_UNSHIFTED_LIMIT, _LOG_MAX - math.log(count))


def optimum_oracle(obj: Objective, dataset: Dataset) -> np.ndarray:
    """Arg-min of the empirical risk over ``dataset``.

    Least squares and ridge use the closed form; multinomial logistic runs
    full-batch gradient descent with step 1 / lam, lam from the whole
    dataset, until the gradient norm drops below ``LOGISTIC_TOL``.  It
    iterates on the dataset's table of distinct (x, y) rows, each weighted
    by how often it appears (``Dataset.distinct``), in the class-major
    layout of ``_logistic_gd``, whose step takes the logits relative to
    class 0 and folds the label term, the 1 / m and the step into
    constants.  Its ``w*`` is not bitwise that of the row-major form over
    all m rows, but within 1e-14 relative of it, after the same number of
    steps.
    Lasso minimises the summed cost ``sum_i (y_i - x_i'w)^2 + reg * ||w||_1``
    (the form whose coordinate-wise solution is an exact soft threshold, in
    rational arithmetic when every sample touches a single coordinate); for
    one sample that is the lasso risk of ``empirical_risk``, and for
    multi-sample data it weighs the penalty once rather than once per sample.
    """
    m = len(dataset)
    if m == 0:
        raise ValueError("cannot solve an empty dataset")
    if dataset.dim != obj.dim:
        raise ValueError("dataset dimension does not match the objective")
    X, y = dataset.X, dataset.y
    if obj.kind == "least_squares":
        w, *_ = np.linalg.lstsq(X, y, rcond=None)
        return w
    if obj.kind == "ridge":
        H = X.T @ X / m + obj.reg * np.eye(obj.dim)
        return np.linalg.solve(H, X.T @ y / m)
    if obj.kind == "lasso":
        if _lasso_is_separable(dataset):
            return _lasso_separable_optimum(dataset, obj.reg)
        return _lasso_coordinate_descent(dataset, obj.reg)
    return _logistic_gd(obj, dataset.distinct(), 1.0 / hessian_bounds(obj, dataset)[1])


# odd multipliers of the row hash: the 64-bit golden-ratio constant times 1, 3, 5, ...
_HASH_STEP = np.uint64(0x9E3779B97F4A7C15)


def _distinct_rows(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first row of each distinct (x, y) pair, in row
    order, and how many rows of ``(X, y)`` it stands for (as float64,
    summing to m).

    Each row's key is a hash of its feature bits and label, with its low
    bits replaced by the row index, so the keys are unique and sort in one
    order on every machine: by hash, then by row.  A row merges with the
    one before it in that order only if their features compare equal and
    their labels match, so a hash collision can only leave a group
    unmerged (exact, only less compressed).
    """
    m, d = X.shape
    bits = X.view(np.uint64)
    mult = np.arange(1, 2 * d + 2, 2, dtype=np.uint64) * _HASH_STEP  # wraps mod 2**64
    key = (bits ^ (bits >> np.uint64(32))) @ mult[:d] + y.view(np.uint64) * mult[d]
    shift = np.uint64((m - 1).bit_length())
    index_bits = (np.uint64(1) << shift) - np.uint64(1)
    key &= ~index_bits
    key |= np.arange(m, dtype=np.uint64)
    key.sort()
    order, key = (key & index_bits).astype(np.intp), key >> shift
    tied = np.flatnonzero(key[1:] == key[:-1])
    a, b = order[tied], order[tied + 1]
    repeat = np.zeros(m, dtype=bool)  # in sorted order: the row equals the one before it
    repeat[tied[(X[a] == X[b]).all(axis=1) & (y[a] == y[b])] + 1] = True
    starts = np.flatnonzero(~repeat)
    counts = np.zeros(m)
    counts[order[starts]] = np.diff(starts, append=m)  # ties sort by row, so each group starts at its first row
    rows = np.flatnonzero(counts)
    return rows, counts[rows]


def _logistic_gd(obj: Objective, rows: DistinctRows, step: float) -> np.ndarray:
    """Full-batch gradient descent with ``step``, 1 / lam, for multinomial
    logistic over the distinct ``rows``, each standing for its count of rows.

    The risk and its gradient are means over all m = ``counts.sum()`` rows:
    each step weighs a row's term by its count and divides by m.  The
    iterates W are held class-major, (C, d).  A step writes the logits
    relative to class 0, ``(W[1:] - W[0]) @ XT``, in place as a (C - 1, k)
    array over the k distinct rows and takes their exp: C - 1 rows of exp,
    with class 0's numerator 1.  Each row's count times step / m, over its
    class sum, scales the numerators into P, and G, the step times the
    gradient, is ``P @ X`` minus the label term plus ``step * reg * W``.
    The label term ``sum_i count_i onehot(y_i) x_i'`` times step / m is a
    (C, d) constant made before the loop.  The logits are shifted by
    ``top = max(0, max_c`` relative logit``)``, and class 0's numerator is
    ``exp(-top)``, only when the bound ``||W[1:] - W[0]|| * max_i ||x_i||``
    on their size reaches the limit above which an exp, a class sum or a
    count over it could overflow or lose precision (see
    ``_UNSHIFTED_LIMIT``).

    Equivalence policy: the step and stop rule are those of the row-major
    form over all m rows (logits ``X @ W.T``, ``exp(log_softmax)``, the
    one-hot labels subtracted from P, ``P.T @ X``): ``w*`` agrees with it
    to within 1e-14 relative, after the same number of steps.  It is not
    bitwise: a repeated row's terms are one product by its count rather
    than a sum, the softmax is normalised against class 0 rather than
    through a log-sum-exp, the label term is subtracted after the product
    rather than from P, and BLAS may block ``P @ X`` differently from
    ``P.T @ X``.
    """
    XT, y, counts = rows
    m = counts.sum()
    k = XT.shape[1]
    C, d = obj.n_classes, obj.dim
    X = XT.T
    weights = counts * (step / m)  # each row's count, times step / m
    labels = ((np.arange(C)[:, None] == y) * weights) @ X  # the label term of G
    decay = step * obj.reg
    limit = _unshifted_limit(max(C, float(counts.max())))
    x_norm = math.sqrt(float((XT * XT).sum(axis=0).max()))
    W = np.zeros((C, d))
    D = np.empty((C - 1, d))  # each class's weights relative to class 0's
    P = np.empty((C, k))
    R = P[1:]  # the relative logits, then their exps, then their terms of P
    total = np.empty(k)
    G = np.empty((C, d))  # step times the gradient
    decayed = np.empty((C, d))
    # the views a step reads, made once
    W0, W1, P0, R0, rest = W[0], W[1:], P[0], R[0], list(R[1:])
    for _ in range(LOGISTIC_MAX_ITER):
        np.subtract(W1, W0, out=D)
        np.dot(D, XT, out=R)
        shifted = math.sqrt(np.vdot(D, D)) * x_norm >= limit
        first = 1.0  # class 0's numerator
        if shifted:
            top = np.maximum(R.max(axis=0), 0.0)
            R -= top
            first = np.exp(-top)
        np.exp(R, out=R)
        np.add(R0, first, out=total)
        for row in rest:
            total += row
        np.divide(weights, total, out=P0)
        R *= P0
        if shifted:
            P0 *= first
        np.dot(P, X, out=G)
        G -= labels
        np.multiply(W, decay, out=decayed)
        G += decayed
        gnorm = math.sqrt(np.vdot(G, G)) / step
        if gnorm <= LOGISTIC_TOL:
            return W.ravel()
        W -= G
    raise ConvergenceError(f"logistic solver still has gradient norm {gnorm:.3e} after {LOGISTIC_MAX_ITER} iterations")
