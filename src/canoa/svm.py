"""Per-source-address binary linear SVM with calibrated probabilities.

Training uses deterministic seeded mini-batch subgradient descent on the
hinge loss with L2 regularization (lambda = 1/(C * n_train)) and a fixed
geometric learning-rate schedule. One loop advances a stack of models in
lockstep: ``train`` is a stack of one, the bootstrap one model per round.
A Platt-style sigmoid fitted on the validation split maps margins to
transmission probabilities. Classes are balanced by subsampling the
majority class before optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingleClass
from .features import FeatureDataset

ETA0 = 0.5
ETA_DECAY = 0.97  # per-epoch geometric factor


@dataclass(frozen=True)
class TrainConfig:
    epsilon: float = 1e-4
    max_iters: int = 400
    c: float = 1.0
    split: tuple[float, float, float] = (0.6, 0.2, 0.2)
    bootstrap_rounds: int = 100
    seed: int = 0
    batch_size: int = 64

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.c > 0:
            raise ValueError("c must be positive")
        if self.max_iters < 1 or self.batch_size < 1:
            raise ValueError("max_iters and batch_size must be at least 1")
        if self.bootstrap_rounds < 10:
            raise ValueError("bootstrapping needs at least 10 rounds")
        if len(self.split) != 3:
            raise ValueError("split needs exactly three ratios")
        if not abs(sum(self.split) - 1.0) <= 1e-9:
            raise ValueError("split ratios must sum to 1")
        if any(r < 0 for r in self.split) or self.split[0] <= 0 or self.split[1] <= 0:
            raise ValueError("train and validation ratios must be positive")


@dataclass(frozen=True)
class TrainingMeta:
    iterations: int
    final_loss: float
    epsilon: float
    converged: bool
    convergence_index: int
    validation_accuracy: float


@dataclass(frozen=True)
class SvmModel:
    """Linear decision function on raw feature vectors plus calibration.

    ``calibration = (A, B)`` maps a margin m = x @ weights + bias to the
    transmission probability 1 / (1 + exp(A*m + B)).
    """

    weights: np.ndarray
    bias: float
    calibration: tuple[float, float]
    meta: TrainingMeta


@dataclass(frozen=True)
class LearningCurve:
    train_loss: np.ndarray
    val_loss: np.ndarray
    convergence_index: int

    def __post_init__(self):
        if self.train_loss.shape != self.val_loss.shape:
            raise ValueError("loss curves must have equal length")
        if self.convergence_index >= self.train_loss.size:
            raise ValueError("convergence index beyond the recorded curve")


@dataclass(frozen=True)
class BootstrapSummary:
    accuracies: np.ndarray

    @property
    def minimum(self) -> float:
        return float(self.accuracies.min())

    @property
    def maximum(self) -> float:
        return float(self.accuracies.max())

    @property
    def median(self) -> float:
        return float(np.median(self.accuracies))

    @property
    def quartiles(self) -> tuple[float, float]:
        return (
            float(np.percentile(self.accuracies, 25)),
            float(np.percentile(self.accuracies, 75)),
        )


def _margins(w: np.ndarray, b, x: np.ndarray, y_pm: np.ndarray) -> np.ndarray:
    """y * (x . w + b) per row; leading dimensions of all four stack problems."""
    return y_pm * (np.matmul(x, w[..., None])[..., 0] + np.asarray(b)[..., None])


def hinge_loss(w: np.ndarray, b, x: np.ndarray, y_pm: np.ndarray) -> np.ndarray | float:
    """Plain mean hinge loss (the learning-curve quantity)."""
    return np.maximum(0.0, 1.0 - _margins(w, b, x, y_pm)).mean(axis=-1)


def svm_objective(
    w: np.ndarray, b: float, x: np.ndarray, y_pm: np.ndarray, lam: float
) -> float:
    """Mean hinge loss plus (lam/2) * |w|^2."""
    return float(hinge_loss(w, b, x, y_pm) + 0.5 * lam * (w @ w))


def svm_subgradient(
    w: np.ndarray, b, x: np.ndarray, y_pm: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray | float]:
    """Analytic subgradient of :func:`svm_objective` at (w, b).

    Leading dimensions stack independent problems: ``w (..., m)``, ``b (...)``,
    ``x (..., n, m)`` and ``y_pm (..., n)`` give ``gw (..., m)`` and ``gb (...)``.
    """
    coef = np.where(_margins(w, b, x, y_pm) < 1.0, y_pm, 0.0)
    n = y_pm.shape[-1]
    gw = lam * w - np.matmul(coef[..., None, :], x)[..., 0, :] / n
    gb = -coef.sum(axis=-1) / n
    return gw, gb


def _balance(
    x: np.ndarray, y: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Subsample the majority class to the minority-class count."""
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    k = min(pos.size, neg.size)
    if pos.size > k:
        pos = rng.choice(pos, size=k, replace=False)
    if neg.size > k:
        neg = rng.choice(neg, size=k, replace=False)
    keep = np.sort(np.concatenate([pos, neg]))
    return x[keep], y[keep]


def split_indices(n: int, split: tuple[float, float, float]) -> tuple[slice, slice, slice]:
    """Contiguous train/validation/test slices over n rows."""
    n_train = int(round(split[0] * n))
    n_val = int(round(split[1] * n))
    return slice(0, n_train), slice(n_train, n_train + n_val), slice(n_train + n_val, n)


@dataclass(frozen=True)
class _Splits:
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray


def _prepare(ds: FeatureDataset, cfg: TrainConfig, rng: np.random.Generator) -> _Splits:
    tr, va, _ = split_indices(ds.y.size, cfg.split)
    x_train, y_train = _balance(ds.x[tr], ds.y[tr], rng)
    x_val, y_val = _balance(ds.x[va], ds.y[va], rng)
    for name, labels in (("training", y_train), ("validation", y_val)):
        if labels.size == 0 or len(np.unique(labels)) < 2:
            raise SingleClass(f"{name} split does not contain both classes")
    return _Splits(x_train, y_train, x_val, y_val)


class _Fit(NamedTuple):
    """R linear SVMs trained in lockstep, acting on raw features."""

    weights: np.ndarray  # (R, m)
    bias: np.ndarray  # (R,)
    epochs: np.ndarray  # (R,) epochs each model ran
    converged: np.ndarray  # (R,) bool
    val_loss: np.ndarray  # (R, max_iters); NaN past a model's last epoch
    train_loss: np.ndarray | None  # like val_loss, when asked for


def _sgd(
    x: np.ndarray, y: np.ndarray, x_val: np.ndarray, y_val: np.ndarray,
    cfg: TrainConfig, rngs: list[np.random.Generator], train_curve: bool = False,
) -> _Fit:
    """Seeded mini-batch subgradient descent on R problems in lockstep.

    ``x (R, n, m)`` and ``y (R, n)`` hold R training sets of one size, and
    ``rngs`` one generator per set, which draws that model's epoch
    permutations. The validation split ``(nv, m)`` is shared. Each model
    runs in its own standardized feature space and leaves the active set
    when its validation-loss delta drops below epsilon.
    """
    mu = x.mean(axis=1, keepdims=True)
    sigma = x.std(axis=1, keepdims=True)
    sigma = np.where(sigma > 0, sigma, 1.0)
    xt = x - mu
    xt /= sigma
    xv = (x_val - mu) / sigma
    yt = y.astype(np.float64) * 2.0 - 1.0
    yv = y_val.astype(np.float64) * 2.0 - 1.0

    r, n, m = xt.shape
    x_rows, y_rows = xt.reshape(r * n, m), yt.reshape(r * n)
    lam = 1.0 / (cfg.c * n)
    radius = 1.0 / math.sqrt(lam)
    w = np.zeros((r, m))
    b = np.zeros(r)
    val_loss = np.full((r, cfg.max_iters), np.nan)
    train_loss = np.full((r, cfg.max_iters), np.nan) if train_curve else None
    epochs = np.full(r, cfg.max_iters)
    converged = np.zeros(r, dtype=bool)
    active = np.arange(r)
    for epoch in range(cfg.max_iters):
        if active.size == 0:
            break
        eta = ETA0 * ETA_DECAY**epoch
        # each active model's epoch order, as rows of the flattened stack;
        # batches are gathered one at a time so they are still in cache
        rows = active[:, None] * n + np.stack([rngs[i].permutation(n) for i in active])
        wa, ba = w[active], b[active]
        for lo in range(0, n, cfg.batch_size):
            batch = rows[:, lo : lo + cfg.batch_size]
            gw, gb = svm_subgradient(wa, ba, np.take(x_rows, batch, axis=0), y_rows[batch], lam)
            wa -= eta * gw
            ba -= eta * gb
            norm = np.sqrt(np.einsum("rm,rm->r", wa, wa))
            wa *= (radius / np.maximum(norm, radius))[:, None]  # 1.0 inside the ball
        w[active], b[active] = wa, ba
        val_loss[active, epoch] = hinge_loss(w, b, xv, yv)[active]
        if train_loss is not None:
            train_loss[active, epoch] = hinge_loss(w, b, xt, yt)[active]
        if epoch >= 1:
            done = np.abs(val_loss[active, epoch] - val_loss[active, epoch - 1]) < cfg.epsilon
            converged[active[done]] = True
            epochs[active[done]] = epoch + 1
            active = active[~done]
    # fold standardization back so each model acts on raw features
    mu, sigma = mu[:, 0], sigma[:, 0]
    return _Fit(w / sigma, b - (w * mu / sigma).sum(axis=1), epochs, converged, val_loss, train_loss)


def platt_proba(margins, a, b) -> np.ndarray:
    """Calibrated transmission probability 1 / (1 + exp(a*m + b)) per margin.

    ``a`` and ``b`` are scalars, or one per column of ``margins``. Both
    branches use exp(-|a*m + b|), which never overflows.
    """
    f = a * np.asarray(margins, dtype=np.float64) + b
    z = np.exp(-np.abs(f))
    return np.where(f >= 0, z / (1 + z), 1 / (1 + z))


def platt_fit(margins: np.ndarray, labels: np.ndarray, max_iter: int = 100) -> tuple[float, float]:
    """Sigmoid parameters (A, B) by Newton iterations on the NLL.

    Uses the prior-smoothed targets so perfectly separated margins still
    give finite parameters.
    """
    deci = np.asarray(margins, dtype=np.float64)
    label = np.asarray(labels)
    prior1 = int((label == 1).sum())
    prior0 = label.size - prior1
    hi = (prior1 + 1.0) / (prior1 + 2.0)
    lo = 1.0 / (prior0 + 2.0)
    t = np.where(label == 1, hi, lo)

    min_step = 1e-10
    sigma = 1e-12
    eps = 1e-5
    a, b = 0.0, math.log((prior0 + 1.0) / (prior1 + 1.0))

    def nll(av: float, bv: float) -> float:
        f = deci * av + bv
        return float(
            np.where(f >= 0, t * f + np.log1p(np.exp(-f)), (t - 1) * f + np.log1p(np.exp(f))).sum()
        )

    fval = nll(a, b)
    for _ in range(max_iter):
        p = platt_proba(deci, a, b)
        q = 1.0 - p
        d2 = p * q
        h11 = float((deci * deci * d2).sum()) + sigma
        h22 = float(d2.sum()) + sigma
        h21 = float((deci * d2).sum())
        d1 = t - p
        g1 = float((deci * d1).sum())
        g2 = float(d1.sum())
        if abs(g1) < eps and abs(g2) < eps:
            break
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * da + g2 * db
        step = 1.0
        while step >= min_step:
            new_a, new_b = a + step * da, b + step * db
            new_f = nll(new_a, new_b)
            if new_f < fval + 1e-4 * step * gd:
                a, b, fval = new_a, new_b, new_f
                break
            step /= 2.0
        else:
            break
    return a, b


def _seed(ds: FeatureDataset, cfg: TrainConfig) -> int:
    """SA ``ds.sa``'s seed: it balances the split, shuffles epochs and draws the bootstrap."""
    return cfg.seed + 9973 * ds.sa


def train(ds: FeatureDataset, cfg: TrainConfig) -> tuple[SvmModel, LearningCurve]:
    """Train one transmission/non-transmission classifier for a dataset.

    Stops when the validation-loss delta drops below epsilon (or at
    max_iters, in which case the model is still returned with
    ``meta.converged=False``).
    """
    if len(np.unique(ds.y)) < 2:
        raise SingleClass("dataset does not contain both classes")
    rng = np.random.default_rng(_seed(ds, cfg))
    splits = _prepare(ds, cfg, rng)
    fit = _sgd(
        splits.x_train[None], splits.y_train[None], splits.x_val, splits.y_val, cfg, [rng],
        train_curve=True,
    )
    w, b, iterations = fit.weights[0], float(fit.bias[0]), int(fit.epochs[0])
    val_margins = splits.x_val @ w + b
    calibration = platt_fit(val_margins, splits.y_val)
    val_accuracy = float(((val_margins > 0).astype(np.int8) == splits.y_val).mean())
    val_curve = fit.val_loss[0, :iterations]
    meta = TrainingMeta(
        iterations=iterations,
        final_loss=float(val_curve[-1]),
        epsilon=cfg.epsilon,
        converged=bool(fit.converged[0]),
        convergence_index=iterations - 1,
        validation_accuracy=val_accuracy,
    )
    model = SvmModel(weights=w, bias=b, calibration=calibration, meta=meta)
    curve = LearningCurve(
        train_loss=fit.train_loss[0, :iterations],
        val_loss=val_curve,
        convergence_index=iterations - 1,
    )
    return model, curve


def bootstrap_accuracy(ds: FeatureDataset, cfg: TrainConfig) -> BootstrapSummary:
    """Validation accuracies over B bootstrap resamples of the training split.

    Round i resamples the split :func:`train` uses with the SA's generator
    and shuffles with its own child stream (``SeedSequence.spawn``); the
    rounds with both classes train together in one lockstep run.
    """
    seed = _seed(ds, cfg)
    rng = np.random.default_rng(seed)
    splits = _prepare(ds, cfg, rng)
    n = splits.y_train.size
    idx = rng.integers(0, n, size=(cfg.bootstrap_rounds, n))
    streams = np.random.SeedSequence(seed).spawn(cfg.bootstrap_rounds)
    y = splits.y_train[idx]
    both = y.min(axis=1) != y.max(axis=1)
    fit = _sgd(
        splits.x_train[idx[both]], y[both], splits.x_val, splits.y_val, cfg,
        [np.random.default_rng(s) for s, keep in zip(streams, both) if keep],
    )
    pred = (np.matmul(splits.x_val, fit.weights.T) + fit.bias > 0).astype(np.int8)
    return BootstrapSummary(accuracies=(pred == splits.y_val[:, None]).mean(axis=0))
