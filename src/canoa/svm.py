"""Per-source-address binary linear SVM with calibrated probabilities.

Training uses deterministic seeded mini-batch subgradient descent on the
hinge loss with L2 regularization (lambda = 1/(C * n_train)) and a fixed
geometric learning-rate schedule. A Platt-style sigmoid fitted on the
validation split maps margins to transmission probabilities. Classes are
balanced by subsampling the majority class before optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingleClass
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
    validation_accuracy: float = 0.0


@dataclass(frozen=True)
class SvmModel:
    """Linear decision function on raw feature vectors plus calibration.

    ``calibration = (A, B)`` maps a margin m to the transmission
    probability 1 / (1 + exp(A*m + B)).
    """

    weights: np.ndarray
    bias: float
    calibration: tuple[float, float]
    meta: TrainingMeta

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    def margin(self, x: np.ndarray) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.n_features:
            raise DimensionMismatch(
                f"expected {self.n_features} features, got {x.shape[-1]}"
            )
        return x @ self.weights + self.bias


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

    @property
    def iqr(self) -> float:
        q1, q3 = self.quartiles
        return q3 - q1


def svm_objective(
    w: np.ndarray, b: float, x: np.ndarray, y_pm: np.ndarray, lam: float
) -> float:
    """Mean hinge loss plus (lam/2) * |w|^2."""
    margins = y_pm * (x @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(hinge.mean() + 0.5 * lam * (w @ w))


def svm_subgradient(
    w: np.ndarray, b: float, x: np.ndarray, y_pm: np.ndarray, lam: float
) -> tuple[np.ndarray, float]:
    """Analytic subgradient of :func:`svm_objective` at (w, b)."""
    margins = y_pm * (x @ w + b)
    active = margins < 1.0
    n = y_pm.size
    gw = lam * w - (y_pm[active][:, None] * x[active]).sum(axis=0) / n
    gb = -float(y_pm[active].sum()) / n
    return gw, gb


def hinge_loss(w: np.ndarray, b: float, x: np.ndarray, y_pm: np.ndarray) -> float:
    """Plain mean hinge loss (the learning-curve quantity)."""
    return float(np.maximum(0.0, 1.0 - y_pm * (x @ w + b)).mean())


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


def _optimize(
    splits: _Splits, cfg: TrainConfig, rng: np.random.Generator
) -> tuple[np.ndarray, float, list[float], list[float], bool, int]:
    """Core seeded subgradient descent in standardized feature space."""
    mu = splits.x_train.mean(axis=0)
    sigma = splits.x_train.std(axis=0)
    sigma = np.where(sigma > 0, sigma, 1.0)
    xt = (splits.x_train - mu) / sigma
    xv = (splits.x_val - mu) / sigma
    yt = splits.y_train.astype(np.float64) * 2.0 - 1.0
    yv = splits.y_val.astype(np.float64) * 2.0 - 1.0

    n, m = xt.shape
    lam = 1.0 / (cfg.c * n)
    radius = 1.0 / math.sqrt(lam)
    w = np.zeros(m)
    b = 0.0
    train_curve: list[float] = []
    val_curve: list[float] = []
    converged = False
    conv_index = 0
    for epoch in range(cfg.max_iters):
        eta = ETA0 * ETA_DECAY**epoch
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            gw, gb = svm_subgradient(w, b, xt[batch], yt[batch], lam)
            w -= eta * gw
            b -= eta * gb
            norm = math.sqrt(float(w @ w))
            if norm > radius:
                w *= radius / norm
        train_curve.append(hinge_loss(w, b, xt, yt))
        val_curve.append(hinge_loss(w, b, xv, yv))
        if epoch >= 1 and abs(val_curve[-1] - val_curve[-2]) < cfg.epsilon:
            converged = True
            conv_index = epoch
            break
    if not converged:
        conv_index = len(val_curve) - 1
    # fold standardization back so the model acts on raw features
    w_raw = w / sigma
    b_raw = b - float((w * mu / sigma).sum())
    return w_raw, b_raw, train_curve, val_curve, converged, conv_index


def platt_proba(margins, a: float, b: float) -> np.ndarray:
    """Calibrated transmission probability 1 / (1 + exp(a*m + b)) per margin.

    Both branches use exp(-|a*m + b|), which never overflows.
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


def train(ds: FeatureDataset, cfg: TrainConfig) -> tuple[SvmModel, LearningCurve]:
    """Train one transmission/non-transmission classifier for a dataset.

    Stops when the validation-loss delta drops below epsilon (or at
    max_iters, in which case the model is still returned with
    ``meta.converged=False``).
    """
    if len(np.unique(ds.y)) < 2:
        raise SingleClass("dataset does not contain both classes")
    rng = np.random.default_rng(cfg.seed)
    splits = _prepare(ds, cfg, rng)
    w, b, train_curve, val_curve, converged, conv_index = _optimize(splits, cfg, rng)
    val_margins = splits.x_val @ w + b
    calibration = platt_fit(val_margins, splits.y_val)
    val_accuracy = float(((val_margins > 0).astype(np.int8) == splits.y_val).mean())
    meta = TrainingMeta(
        iterations=len(val_curve),
        final_loss=val_curve[-1],
        epsilon=cfg.epsilon,
        converged=converged,
        convergence_index=conv_index,
        validation_accuracy=val_accuracy,
    )
    model = SvmModel(weights=w, bias=float(b), calibration=calibration, meta=meta)
    curve = LearningCurve(
        train_loss=np.asarray(train_curve),
        val_loss=np.asarray(val_curve),
        convergence_index=conv_index,
    )
    return model, curve


def bootstrap_accuracy(ds: FeatureDataset, cfg: TrainConfig) -> BootstrapSummary:
    """Validation accuracies over B bootstrap resamples of the training split."""
    rng = np.random.default_rng(cfg.seed)
    splits = _prepare(ds, cfg, rng)
    accuracies = []
    for _ in range(cfg.bootstrap_rounds):
        idx = rng.integers(0, splits.y_train.size, size=splits.y_train.size)
        resampled = _Splits(
            splits.x_train[idx], splits.y_train[idx], splits.x_val, splits.y_val
        )
        if len(np.unique(resampled.y_train)) < 2:
            continue
        w, b, *_ = _optimize(resampled, cfg, rng)
        pred = (resampled.x_val @ w + b > 0).astype(np.int8)
        accuracies.append(float((pred == resampled.y_val).mean()))
    return BootstrapSummary(accuracies=np.asarray(accuracies))
