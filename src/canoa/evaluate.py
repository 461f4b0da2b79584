"""Evaluation statistics: confusion matrices, metrics and separability.

They are plain functions of labels and feature matrices; the module imports
nothing from the pipeline (the factor sweep lives in :mod:`canoa.workflow`).
The two-sample separability statistic is Welch's t on the first
principal coordinate, with the p-value from a self-contained Student-t
survival function (regularized incomplete beta via continued fractions),
so no statistics dependency is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import LengthMismatch, ZeroVariance


@dataclass(frozen=True)
class ConfusionMatrix:
    labels: tuple[Hashable, ...]
    counts: np.ndarray

    @property
    def rates(self) -> np.ndarray:
        """Row-normalized counts; all-zero rows stay zero."""
        totals = self.counts.sum(axis=1, keepdims=True).astype(np.float64)
        safe = np.where(totals > 0, totals, 1.0)
        return self.counts / safe

    def rate(self, truth: Hashable, predicted: Hashable) -> float:
        i = self.labels.index(truth)
        j = self.labels.index(predicted)
        return float(self.rates[i, j])

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class LabelMetrics:
    precision: float
    recall: float
    f_measure: float
    support: int
    degenerate: bool = False


@dataclass(frozen=True)
class MetricReport:
    per_label: dict[Hashable, LabelMetrics]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f: float
    degenerate_labels: tuple[Hashable, ...] = ()


@dataclass(frozen=True)
class SeparabilityReport:
    t_score: float
    p_value: float
    dof: float


def confusion(
    truth: Sequence[Hashable],
    predicted: Sequence[Hashable],
    labels: Sequence[Hashable] | None = None,
) -> ConfusionMatrix:
    """counts[i][j] = number of samples with truth label i predicted as j."""
    if len(truth) != len(predicted):
        raise LengthMismatch(f"{len(truth)} truth labels vs {len(predicted)} predictions")
    if len(truth) == 0:
        raise LengthMismatch("confusion matrix needs at least one sample")
    if labels is None:
        labels = sorted(set(truth) | set(predicted), key=repr)
    index = {lab: k for k, lab in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for a, b in zip(truth, predicted):
        counts[index[a], index[b]] += 1
    return ConfusionMatrix(labels=tuple(labels), counts=counts)


def metrics(cm: ConfusionMatrix) -> MetricReport:
    """Precision, recall, accuracy, F-measure per label and macro-averaged.

    Zero-denominator cases yield 0 and flag the label as degenerate.
    """
    counts = cm.counts
    per_label: dict[Hashable, LabelMetrics] = {}
    degenerate: list[Hashable] = []
    for i, label in enumerate(cm.labels):
        tp = int(counts[i, i])
        fp = int(counts[:, i].sum() - tp)
        fn = int(counts[i, :].sum() - tp)
        bad = False
        if tp + fp > 0:
            precision = tp / (tp + fp)
        else:
            precision, bad = 0.0, True
        if tp + fn > 0:
            recall = tp / (tp + fn)
        else:
            recall, bad = 0.0, True
        if precision + recall > 0:
            f_measure = 2 * precision * recall / (precision + recall)
        else:
            f_measure, bad = 0.0, True
        if bad:
            degenerate.append(label)
        per_label[label] = LabelMetrics(precision, recall, f_measure, tp + fn, bad)
    accuracy = float(np.trace(counts) / counts.sum())
    macro_p = float(np.mean([m.precision for m in per_label.values()]))
    macro_r = float(np.mean([m.recall for m in per_label.values()]))
    macro_f = float(np.mean([m.f_measure for m in per_label.values()]))
    return MetricReport(
        per_label=per_label,
        accuracy=accuracy,
        macro_precision=macro_p,
        macro_recall=macro_r,
        macro_f=macro_f,
        degenerate_labels=tuple(degenerate),
    )


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return h


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, dof: float) -> float:
    """P(T > t) for Student's t with ``dof`` degrees of freedom."""
    if dof <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    x = dof / (dof + t * t)
    tail = 0.5 * _reg_inc_beta(dof / 2.0, 0.5, x)
    return tail if t >= 0 else 1.0 - tail


def separability(pos: np.ndarray, neg: np.ndarray) -> SeparabilityReport:
    """Welch two-sample t on the first principal coordinate.

    Feature matrices use their first column (the highest-variance PCA
    direction); 1-D inputs are compared as-is. The p-value is two-sided.
    """
    a = np.asarray(pos, dtype=np.float64)
    b = np.asarray(neg, dtype=np.float64)
    if a.ndim == 2:
        a = a[:, 0]
    if b.ndim == 2:
        b = b[:, 0]
    if a.size < 2 or b.size < 2:
        raise ValueError("each population needs at least two rows")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        if a.mean() == b.mean():
            raise ZeroVariance("both populations are constant and equal")
        return SeparabilityReport(
            t_score=math.inf if a.mean() > b.mean() else -math.inf, p_value=0.0, dof=float("inf")
        )
    na, nb = a.size, b.size
    se2 = va / na + vb / nb
    t = float((a.mean() - b.mean()) / math.sqrt(se2))
    dof = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    p = 2.0 * student_t_sf(abs(t), dof)
    return SeparabilityReport(t_score=t, p_value=min(p, 1.0), dof=float(dof))
