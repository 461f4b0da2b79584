"""Evaluation statistics: confusion matrices and metrics.

They are plain functions of labels; the module imports nothing from the
pipeline (the factor sweep lives in :mod:`canoa.workflow`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import LengthMismatch


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
