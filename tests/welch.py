"""Welch two-sample separability for the test suite.

Welch's t on the first principal coordinate, with the p-value from a
self-contained Student-t survival function (regularized incomplete beta via
continued fractions), so no statistics dependency is needed. Criterion 6
and the statistic's own tests in ``test_evaluate.py`` use it; the library
does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from canoa.errors import CanoaError


class ZeroVariance(CanoaError):
    """Both populations are constant and equal; t-score undefined."""


@dataclass(frozen=True)
class SeparabilityReport:
    t_score: float
    p_value: float
    dof: float


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
