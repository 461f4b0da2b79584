"""Classifier tests: optimization, calibration, bootstrap, determinism."""

import numpy as np
import pytest

from canoa.errors import DimensionMismatch, SingleClass
from canoa.features import FeatureDataset
from canoa.svm import (
    TrainConfig,
    bootstrap_accuracy,
    platt_fit,
    platt_proba,
    svm_objective,
    svm_subgradient,
    train,
)


def blob_dataset(n=400, m=8, gap=5.0, noise=1.0, seed=0, flip=False):
    """Two Gaussian blobs separated by ``gap`` noise units along one axis."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x = rng.normal(0.0, noise, size=(n, m))
    y = np.zeros(n, dtype=np.int8)
    y[half:] = 1
    x[half:, 0] += gap * noise
    order = rng.permutation(n)
    x, y = x[order], y[order]
    if flip:
        y = 1 - y
    return FeatureDataset(x=x, y=y, sa=1, ecu=0)


def test_separable_blobs_reach_perfect_training_accuracy():
    ds = blob_dataset(gap=5.0)
    model, curve = train(ds, TrainConfig(seed=1))
    pred = (ds.x @ model.weights + model.bias > 0).astype(np.int8)
    assert float((pred == ds.y).mean()) == 1.0
    assert model.meta.converged


def test_label_flip_mirrors_the_weight_vector():
    cfg = TrainConfig(seed=2)
    m1, _ = train(blob_dataset(seed=3), cfg)
    m2, _ = train(blob_dataset(seed=3, flip=True), cfg)
    cos = float(
        m1.weights @ m2.weights / (np.linalg.norm(m1.weights) * np.linalg.norm(m2.weights))
    )
    assert cos < -0.99


def test_subgradient_matches_central_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 5))
    y = np.where(rng.uniform(size=60) < 0.5, -1.0, 1.0)
    lam = 0.05
    h = 1e-6
    checked = 0
    while checked < 20:
        w = rng.normal(size=5)
        b = float(rng.normal())
        margins = y * (x @ w + b)
        if np.min(np.abs(1.0 - margins)) < 1e-3:  # avoid hinge kinks
            continue
        gw, gb = svm_subgradient(w, b, x, y, lam)
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            fd = (svm_objective(w + e, b, x, y, lam) - svm_objective(w - e, b, x, y, lam)) / (2 * h)
            assert abs(fd - gw[j]) <= 1e-4 * max(1.0, abs(fd))
        fd_b = (svm_objective(w, b + h, x, y, lam) - svm_objective(w, b - h, x, y, lam)) / (2 * h)
        assert abs(fd_b - gb) <= 1e-4 * max(1.0, abs(fd_b))
        checked += 1


def test_single_class_rejected():
    ds = blob_dataset()
    ds_one = FeatureDataset(x=ds.x, y=np.zeros_like(ds.y), sa=1, ecu=0)
    with pytest.raises(SingleClass):
        train(ds_one, TrainConfig())


def test_training_is_deterministic():
    ds = blob_dataset(gap=2.0, seed=5)
    cfg = TrainConfig(seed=6)
    m1, c1 = train(ds, cfg)
    m2, c2 = train(ds, cfg)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias
    assert m1.calibration == m2.calibration
    assert np.array_equal(c1.val_loss, c2.val_loss)


def test_convergence_point_and_post_convergence_stability():
    ds = blob_dataset(gap=1.5, noise=1.0, seed=7)  # overlapping, non-trivial loss
    cfg = TrainConfig(seed=8, epsilon=1e-4)
    model, curve = train(ds, cfg)
    i = curve.convergence_index
    assert model.meta.converged
    assert abs(curve.val_loss[i] - curve.val_loss[i - 1]) < cfg.epsilon
    assert float(np.std(curve.val_loss[i:])) < 1.0
    assert abs(curve.val_loss[i] - curve.val_loss[-1]) <= cfg.epsilon


# ------------------------------------------------------------- calibration


def test_probabilities_sum_to_one_and_boundary_value():
    ds = blob_dataset(seed=9)
    model, _ = train(ds, TrainConfig(seed=10))
    x = ds.x[0]
    p1 = float(platt_proba(model.margin(x), *model.calibration))
    p0 = 1.0 - p1
    assert p0 + p1 == pytest.approx(1.0, abs=1e-15)
    # a point on the decision boundary maps to 1/(1+exp(B))
    a, b = model.calibration
    w = model.weights
    x_boundary = -model.bias * w / float(w @ w)
    assert model.margin(x_boundary) == pytest.approx(0.0, abs=1e-9)
    p_tx = float(platt_proba(model.margin(x_boundary), *model.calibration))
    assert p_tx == pytest.approx(1.0 / (1.0 + np.exp(b)), abs=1e-9)


def test_probability_monotone_in_margin():
    ds = blob_dataset(seed=11)
    model, _ = train(ds, TrainConfig(seed=12))
    margins = np.asarray(model.margin(ds.x))
    probs = np.array([platt_proba(model.margin(row), *model.calibration) for row in ds.x])
    order = np.argsort(margins)
    assert np.all(np.diff(probs[order]) >= -1e-12)


def test_calibration_separates_validation_classes():
    ds = blob_dataset(gap=3.0, seed=13)
    model, _ = train(ds, TrainConfig(seed=14))
    p = np.array([platt_proba(model.margin(row), *model.calibration) for row in ds.x])
    assert p[ds.y == 1].mean() > p[ds.y == 0].mean()


def test_dimension_mismatch():
    ds = blob_dataset()
    model, _ = train(ds, TrainConfig())
    with pytest.raises(DimensionMismatch):
        platt_proba(model.margin(np.zeros(3)), *model.calibration)


def test_platt_fit_on_synthetic_margins():
    rng = np.random.default_rng(15)
    margins = np.concatenate([rng.normal(-2, 0.5, 200), rng.normal(2, 0.5, 200)])
    labels = np.concatenate([np.zeros(200), np.ones(200)])
    a, b = platt_fit(margins, labels)
    assert a < 0  # higher margin, higher transmission probability
    mid = 1.0 / (1.0 + np.exp(b))
    assert 0.2 < mid < 0.8


# --------------------------------------------------------------- bootstrap


def test_bootstrap_on_separable_data_is_degenerate_at_one():
    ds = blob_dataset(gap=8.0, seed=16)
    summary = bootstrap_accuracy(ds, TrainConfig(seed=17, bootstrap_rounds=12, max_iters=120))
    assert summary.accuracies.size > 0
    assert np.all(summary.accuracies == 1.0)


def test_bootstrap_noisy_dataset_has_wider_iqr_than_clean():
    clean = blob_dataset(gap=6.0, seed=18)
    noisy = blob_dataset(gap=1.0, seed=18)
    cfg = TrainConfig(seed=19, bootstrap_rounds=15, max_iters=100)
    s_clean = bootstrap_accuracy(clean, cfg)
    s_noisy = bootstrap_accuracy(noisy, cfg)
    assert s_noisy.iqr > s_clean.iqr
    assert s_noisy.median < s_clean.median


def test_bootstrap_order_statistics():
    ds = blob_dataset(gap=1.5, seed=20)
    summary = bootstrap_accuracy(ds, TrainConfig(seed=21, bootstrap_rounds=12, max_iters=80))
    assert summary.minimum <= summary.median <= summary.maximum
    q1, q3 = summary.quartiles
    assert summary.minimum <= q1 <= q3 <= summary.maximum


def test_bootstrap_requires_ten_rounds():
    ds = blob_dataset()
    with pytest.raises(ValueError):
        bootstrap_accuracy(ds, TrainConfig(bootstrap_rounds=5))


@pytest.mark.parametrize(
    "bad",
    [
        {"max_iters": 0},
        {"batch_size": 0},
        {"c": 0.0},
        {"c": float("nan")},
        {"epsilon": float("nan")},
        {"split": (0.5, 0.5)},
        {"split": (0.5, 0.3, 0.1, 0.1)},
        {"split": (float("nan"),) * 3},
        {"bootstrap_rounds": 9},
    ],
)
def test_train_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)
