"""Classifier tests: optimization, calibration, bootstrap, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canoa import svm
from canoa.bus import simulate, truck_scenario
from canoa.errors import SingleClass
from canoa.frames import decode_transmissions
from canoa.svm import (
    ETA0,
    ETA_DECAY,
    FeatureDataset,
    TrainConfig,
    _prepare,
    _sgd,
    bootstrap_accuracy,
    hinge_loss,
    platt_fit,
    platt_proba,
    svm_subgradient,
    train,
)
from canoa.workflow import PipelineConfig, build_bundle


def svm_objective(w, b, x, y_pm, lam):
    """Mean hinge loss plus (lam/2) * |w|^2, the objective svm_subgradient differentiates."""
    return float(hinge_loss(w, b, x, y_pm) + 0.5 * lam * (w @ w))


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
    return FeatureDataset(x=x, y=y, sa=1)


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
    ds_one = FeatureDataset(x=ds.x, y=np.zeros_like(ds.y), sa=1)
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
    i = len(curve.val_loss) - 1
    assert model.meta.converged
    assert abs(curve.val_loss[i] - curve.val_loss[i - 1]) < cfg.epsilon
    assert float(np.std(curve.val_loss[i:])) < 1.0
    assert abs(curve.val_loss[i] - curve.val_loss[-1]) <= cfg.epsilon


# ------------------------------------------------------------- calibration


def test_probabilities_sum_to_one_and_boundary_value():
    ds = blob_dataset(seed=9)
    model, _ = train(ds, TrainConfig(seed=10))
    x = ds.x[0]
    p1 = float(platt_proba(x @ model.weights + model.bias, *model.calibration))
    p0 = 1.0 - p1
    assert p0 + p1 == pytest.approx(1.0, abs=1e-15)
    # a point on the decision boundary maps to 1/(1+exp(B))
    a, b = model.calibration
    w = model.weights
    x_boundary = -model.bias * w / float(w @ w)
    assert x_boundary @ w + model.bias == pytest.approx(0.0, abs=1e-9)
    p_tx = float(platt_proba(x_boundary @ w + model.bias, *model.calibration))
    assert p_tx == pytest.approx(1.0 / (1.0 + np.exp(b)), abs=1e-9)


def test_probability_monotone_in_margin():
    ds = blob_dataset(seed=11)
    model, _ = train(ds, TrainConfig(seed=12))
    margins = ds.x @ model.weights + model.bias
    probs = np.array([platt_proba(m, *model.calibration) for m in margins])
    order = np.argsort(margins)
    assert np.all(np.diff(probs[order]) >= -1e-12)


def test_calibration_separates_validation_classes():
    ds = blob_dataset(gap=3.0, seed=13)
    model, _ = train(ds, TrainConfig(seed=14))
    p = platt_proba(ds.x @ model.weights + model.bias, *model.calibration)
    assert p[ds.y == 1].mean() > p[ds.y == 0].mean()


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
    (clean_q1, clean_q3), (noisy_q1, noisy_q3) = s_clean.quartiles, s_noisy.quartiles
    assert noisy_q3 - noisy_q1 > clean_q3 - clean_q1
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


def test_bootstrap_resamples_the_split_of_the_shipped_model(monkeypatch):
    """``canoa train`` bootstraps each dataset with the run's config, as built."""
    sc = truck_scenario(frames_per_sa=100, sample_rate=3e6, seed=5)
    voltage, powers, _ = simulate(sc)
    samap = sc.source_map()
    decoded = decode_transmissions(voltage, sc.bus.bitrate, samap)
    power_map = {e.index: p for e, p in zip(sc.ecus, powers)}
    splits = {}
    prepare = svm._prepare

    def recording(ds, cfg, rng):
        splits[ds.sa] = prepare(ds, cfg, rng)
        return splits[ds.sa]

    monkeypatch.setattr(svm, "_prepare", recording)
    tcfg = TrainConfig(seed=4, bootstrap_rounds=10)
    result = build_bundle(power_map, decoded, samap, PipelineConfig(calib_len=40_000), tcfg)
    # SA 0's seed is the run's own, so only another SA can tell the splits apart
    shipped = splits[15]
    bootstrap_accuracy(result.datasets[(0, 15)], tcfg)
    for name in ("x_train", "y_train", "x_val", "y_val"):
        np.testing.assert_array_equal(getattr(splits[15], name), getattr(shipped, name))


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
        {"c": float("inf")},
    ],
)
def test_train_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


# ------------------------------------------------ lockstep loop vs oracle


def optimize_oracle(x_train, y_train, x_val, y_val, cfg, rng):
    """The per-model SGD loop the lockstep loop replaced, kept as its oracle.

    Returns (w, b, train_curve, val_curve, converged, convergence_index) on
    raw features, with its own 2-D subgradient and hinge loss.
    """

    def subgradient(w, b, x, y_pm, lam):
        # one coefficient-vector product, so the rows add in the lockstep loop's order
        coef = np.where(y_pm * (x @ w + b) < 1.0, y_pm, 0.0)
        return lam * w - coef @ x / y_pm.size, -float(coef.sum()) / y_pm.size

    def hinge(w, b, x, y_pm):
        return float(np.maximum(0.0, 1.0 - y_pm * (x @ w + b)).mean())

    mu = x_train.mean(axis=0)
    sigma = x_train.std(axis=0)
    sigma = np.where(sigma > 0, sigma, 1.0)
    xt = (x_train - mu) / sigma
    xv = (x_val - mu) / sigma
    yt = y_train.astype(np.float64) * 2.0 - 1.0
    yv = y_val.astype(np.float64) * 2.0 - 1.0
    n, m = xt.shape
    lam = 1.0 / (cfg.c * n)
    radius = 1.0 / math.sqrt(lam) if lam > 0 else math.inf
    w = np.zeros(m)
    b = 0.0
    train_curve, val_curve = [], []
    converged = False
    for epoch in range(cfg.max_iters):
        eta = ETA0 * ETA_DECAY**epoch
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            gw, gb = subgradient(w, b, xt[batch], yt[batch], lam)
            w -= eta * gw
            b -= eta * gb
            norm = math.sqrt(float(w @ w))
            if norm > radius:
                w *= radius / norm
        train_curve.append(hinge(w, b, xt, yt))
        val_curve.append(hinge(w, b, xv, yv))
        if epoch >= 1 and abs(val_curve[-1] - val_curve[-2]) < cfg.epsilon:
            converged = True
            break
    w_raw = w / sigma
    b_raw = b - float((w * mu / sigma).sum())
    return w_raw, b_raw, train_curve, val_curve, converged, len(val_curve) - 1


LOCKSTEP_CASES = [
    (blob_dataset(gap=1.5, seed=7), TrainConfig(seed=8)),  # overlapping: many epochs
    (blob_dataset(n=333, m=5, gap=5.0, seed=3), TrainConfig(seed=4, batch_size=50)),
    (blob_dataset(gap=1.0, seed=5), TrainConfig(seed=6, max_iters=7, epsilon=1e-9)),  # no convergence
    (blob_dataset(gap=2.0, seed=9), TrainConfig(seed=10, c=1e-3)),  # |w| held at the radius
    # 1 / (C * n) underflows to 0: no regularizer and no ball
    (blob_dataset(gap=1.5, seed=11), TrainConfig(seed=12, c=1e308)),
]


@pytest.mark.parametrize("ds, cfg", LOCKSTEP_CASES)
def test_train_is_the_oracle_loop_run_as_a_stack_of_one(ds, cfg):
    model, curve = train(ds, cfg)
    rng = np.random.default_rng(cfg.seed + 9973 * ds.sa)  # each SA has its own seed
    s = _prepare(ds, cfg, rng)
    w, b, train_curve, val_curve, converged, conv_index = optimize_oracle(
        s.x_train, s.y_train, s.x_val, s.y_val, cfg, rng
    )
    np.testing.assert_allclose(model.weights, w, rtol=1e-12, atol=0)
    assert model.bias == pytest.approx(b, rel=1e-12)
    np.testing.assert_allclose(curve.train_loss, train_curve, rtol=1e-12, atol=0)
    np.testing.assert_allclose(curve.val_loss, val_curve, rtol=1e-12, atol=0)
    assert len(curve.val_loss) - 1 == model.meta.iterations - 1 == conv_index
    assert model.meta.converged == converged


@pytest.mark.parametrize("ds, cfg", LOCKSTEP_CASES)
def test_each_bootstrap_round_is_the_oracle_on_its_resample_and_stream(ds, cfg):
    summary = bootstrap_accuracy(ds, cfg)
    # the draw contract: balance and resample with the SA's generator, one child stream per round
    seed = cfg.seed + 9973 * ds.sa
    rng = np.random.default_rng(seed)
    s = _prepare(ds, cfg, rng)
    n = s.y_train.size
    idx = rng.integers(0, n, size=(cfg.bootstrap_rounds, n))
    streams = np.random.SeedSequence(seed).spawn(cfg.bootstrap_rounds)
    rounds = [i for i in range(cfg.bootstrap_rounds) if len(np.unique(s.y_train[idx[i]])) == 2]
    fit = _sgd(
        s.x_train[idx[rounds]], s.y_train[idx[rounds]], s.x_val, s.y_val, cfg,
        [np.random.default_rng(streams[i]) for i in rounds],
    )
    assert summary.accuracies.size == len(rounds) == fit.epochs.size
    for k, i in enumerate(rounds):
        w, b, _, val_curve, converged, _ = optimize_oracle(
            s.x_train[idx[i]], s.y_train[idx[i]], s.x_val, s.y_val, cfg,
            np.random.default_rng(streams[i]),
        )
        pred = (s.x_val @ w + b > 0).astype(np.int8)
        assert summary.accuracies[k] == float((pred == s.y_val).mean())
        assert fit.epochs[k] == len(val_curve)
        assert fit.converged[k] == converged
        np.testing.assert_allclose(fit.weights[k], w, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    r=st.integers(1, 6),
    batch=st.integers(1, 20),
    m=st.integers(1, 6),
    data=st.data(),
)
def test_stacked_subgradient_equals_the_2d_call_row_by_row(r, batch, m, data):
    """Rows hinge-active or not by a drawn mask; models in the stack or not by another."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    hinge_on = np.array(data.draw(st.lists(st.booleans(), min_size=r * batch, max_size=r * batch)))
    in_stack = np.array(data.draw(st.lists(st.booleans(), min_size=r, max_size=r)))
    in_stack[rng.integers(r)] = True
    w = rng.normal(size=(r, m)) + 0.1
    b = rng.normal(size=r)
    y = np.where(rng.uniform(size=(r, batch)) < 0.5, -1.0, 1.0)
    x = rng.normal(size=(r, batch, m))
    # move each row along w until its margin is 0.5 (hinge active) or 1.5 (not)
    target = np.where(hinge_on.reshape(r, batch), 0.5, 1.5)
    shift = (target * y - b[:, None] - np.einsum("rnm,rm->rn", x, w)) / (w * w).sum(axis=1)[:, None]
    x += shift[..., None] * w[:, None, :]
    lam = 0.05
    gw, gb = svm_subgradient(w[in_stack], b[in_stack], x[in_stack], y[in_stack], lam)
    for k, i in enumerate(np.flatnonzero(in_stack)):
        gw1, gb1 = svm_subgradient(w[i], float(b[i]), x[i], y[i], lam)
        np.testing.assert_allclose(gw[k], gw1, rtol=1e-12, atol=1e-14)
        assert gb[k] == pytest.approx(gb1, rel=1e-12, abs=1e-14)
        assert gb1 == -y[i][hinge_on.reshape(r, batch)[i]].sum() / batch
