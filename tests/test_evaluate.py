"""Evaluation tests: confusion, metrics, Welch separability, sweep plumbing."""

import math

import numpy as np
import pytest

from canoa.bus import lab_scenario
from canoa.errors import LengthMismatch
from canoa.evaluate import confusion, metrics
from canoa.frames import FrameFormat
from canoa.bus import ProgramActivity
from canoa.svm import TrainConfig
from canoa.workflow import FactorCell, PipelineConfig, factor_sweep, grid_cells, scenario_for_cell
from welch import ZeroVariance, separability, student_t_sf


# ---------------------------------------------------------------- confusion


def test_perfect_predictions_give_identity_rates():
    labels = [1, 2, 3, 4, 5] * 10
    cm = confusion(labels, labels)
    assert np.allclose(cm.rates, np.eye(5))
    assert metrics(cm).accuracy == 1.0


def test_counts_and_row_normalization():
    truth = ["a", "a", "a", "b"]
    pred = ["a", "a", "b", "b"]
    cm = confusion(truth, pred)
    assert cm.labels == ("a", "b")
    assert cm.counts.tolist() == [[2, 1], [0, 1]]
    assert np.allclose(cm.rates.sum(axis=1), 1.0)


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        confusion([1, 2], [1])
    with pytest.raises(LengthMismatch):
        confusion([], [])


# ------------------------------------------------------------------ metrics


def test_metrics_direct_formula():
    # one positive label with TP=9, FP=1, FN=0
    truth = ["pos"] * 9 + ["neg"] * 1
    pred = ["pos"] * 10
    cm = confusion(truth, pred, labels=("pos", "neg"))
    rep = metrics(cm)
    m = rep.per_label["pos"]
    assert m.precision == pytest.approx(0.9)
    assert m.recall == pytest.approx(1.0)
    assert m.f_measure == pytest.approx(18 / 19)


def test_identity_matrix_metrics_all_one():
    truth = list(range(4)) * 5
    cm = confusion(truth, truth)
    rep = metrics(cm)
    assert rep.accuracy == 1.0
    assert rep.macro_precision == 1.0
    assert rep.macro_recall == 1.0
    assert rep.macro_f == 1.0
    assert not any(m.degenerate for m in rep.per_label.values())


def test_degenerate_absent_label_is_flagged_zero():
    truth = ["a"] * 6
    pred = ["a"] * 6
    cm = confusion(truth, pred, labels=("a", "ghost"))
    rep = metrics(cm)
    assert rep.per_label["ghost"].precision == 0.0
    assert rep.per_label["ghost"].degenerate
    assert not rep.per_label["a"].degenerate
    assert rep.accuracy == 1.0


def test_accuracy_equals_one_minus_misattribution_rate():
    rng = np.random.default_rng(2)
    truth = rng.integers(0, 4, 300).tolist()
    pred = [t if rng.uniform() > 0.2 else int((t + 1) % 4) for t in truth]
    cm = confusion(truth, pred)
    wrong = sum(a != b for a, b in zip(truth, pred))
    assert metrics(cm).accuracy == pytest.approx(1.0 - wrong / len(truth), abs=1e-12)


def test_all_metric_values_in_unit_interval():
    rng = np.random.default_rng(3)
    truth = rng.integers(0, 3, 200).tolist()
    pred = rng.integers(0, 3, 200).tolist()
    rep = metrics(confusion(truth, pred))
    for m in rep.per_label.values():
        assert 0.0 <= m.precision <= 1.0
        assert 0.0 <= m.recall <= 1.0
        assert 0.0 <= m.f_measure <= 1.0
    assert 0.0 <= rep.accuracy <= 1.0


# ------------------------------------------------------------- separability


def t_sf_quadrature(t: float, dof: float, n: int = 4000) -> float:
    """Independent oracle: Simpson integration of the t-density tail.

    Substitutes x = t + u/(1-u) to map the tail onto u in [0, 1).
    """
    log_c = math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2) - 0.5 * math.log(dof * math.pi)

    def integrand(u: float) -> float:
        x = t + u / (1.0 - u)
        jac = 1.0 / (1.0 - u) ** 2
        return math.exp(log_c - ((dof + 1) / 2) * math.log1p(x * x / dof)) * jac

    h = 1.0 / n
    total = integrand(0.0)
    for k in range(1, n):
        u = k * h
        total += integrand(u) * (4 if k % 2 else 2)
    total += 0.0  # integrand vanishes as u -> 1
    return total * h / 3.0


@pytest.mark.parametrize("dof", [3.0, 10.0, 37.5])
@pytest.mark.parametrize("t", [0.5, 1.7, 4.0])
def test_t_survival_matches_quadrature_oracle(t, dof):
    assert student_t_sf(t, dof) == pytest.approx(t_sf_quadrature(t, dof), rel=1e-6)


def test_t_survival_symmetry_and_limits():
    assert student_t_sf(0.0, 5.0) == pytest.approx(0.5, abs=1e-12)
    assert student_t_sf(-2.0, 5.0) == pytest.approx(1.0 - student_t_sf(2.0, 5.0), abs=1e-12)


def test_identical_populations_not_separable():
    rng = np.random.default_rng(4)
    x = rng.normal(size=500)
    rep = separability(x, x.copy())
    assert abs(rep.t_score) < 1e-9
    assert rep.p_value > 0.99


def test_distant_gaussians_are_overwhelmingly_separable():
    rng = np.random.default_rng(5)
    pos = rng.normal(10.0, 1.0, 100)
    neg = rng.normal(0.0, 1.0, 100)
    rep = separability(pos, neg)
    assert rep.p_value < 1e-10
    assert rep.t_score > 0


def test_welch_t_antisymmetry():
    rng = np.random.default_rng(6)
    a = rng.normal(1.0, 2.0, 80)
    b = rng.normal(0.0, 0.5, 60)
    assert separability(a, b).t_score == pytest.approx(-separability(b, a).t_score, rel=1e-12)


def test_first_column_of_matrices_is_used():
    rng = np.random.default_rng(7)
    pos = np.column_stack([rng.normal(5, 1, 50), rng.normal(0, 1, 50)])
    neg = np.column_stack([rng.normal(0, 1, 50), rng.normal(0, 1, 50)])
    rep_m = separability(pos, neg)
    rep_v = separability(pos[:, 0], neg[:, 0])
    assert rep_m.t_score == pytest.approx(rep_v.t_score, rel=1e-12)


def test_zero_variance_error_and_constant_difference():
    with pytest.raises(ZeroVariance):
        separability(np.full(5, 2.0), np.full(7, 2.0))
    rep = separability(np.full(5, 3.0), np.full(7, 2.0))
    assert math.isinf(rep.t_score)
    assert rep.p_value == 0.0


# ------------------------------------------------------------- factor sweep


def test_grid_has_twelve_cells():
    cells = grid_cells()
    assert len(cells) == 12
    assert len(set(cells)) == 12


def test_scenario_for_cell_applies_levels():
    base = lab_scenario(frames_per_sa=5, sample_rate=2e6, seed=1)
    cell = FactorCell(
        bitrate=500_000.0, frame_format=FrameFormat.STANDARD, program=ProgramActivity.HETEROGENEOUS
    )
    sc = scenario_for_cell(base, cell, seed=99)
    assert sc.bus.bitrate == 500_000.0
    assert sc.bus.format is FrameFormat.STANDARD
    assert sc.seed == 99
    assert all(e.profile.program is ProgramActivity.HETEROGENEOUS for e in sc.ecus)
    # base untouched
    assert base.bus.bitrate == 125_000.0


def test_mini_sweep_completes_and_records_failures():
    base = lab_scenario(frames_per_sa=60, sample_rate=4e6, seed=2)
    cells = [
        FactorCell(125_000.0, FrameFormat.EXTENDED, ProgramActivity.UNIFORM),
        FactorCell(250_000.0, FrameFormat.EXTENDED, ProgramActivity.HETEROGENEOUS),
    ]
    grid = factor_sweep(
        base,
        cells=cells,
        pipeline_cfg=PipelineConfig(n_components=12, calib_len=40_000),
        train_cfg=TrainConfig(seed=5, max_iters=150),
    )
    assert not grid.errors and grid.reports
    for cell in cells:
        rep = grid.reports[cell]
        assert 0.0 <= rep.accuracy <= 1.0
    # a broken cell is recorded, not raised
    bad = [FactorCell(125_000.0, FrameFormat.EXTENDED, ProgramActivity.UNIFORM)]
    tiny = lab_scenario(frames_per_sa=2, sample_rate=2e6, seed=3)
    grid2 = factor_sweep(
        tiny, cells=bad, pipeline_cfg=PipelineConfig(n_components=50), train_cfg=TrainConfig()
    )
    assert bad[0] in grid2.errors
    assert grid2.errors or not grid2.reports


def test_sweep_is_deterministic_under_fixed_seeds():
    base = lab_scenario(frames_per_sa=40, sample_rate=4e6, seed=8)
    cells = [FactorCell(125_000.0, FrameFormat.EXTENDED, ProgramActivity.UNIFORM)]
    kw = dict(
        cells=cells,
        seeds=[123],
        pipeline_cfg=PipelineConfig(n_components=10, calib_len=40_000),
        train_cfg=TrainConfig(seed=8, max_iters=120),
    )
    g1 = factor_sweep(base, **kw)
    g2 = factor_sweep(base, jobs=2, **kw)
    assert g1.reports[cells[0]] == g2.reports[cells[0]]


@pytest.mark.parametrize("jobs", [0, -1])
def test_sweep_rejects_fewer_than_one_job(jobs):
    base = lab_scenario(frames_per_sa=5, sample_rate=4e6, seed=2)
    with pytest.raises(ValueError, match="jobs"):
        factor_sweep(base, cells=[], jobs=jobs)


def test_sweep_records_a_cell_below_ten_samples_per_bit():
    base = lab_scenario(frames_per_sa=5, sample_rate=4e6, seed=2)
    cells = [FactorCell(500_000.0, FrameFormat.EXTENDED, ProgramActivity.UNIFORM)]
    grid = factor_sweep(base, cells=cells)
    assert not grid.reports
    assert "4000000 Hz" in grid.errors[cells[0]] and "500000 bps" in grid.errors[cells[0]]
