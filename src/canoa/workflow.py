"""End-to-end pipeline glue shared by the CLI, the benchmark, and tests.

Decode a voltage trace, estimate the transmission window, build labeled
feature datasets, train one classifier per source address, and evaluate
sender attribution. Train/validation/test portions are contiguous
transmission-index slices, so evaluation always runs on the newest
traffic the models never saw labels for.

:func:`factor_sweep` runs that pipeline once per :class:`FactorCell` (a
bus speed, frame format and program activity) into a :class:`FactorGrid`.
"""

from __future__ import annotations

import dataclasses
import logging
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .authenticate import Decision, EcuModel, ModelBundle, Verdict, authenticate_all
from .bus import AttackKind, GroundTruthEntry, GroundTruthLog, ProgramActivity, Scenario, simulate
from .errors import BundleMismatch, MissingChannel
from .evaluate import ConfusionMatrix, MetricReport, confusion, metrics
from .features import (
    DEFAULT_CALIB_LEN,
    DEFAULT_COMPONENTS,
    MIN_CALIB_LEN,
    FeatureDataset,
    Tau,
    TukeyParams,
    build_datasets,
    estimate_tau,
    segments_fit,
)
from .frames import DecodedTransmission, FrameFormat, SourceAddressMap, decode_transmissions
from .svm import LearningCurve, TrainConfig, split_indices, train
from .trace import SampledTrace

log = logging.getLogger("canoa.workflow")

TRUTH_TOLERANCE = 2e-4  # s between a decoded frame's start and its ground-truth entry's


@dataclass(frozen=True)
class PipelineConfig:
    n_components: int = DEFAULT_COMPONENTS
    tukey_alpha: float = 0.25
    delta: float = 0.5
    calib_len: int = DEFAULT_CALIB_LEN

    def __post_init__(self):
        if self.n_components < 1:
            raise ValueError("n_components must be at least 1")
        TukeyParams(self.tukey_alpha)  # alpha must be in [0, 1]
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.calib_len < MIN_CALIB_LEN:
            raise ValueError(f"calib_len must be at least {MIN_CALIB_LEN}")


@dataclass
class TrainResult:
    bundle: ModelBundle
    curves: dict[int, LearningCurve]
    datasets: dict[tuple[int, int], FeatureDataset]
    transmissions: list[DecodedTransmission]
    tau: Tau


def usable_transmissions(
    decoded: Sequence[DecodedTransmission],
    powers: Mapping[int, SampledTrace],
    tau: Tau,
) -> list[DecodedTransmission]:
    """Valid transmissions whose feature segment fits inside every trace."""
    valid = [d for d in decoded if d.crc_ok and d.sa is not None]
    times = [d.t for d in valid]
    fits = np.ones(len(valid), dtype=bool)
    for trace in powers.values():
        fits &= segments_fit(trace, times, tau)[1]
    return [d for d, ok in zip(valid, fits.tolist()) if ok]


def build_bundle(
    powers: Mapping[int, SampledTrace],
    decoded: Sequence[DecodedTransmission],
    samap: SourceAddressMap,
    pipeline_cfg: PipelineConfig | None = None,
    train_cfg: TrainConfig | None = None,
) -> TrainResult:
    """Train one model per ECU, for its SAs, from decoded traffic and power traces.

    Each SVM is trained on its ECU's principal coordinates and then folded
    into a model of the spectrum s: ((s - mu) Vᵀ) w + b = s (Vᵀ w) + (b - mu Vᵀ w).
    """
    pcfg = pipeline_cfg or PipelineConfig()
    tcfg = train_cfg or TrainConfig()
    missing = [e for e in samap.ecus if e not in powers]
    if missing:
        raise MissingChannel(f"no power trace for ECU index(es) {missing}")
    rates = sorted({powers[e].sample_rate for e in samap.ecus})
    if len(rates) > 1:
        raise BundleMismatch(f"power traces differ in sample rate: {rates} Hz")
    valid = [d for d in decoded if d.crc_ok and d.sa is not None]
    tau = estimate_tau(valid)
    usable = usable_transmissions(decoded, powers, tau)
    window = TukeyParams(pcfg.tukey_alpha)
    datasets, bases, stats = build_datasets(
        powers,
        usable,
        samap,
        tau,
        window,
        n_components=pcfg.n_components,
        calib_len=pcfg.calib_len,
    )
    ecus = []
    curves: dict[int, LearningCurve] = {}
    for ecu in samap.ecus:
        sas = tuple(sa for e, sa in sorted(datasets) if e == ecu)
        models = []
        for sa in sas:
            model, curves[sa] = train(datasets[(ecu, sa)], tcfg)
            if not model.meta.converged:
                log.warning("model for SA %d did not converge in %d iterations", sa, tcfg.max_iters)
            models.append(model)
        w = bases[ecu].components.T @ np.column_stack([m.weights for m in models])
        bias = np.array([m.bias for m in models]) - bases[ecu].mean @ w
        calibration = np.array([m.calibration for m in models])
        meta = tuple(m.meta for m in models)
        ecus.append(EcuModel(ecu, sas, stats[ecu], w, bias, calibration, meta))
    bundle = ModelBundle(
        tuple(ecus), samap, tau, window, sample_rate=rates[0], delta=pcfg.delta
    )
    return TrainResult(
        bundle=bundle, curves=curves, datasets=datasets, transmissions=usable, tau=tau
    )


def holdout_transmissions(
    result: TrainResult, train_cfg: TrainConfig | None = None
) -> list[DecodedTransmission]:
    """The held-out test slice of the transmissions used to build a bundle."""
    tcfg = train_cfg or TrainConfig()
    _, _, te = split_indices(len(result.transmissions), tcfg.split)
    return result.transmissions[te]


def _nearest_time(times, queries) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest of the sorted ``times`` to each query, and its distance.

    An equal distance picks the earlier time. With no times every
    distance is infinite.
    """
    times = np.asarray(times, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if times.size == 0:
        return np.zeros(queries.size, dtype=np.intp), np.full(queries.size, np.inf)
    after = np.searchsorted(times, queries)
    hi = np.minimum(after, times.size - 1)
    lo = np.maximum(after - 1, 0)
    d_hi = np.abs(times[hi] - queries)
    d_lo = np.abs(times[lo] - queries)
    take_hi = d_hi < d_lo
    return np.where(take_hi, hi, lo), np.where(take_hi, d_hi, d_lo)


def normal_transmissions(
    decoded: Sequence[DecodedTransmission],
    truth: GroundTruthLog,
) -> list[DecodedTransmission]:
    """Drop decoded transmissions that ground truth marks as attacks.

    Used when training from a capture that already contains injected
    attacks: models must learn from legitimate traffic only, and an
    attack frame's claimed SA names an ECU that never transmitted it.
    """
    attack_times = sorted(e.t for e in truth.entries if e.kind is not AttackKind.NORMAL)
    _, dist = _nearest_time(attack_times, [d.t for d in decoded])
    return [d for d, near in zip(decoded, dist) if near > TRUTH_TOLERANCE]


def align_truth(
    verdicts: Sequence[Verdict], truth: GroundTruthLog
) -> list[tuple[Verdict, GroundTruthEntry]]:
    """Pair each verdict with the ground-truth entry of the nearest frame."""
    idx, dist = _nearest_time([e.t for e in truth.entries], [v.t for v in verdicts])
    far = np.flatnonzero(dist > TRUTH_TOLERANCE)
    if far.size:
        t = verdicts[far[0]].t
        raise ValueError(f"no ground-truth frame within {TRUTH_TOLERANCE}s of t={t}")
    return [(v, truth.entries[i]) for v, i in zip(verdicts, idx)]


def sender_confusion(
    verdicts: Sequence[Verdict], samap: SourceAddressMap
) -> ConfusionMatrix:
    """(ECU, SA) attribution confusion over verdicts with a mapped claim."""
    truth_labels = []
    predicted = []
    for v in verdicts:
        if v.claimed_sa is None or v.claimed_sa not in samap.owners:
            continue
        truth_labels.append((samap.owners[v.claimed_sa], v.claimed_sa))
        predicted.append((samap.owners[v.attributed_sa], v.attributed_sa))
    labels = sorted(((ecu, sa) for sa, ecu in samap.owners.items()))
    return confusion(truth_labels, predicted, labels=labels)


def attack_confusion(
    verdicts: Sequence[Verdict], truth: GroundTruthLog
) -> ConfusionMatrix:
    """{normal, attack} confusion: any non-Authentic decision flags attack."""
    pairs = align_truth(verdicts, truth)
    truth_labels = ["normal" if e.kind is AttackKind.NORMAL else "attack" for _, e in pairs]
    predicted = ["normal" if v.decision is Decision.AUTHENTIC else "attack" for v, _ in pairs]
    return confusion(truth_labels, predicted, labels=("normal", "attack"))


# ------------------------------------------------------------- factor sweep


@dataclass(frozen=True)
class FactorCell:
    """One level of each swept factor."""

    bitrate: float
    frame_format: FrameFormat
    program: ProgramActivity


@dataclass
class FactorGrid:
    """Per-cell metric reports for the bus-speed x format x program sweep."""

    reports: dict[FactorCell, MetricReport] = field(default_factory=dict)
    errors: dict[FactorCell, str] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.errors and bool(self.reports)


def grid_cells() -> list[FactorCell]:
    """The twelve cells: three bus speeds x both frame formats x both programs."""
    return [
        FactorCell(bitrate, fmt, program)
        for bitrate in (125_000.0, 250_000.0, 500_000.0)
        for fmt in FrameFormat
        for program in ProgramActivity
    ]


def scenario_for_cell(base: Scenario, cell: FactorCell, seed: int) -> Scenario:
    """Clone a scenario with one factor cell's bus and program levels."""
    bus = dataclasses.replace(base.bus, bitrate=cell.bitrate, format=cell.frame_format)
    ecus = tuple(
        dataclasses.replace(ecu, profile=dataclasses.replace(ecu.profile, program=cell.program))
        for ecu in base.ecus
    )
    return dataclasses.replace(base, bus=bus, ecus=ecus, seed=seed)


def run_cell(
    scenario: Scenario,
    pipeline_cfg: PipelineConfig | None = None,
    train_cfg: TrainConfig | None = None,
) -> MetricReport:
    """Full pipeline for one sweep cell: sender-attribution metrics on test."""
    tcfg = train_cfg or TrainConfig()
    voltage, powers, _ = simulate(scenario)
    samap = scenario.source_map()
    decoded = decode_transmissions(voltage, scenario.bus.bitrate, samap)
    power_map = {ecu.index: p for ecu, p in zip(scenario.ecus, powers)}
    result = build_bundle(power_map, decoded, samap, pipeline_cfg, tcfg)
    held_out = holdout_transmissions(result, tcfg)
    verdicts = authenticate_all(held_out, power_map, result.bundle)
    return metrics(sender_confusion(verdicts, samap))


def _run_cell(scenario, pipeline_cfg, train_cfg) -> tuple[MetricReport | None, str | None]:
    """One sweep cell's report, or the error that stopped it."""
    try:
        return run_cell(scenario, pipeline_cfg, train_cfg), None
    except Exception as exc:  # recorded, not fatal
        return None, str(exc)


def factor_sweep(
    base: Scenario,
    cells: Sequence[FactorCell] | None = None,
    seeds: Sequence[int] | None = None,
    pipeline_cfg: PipelineConfig | None = None,
    train_cfg: TrainConfig | None = None,
    jobs: int = 1,
) -> FactorGrid:
    """Run the full pipeline once per factor cell and collect metrics.

    Per-cell failures are logged and recorded in the grid's ``errors``
    rather than aborting the sweep. Cells run in a process pool when
    ``jobs > 1``; the grid is the same whatever the job count. Raises
    ValueError when ``jobs < 1``.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if cells is None:
        cells = grid_cells()
    if seeds is None:
        seeds = [base.seed + 101 * i for i in range(len(cells))]
    if len(seeds) != len(cells):
        raise ValueError("one seed per cell required")
    scenarios = [scenario_for_cell(base, cell, seed) for cell, seed in zip(cells, seeds)]
    run = partial(_run_cell, pipeline_cfg=pipeline_cfg, train_cfg=train_cfg)
    grid = FactorGrid()
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(jobs, spawn) if jobs > 1 else nullcontext() as pool:
        results = pool.map(run, scenarios) if pool else map(run, scenarios)
        for cell, (report, error) in zip(cells, results):
            if error is None:
                grid.reports[cell] = report
            else:
                log.warning("sweep cell %s failed: %s", cell, error)
                grid.errors[cell] = error
    return grid
