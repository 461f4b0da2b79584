"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Scenario sizes follow the stated criteria; seeds
are fixed so every number here is reproducible.
"""

import time

import numpy as np
import pytest

from canoa.authenticate import Decision, attribute, authenticate_all, softmax
from canoa.bus import (
    AttackKind,
    AttackSpec,
    ProgramActivity,
    lab_scenario,
    simulate,
    truck_scenario,
)
from canoa.features import NormStats, Tau, TukeyParams, ecu_spectra, fit_pca, tukey_window
from canoa.frames import (
    CanFrame,
    DecodedTransmission,
    FrameFormat,
    SourceAddressMap,
    arbitrate,
    decode_transmissions,
    serialize_frame,
)
from canoa.svm import TrainConfig, svm_objective, svm_subgradient
from canoa.trace import SampledTrace
from canoa.traceio import (
    TraceKind,
    load_bundle,
    read_trace_file,
    save_bundle,
    write_trace_file,
)
from canoa.workflow import (
    FactorCell,
    PipelineConfig,
    align_truth,
    attack_confusion,
    build_bundle,
    factor_sweep,
    sender_confusion,
    holdout_transmissions,
    usable_transmissions,
)
from welch import separability

LOW_BYTE_MAP = SourceAddressMap(owners={s: s for s in range(256)})


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


def synth_batch(frames, bitrate, sample_rate, noise=0.02, seed=0):
    order = arbitrate([(f, 0.0) for f in frames], bitrate)
    spb = sample_rate / bitrate
    end = max(a.start_time + a.duration for a in order) + 16 / bitrate
    rng = np.random.default_rng(seed)
    samples = rng.normal(0.0, noise, int(round(end * sample_rate))).astype(np.float32)
    for a in order:
        s0 = int(round(a.start_time * sample_rate))
        bits = np.frombuffer(a.wire, dtype=np.uint8)
        bounds = s0 + np.round(np.arange(bits.size + 1) * spb).astype(np.int64)
        seg = np.repeat(np.where(bits == 0, np.float32(2.0), np.float32(0.0)), np.diff(bounds))
        samples[bounds[0] : bounds[-1]] += seg[: max(0, min(bounds[-1], samples.size) - bounds[0])]
    return SampledTrace(samples, sample_rate), sorted(order, key=lambda a: a.start_time)


# ----------------------------------------------------------- shared fixtures


@pytest.fixture(scope="module")
def lab_run():
    """Criterion 2 pipeline: 5 ECUs, 5000 frames, M=50."""
    t0 = time.monotonic()
    scenario = lab_scenario(frames_per_sa=1000, sample_rate=2e6, seed=7)
    voltage, powers, truth = simulate(scenario)
    samap = scenario.source_map()
    decoded = decode_transmissions(voltage, scenario.bus.bitrate, samap)
    power_map = {e.index: p for e, p in zip(scenario.ecus, powers)}
    tcfg = TrainConfig(seed=7)
    result = build_bundle(power_map, decoded, samap, PipelineConfig(n_components=50), tcfg)
    held_out = holdout_transmissions(result, tcfg)
    verdicts = authenticate_all(held_out, power_map, result.bundle)
    elapsed = time.monotonic() - t0
    return {
        "scenario": scenario,
        "voltage": voltage,
        "powers": power_map,
        "truth": truth,
        "decoded": decoded,
        "result": result,
        "verdicts": verdicts,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def truck_attack_run():
    """Criterion 3/4 pipeline: truck-shaped traffic with 1000 spoofed frames."""
    t0 = time.monotonic()
    clean = truck_scenario(frames_per_sa=1000, sample_rate=3e6, seed=21)
    samap = clean.source_map()
    v, p, _ = simulate(clean)
    decoded = decode_transmissions(v, clean.bus.bitrate, samap)
    pm = {e.index: t for e, t in zip(clean.ecus, p)}
    result = build_bundle(pm, decoded, samap, PipelineConfig(), TrainConfig(seed=21))

    spoof = AttackSpec(kind=AttackKind.ADDED_MODULE, spoofed_sa=0, count=1000)
    attacked = truck_scenario(frames_per_sa=1000, sample_rate=3e6, seed=22, attacks=(spoof,))
    v2, p2, truth = simulate(attacked)
    decoded2 = decode_transmissions(v2, attacked.bus.bitrate, samap)
    pm2 = {e.index: t for e, t in zip(attacked.ecus, p2)}
    usable = usable_transmissions(decoded2, pm2, result.tau)
    verdicts = authenticate_all(usable, pm2, result.bundle)
    elapsed = time.monotonic() - t0
    return {
        "samap": samap,
        "result": result,
        "truth": truth,
        "powers": pm2,
        "usable": usable,
        "verdicts": verdicts,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def compromised_run(lab_run):
    """Criterion 3 second half: a compromised ECU spoofing another's SA."""
    samap = lab_run["scenario"].source_map()
    attack = AttackSpec(kind=AttackKind.COMPROMISED_ECU, spoofed_sa=1, attacker=2, count=300)
    scenario = lab_scenario(frames_per_sa=400, sample_rate=2e6, seed=9, attacks=(attack,))
    v, p, truth = simulate(scenario)
    decoded = decode_transmissions(v, scenario.bus.bitrate, samap)
    pm = {e.index: t for e, t in zip(scenario.ecus, p)}
    result = lab_run["result"]
    usable = usable_transmissions(decoded, pm, result.tau)
    verdicts = authenticate_all(usable, pm, result.bundle)
    return {"truth": truth, "verdicts": verdicts}


# -------------------------------------------------------------- criterion 1


def test_criterion_1_protocol_round_trip():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    total = 0
    mismatches = 0
    for bitrate in (125_000, 250_000, 500_000):
        for fmt in (FrameFormat.STANDARD, FrameFormat.EXTENDED):
            limit = 1 << (29 if fmt is FrameFormat.EXTENDED else 11)
            remaining = 1667
            while remaining > 0:
                batch_n = min(120, remaining)
                ids = rng.choice(limit, size=batch_n, replace=False)
                frames = [
                    CanFrame(int(fid), bytes(rng.integers(0, 256, rng.integers(0, 9)).tolist()), fmt)
                    for fid in ids
                ]
                trace, order = synth_batch(frames, bitrate, 16 * bitrate, seed=total)
                decoded = decode_transmissions(trace, bitrate, LOW_BYTE_MAP)
                assert len(decoded) == batch_n
                for d, a in zip(decoded, order):
                    if not (
                        d.crc_ok
                        and d.frame_id == a.frame.frame_id
                        and d.payload == a.frame.payload
                    ):
                        mismatches += 1
                total += batch_n
                remaining -= batch_n
    # exhaustive single-bit corruption of one fixed frame
    frame = CanFrame((0xF3 << 8) | 0x2A, bytes(range(8)), FrameFormat.EXTENDED)
    wire = serialize_frame(frame)
    surviving = 0
    for k in range(len(wire)):
        corrupted = list(wire)
        corrupted[k] = 1 - corrupted[k]
        trace = SampledTrace(
            np.repeat(np.where(np.asarray(corrupted) == 0, 2.0, 0.0), 16).astype(np.float32),
            16 * 125_000,
        )
        decoded = decode_transmissions(trace, 125_000, LOW_BYTE_MAP)
        if any(d.crc_ok for d in decoded):
            surviving += 1
    elapsed = time.monotonic() - t0
    report(
        "criterion 1",
        total >= 10_000 and mismatches == 0 and surviving == 0 and elapsed < 30,
        f"{total} frames round-tripped with {mismatches} errors; "
        f"{surviving}/{len(wire)} corruptions undetected; {elapsed:.1f}s (< 30s)",
    )


# -------------------------------------------------------------- criterion 2


def test_criterion_2_lab_reproduction(lab_run):
    result = lab_run["result"]
    tau_ms = result.tau.value * 1e3
    tau_ok = abs(tau_ms - 1.02) <= 0.102
    accs = {sa: meta.validation_accuracy for sa, meta in result.bundle.training.items()}
    acc_ok = all(a >= 0.99 for a in accs.values()) and len(accs) == 5
    cm = sender_confusion(lab_run["verdicts"], lab_run["scenario"].source_map())
    diag = [float(cm.rates[i, i]) for i in range(len(cm.labels))]
    diag_ok = all(d >= 0.99 for d in diag)
    n_ok = len(lab_run["truth"]) == 5000
    elapsed = lab_run["elapsed"]
    report(
        "criterion 2",
        tau_ok and acc_ok and diag_ok and n_ok and elapsed < 600,
        f"{len(lab_run['truth'])} frames, tau={tau_ms:.3f}ms (1.02 +/- 10%), "
        f"val_acc={sorted(round(a, 4) for a in accs.values())}, "
        f"confusion diagonal={[round(d, 4) for d in diag]}, {elapsed:.0f}s (< 600s)",
    )


# -------------------------------------------------------------- criterion 3


def test_criterion_3_attack_detection(truck_attack_run, compromised_run):
    cm = attack_confusion(truck_attack_run["verdicts"], truck_attack_run["truth"])
    attack_rate = cm.rate("attack", "attack")
    normal_rate = cm.rate("normal", "normal")
    added_ok = attack_rate == 1.0 and normal_rate >= 0.99

    pairs = align_truth(compromised_run["verdicts"], compromised_run["truth"])
    comp = [(v, e) for v, e in pairs if e.kind is AttackKind.COMPROMISED_ECU]
    correct = sum(
        1
        for v, e in comp
        if v.decision is Decision.IMPERSONATION and v.flagged_compromised == e.true_source
    )
    comp_rate = correct / len(comp)
    report(
        "criterion 3",
        added_ok and comp_rate >= 0.99,
        f"added-module: attack rate={attack_rate:.4f} (=1.0), normal rate={normal_rate:.4f} "
        f"(>=0.99); compromised: {correct}/{len(comp)} impersonation with correct flag "
        f"({comp_rate:.4f} >= 0.99)",
    )


# -------------------------------------------------------------- criterion 4


def test_criterion_4_sibling_behavior(truck_attack_run):
    samap = truck_attack_run["samap"]
    pairs = align_truth(truck_attack_run["verdicts"], truck_attack_run["truth"])
    normal = [v for v, e in pairs if e.kind is AttackKind.NORMAL]
    cm = sender_confusion(normal, samap)
    labels = list(cm.labels)
    i0, i15, i11 = labels.index((0, 0)), labels.index((0, 15)), labels.index((1, 11))
    sibling_count = int(cm.counts[i0, i15] + cm.counts[i15, i0])
    cross = max(float(cm.rates[i0, i11]), float(cm.rates[i15, i11]))
    escalations = sum(v.decision is Decision.IMPERSONATION for v in normal)
    report(
        "criterion 4",
        sibling_count > 0 and cross < 0.01 and escalations == 0,
        f"0<->15 confusion count={sibling_count} (> 0), cross-ECU rate to SA 11={cross:.4f} "
        f"(< 0.01), impersonation escalations={escalations} (= 0)",
    )


# -------------------------------------------------------------- criterion 5


def test_criterion_5_convergence(lab_run, truck_attack_run):
    epsilon = 1e-4
    worst_delta = 0.0
    worst_std = 0.0
    models = 0
    for result in (lab_run["result"], truck_attack_run["result"]):
        for sa, curve in result.curves.items():
            i = curve.convergence_index
            delta = abs(float(curve.val_loss[i] - curve.val_loss[i - 1])) if i >= 1 else 0.0
            tail_std = float(np.std(curve.val_loss[i:]))
            worst_delta = max(worst_delta, delta)
            worst_std = max(worst_std, tail_std)
            models += 1
    report(
        "criterion 5",
        worst_delta < epsilon and worst_std < 1.0,
        f"{models} models: max validation-loss delta at convergence={worst_delta:.2e} "
        f"(< {epsilon}), max post-convergence std={worst_std:.4f} (< 1)",
    )


# -------------------------------------------------------------- criterion 6


def test_criterion_6_numerical_suites():
    rng = np.random.default_rng(606)
    # Parseval within 1e-6 relative, on the feature path's spectrum of one
    # segment with identity normalization and a rectangular window
    x = rng.normal(size=1024)
    segment = DecodedTransmission(t=0.0, sa=0, frame_id=0, duration=1024.0, crc_ok=True)
    mags = ecu_spectra(
        SampledTrace(x, 1.0), NormStats(0.0, 1.0), [segment], Tau(1024.0), TukeyParams(0.0)
    )[0]
    two_sided = mags[0] ** 2 + 2 * (mags[1:-1] ** 2).sum() + mags[-1] ** 2
    parseval_err = abs((x**2).sum() - two_sided / x.size) / (x**2).sum()
    # Tukey endpoints exactly zero
    tukey_ok = all(
        tukey_window(n, TukeyParams(a))[0] == 0.0 and tukey_window(n, TukeyParams(a))[-1] == 0.0
        for n in (64, 321)
        for a in (0.1, 0.25, 1.0)
    )
    # PCA orthonormality within 1e-9 and eigendecomposition agreement within 1e-6
    data = rng.normal(size=(400, 30)) * rng.uniform(0.5, 3.0, size=30)
    basis = fit_pca(data, 10)
    gram_err = float(np.abs(basis.components @ basis.components.T - np.eye(10)).max())
    eigvals = np.linalg.eigh(np.cov(data, rowvar=False, ddof=1))[0][::-1][:10]
    eig_err = float(np.abs(basis.explained_variance - eigvals).max() / eigvals[0])
    # hinge subgradient vs central finite differences within 1e-4
    xg = rng.normal(size=(50, 6))
    yg = np.where(rng.uniform(size=50) < 0.5, -1.0, 1.0)
    w, b, lam, h = rng.normal(size=6), 0.3, 0.02, 1e-6
    gw, gb = svm_subgradient(w, b, xg, yg, lam)
    fd_err = 0.0
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        fd = (svm_objective(w + e, b, xg, yg, lam) - svm_objective(w - e, b, xg, yg, lam)) / (2 * h)
        fd_err = max(fd_err, abs(fd - gw[j]) / max(1.0, abs(fd)))
    # softmax sums to one within 1e-9
    softmax_err = max(
        abs(float(softmax(rng.normal(size=rng.integers(2, 9)) * 10).sum()) - 1.0)
        for _ in range(50)
    )
    report(
        "criterion 6",
        parseval_err < 1e-6
        and tukey_ok
        and gram_err < 1e-9
        and eig_err < 1e-6
        and fd_err < 1e-4
        and softmax_err < 1e-9,
        f"parseval={parseval_err:.2e}, tukey endpoints zero={tukey_ok}, "
        f"pca orthonormality={gram_err:.2e}, eig agreement={eig_err:.2e}, "
        f"subgradient FD={fd_err:.2e}, softmax sum={softmax_err:.2e}",
    )


def test_criterion_6_separability_is_significant(truck_attack_run):
    # separability statistic rides on the same numeric suite
    result = truck_attack_run["result"]
    worst_p = 0.0
    for (ecu, sa), ds in result.datasets.items():
        rep = separability(ds.x[ds.y == 1], ds.x[ds.y == 0])
        worst_p = max(worst_p, rep.p_value)
    report(
        "criterion 6 (separability)",
        worst_p <= 0.05,
        f"max per-SA p-value={worst_p:.2e} (<= 0.05)",
    )


# -------------------------------------------------------------- criterion 7


def test_criterion_7_factor_sweep():
    t0 = time.monotonic()
    base = lab_scenario(frames_per_sa=240, sample_rate=6e6, seed=40)
    grid = factor_sweep(
        base,
        pipeline_cfg=PipelineConfig(n_components=50),
        train_cfg=TrainConfig(seed=40, max_iters=300),
    )
    elapsed = time.monotonic() - t0
    complete = grid.complete and len(grid.reports) == 12
    simplest = grid.reports.get(FactorCell(125_000, FrameFormat.STANDARD, ProgramActivity.UNIFORM))
    hardest = grid.reports.get(
        FactorCell(500_000, FrameFormat.EXTENDED, ProgramActivity.HETEROGENEOUS)
    )
    ordering = simplest is not None and hardest is not None and simplest.accuracy >= hardest.accuracy
    floor_ok = hardest is not None and hardest.accuracy >= 0.95
    report(
        "criterion 7",
        complete and ordering and floor_ok and elapsed < 1800,
        f"12/12 cells complete={complete}, simplest={getattr(simplest, 'accuracy', None):.4f} >= "
        f"hardest={getattr(hardest, 'accuracy', None):.4f} >= 0.95, {elapsed:.0f}s (< 1800s)",
    )


# -------------------------------------------------------------- criterion 8


def test_criterion_8_attribution_latency(lab_run):
    result = lab_run["result"]
    powers = lab_run["powers"]
    held = holdout_transmissions(lab_run["result"], TrainConfig(seed=7))[:200]
    timings = []
    for tx in held:
        t0 = time.perf_counter()
        attribute(tx, powers, result.bundle)
        timings.append(time.perf_counter() - t0)
    mean_ms = float(np.mean(timings)) * 1e3
    report(
        "criterion 8",
        mean_ms <= 10.0,
        f"mean attribution latency over {len(held)} transmissions = {mean_ms:.3f} ms (<= 10 ms)",
    )


# -------------------------------------------------------------- criterion 9


def test_criterion_9_persistence_round_trips(truck_attack_run, tmp_path):
    # trace file: bit-exact
    rng = np.random.default_rng(909)
    samples = rng.normal(size=250_000).astype(np.float32)
    trace_path = tmp_path / "trace.ctrc"
    write_trace_file(trace_path, samples, TraceKind.POWER, 3e6, start_time=0.125)
    back = read_trace_file(trace_path)
    trace_ok = (
        np.array_equal(back.samples[0], samples)
        and back.sample_rate == 3e6
        and back.start_time == 0.125
    )
    # bundle: verdict-identical over a 1000-frame set
    bundle = truck_attack_run["result"].bundle
    bundle_path = tmp_path / "bundle.cbnd"
    save_bundle(bundle_path, bundle)
    loaded = load_bundle(bundle_path)
    frames = truck_attack_run["usable"][:1000]
    before = authenticate_all(frames, truck_attack_run["powers"], bundle)
    after = authenticate_all(frames, truck_attack_run["powers"], loaded)
    verdicts_ok = all(
        a.decision == b.decision
        and a.attributed_sa == b.attributed_sa
        and a.p_tx == b.p_tx
        and a.softmax_probs == b.softmax_probs
        for a, b in zip(before, after)
    )
    report(
        "criterion 9",
        trace_ok and verdicts_ok and len(frames) == 1000,
        f"trace round-trip bit-exact={trace_ok}; bundle round-trip verdict-identical over "
        f"{len(frames)} frames={verdicts_ok}",
    )
