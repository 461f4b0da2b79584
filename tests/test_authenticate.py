"""Attribution and attack-decision tests."""

import dataclasses
import math
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canoa import features
from canoa.authenticate import (
    TIE_TOLERANCE,
    Decision,
    EcuModel,
    ModelBundle,
    Verdict,
    attribute,
    authenticate_all,
    decide,
    score,
    softmax,
)
from canoa.bus import AttackKind, AttackSpec, lab_scenario, truck_scenario, simulate
from canoa.errors import BundleMismatch, CanoaError, OutOfBounds
from canoa.features import (
    NormStats,
    Tau,
    TukeyParams,
    ecu_spectra,
    estimate_norm_stats,
    estimate_tau,
    fit_pca,
)
from canoa.frames import DecodedTransmission, SourceAddressMap, decode_transmissions
from canoa.svm import FeatureDataset, TrainConfig, platt_proba, train
from canoa.trace import SampledTrace
from canoa.workflow import (
    PipelineConfig,
    build_bundle,
    normal_transmissions,
    usable_transmissions,
)


# ------------------------------------------------------------------ softmax


def test_softmax_uniform_for_equal_inputs():
    out = softmax(np.array([3.7, 3.7, 3.7]))
    assert np.allclose(out, 1 / 3)
    assert abs(out.sum() - 1.0) < 1e-9


def test_softmax_shift_invariance():
    v = np.array([0.1, -2.0, 5.0, 1.3])
    assert np.allclose(softmax(v), softmax(v + 42.0), atol=1e-12)


def test_softmax_preserves_argmax():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=rng.integers(2, 8))
        assert int(np.argmax(softmax(v))) == int(np.argmax(v))


def test_softmax_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        softmax(np.array([]))
    with pytest.raises(ValueError):
        softmax(np.array([1.0, np.nan]))


# ------------------------------------------------------------ decision rules


def stub_bundle(owners: dict[int, int], delta: float = 0.5) -> ModelBundle:
    """Bundle with placeholder models; decisions only need the map and delta."""
    samap = SourceAddressMap(owners=owners)
    tau, rate = Tau(1e-3), 2e6
    n_bins = tau.sample_count(rate) // 2 + 1
    models = []
    for ecu in samap.ecus:
        k = len(samap.owned(ecu))
        zeros = np.zeros((n_bins, k)), np.zeros(k), np.zeros((k, 2))
        models.append(EcuModel(NormStats(0.0, 1.0), *zeros))
    return ModelBundle(
        ecus=tuple(models),
        samap=samap,
        tau=tau,
        window=TukeyParams(0.25),
        sample_rate=rate,
        delta=delta,
    )


def claiming(sa: int | None, t: float = 0.0) -> DecodedTransmission:
    return DecodedTransmission(t=t, sa=sa, frame_id=None, duration=1e-4, crc_ok=True)


def decide_one(claimed_sa: int | None, p_tx: dict[int, float], bundle: ModelBundle) -> Verdict:
    """The verdict of one frame claiming ``claimed_sa``, from its per-SA probabilities."""
    return decide([claiming(claimed_sa)], np.array([[p_tx[sa] for sa in bundle.sas]]), bundle)[0]


def decide_row(tx: DecodedTransmission, p_row: np.ndarray, bundle: ModelBundle) -> Verdict:
    """Reference for :func:`decide`: the decision rule applied to one row, SA by SA."""
    sas, values = bundle.sas, [float(p) for p in p_row]
    top = max(values)
    contenders = [sa for sa, p in zip(sas, values) if top - p <= TIE_TOLERANCE]
    winner = min(contenders)
    winner_ecu = bundle.samap.owners[winner]
    positives = tuple(sa for sa, p in zip(sas, values) if p > bundle.delta)
    if not top > bundle.delta:
        decision = Decision.ADDED_MODULE
    elif tx.sa is not None and bundle.samap.owners.get(tx.sa) == winner_ecu:
        decision = Decision.AUTHENTIC
    else:
        decision = Decision.IMPERSONATION
    return Verdict(
        t=tx.t,
        claimed_sa=tx.sa,
        p_tx=dict(zip(sas, values)),
        attributed_sa=winner,
        attributed_ecu=winner_ecu,
        decision=decision,
        tie=len(contenders) > 1,
        multiple_positive=positives if len(positives) > 1 else (),
    )


TRUCK_OWNERS = {0: 0, 15: 0, 11: 1}


def test_purported_sender_wins_is_authentic():
    bundle = stub_bundle(TRUCK_OWNERS)
    v = decide_one(0, {0: 0.95, 15: 0.2, 11: 0.1}, bundle)
    assert v.decision is Decision.AUTHENTIC
    assert v.attributed_sa == 0
    assert v.flagged_compromised is None
    assert abs(float(softmax(list(v.p_tx.values())).sum()) - 1.0) < 1e-9


def test_sibling_confusion_stays_authentic():
    # SA 15 wins for a frame claiming SA 0: same ECU, still the right sender
    bundle = stub_bundle(TRUCK_OWNERS)
    v = decide_one(0, {0: 0.55, 15: 0.8, 11: 0.05}, bundle)
    assert v.decision is Decision.AUTHENTIC
    assert v.attributed_sa == 15


def test_other_ecu_winning_is_impersonation_with_flag():
    bundle = stub_bundle(TRUCK_OWNERS)
    v = decide_one(0, {0: 0.1, 15: 0.15, 11: 0.92}, bundle)
    assert v.decision is Decision.IMPERSONATION
    assert v.true_source == (1, 11)
    assert v.flagged_compromised == 1


def test_all_below_delta_is_added_module():
    bundle = stub_bundle(TRUCK_OWNERS)
    v = decide_one(0, {0: 0.3, 15: 0.4, 11: 0.2}, bundle)
    assert v.decision is Decision.ADDED_MODULE
    assert v.flagged_compromised is None


def test_exact_tie_resolves_to_lowest_sa_and_records_it():
    bundle = stub_bundle(TRUCK_OWNERS)
    v = decide_one(0, {0: 0.8, 15: 0.8, 11: 0.1}, bundle)
    assert v.attributed_sa == 0
    assert v.tie


def test_multiple_positives_are_recorded():
    bundle = stub_bundle(TRUCK_OWNERS)
    v = decide_one(0, {0: 0.7, 15: 0.9, 11: 0.8}, bundle)
    assert set(v.multiple_positive) == {0, 15, 11}
    assert v.decision is Decision.AUTHENTIC  # winner 15 is still the right ECU


def test_decision_is_exactly_one_of_the_three():
    bundle = stub_bundle(TRUCK_OWNERS)
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = {sa: float(rng.uniform()) for sa in TRUCK_OWNERS}
        v = decide_one(0, p, bundle)
        assert v.decision in (Decision.AUTHENTIC, Decision.IMPERSONATION, Decision.ADDED_MODULE)
        is_imp = v.decision is Decision.IMPERSONATION
        assert (v.true_source is not None) == is_imp
        assert (v.flagged_compromised is not None) == is_imp


@st.composite
def decision_cases(draw):
    """Frames claiming a mapped, an unmapped or no SA, their score matrix and a bundle.

    Entries are drawn from a few levels and delta, each nudged by less or more
    than ``TIE_TOLERANCE``, so exact ties, near ties and values at delta are common.
    """
    sas = draw(st.lists(st.integers(0, 255), min_size=1, max_size=8, unique=True))
    owners = {sa: draw(st.integers(0, 3)) for sa in sas}
    bundle = stub_bundle(owners, delta=draw(st.sampled_from([0.5, 0.25]) | st.floats(0.01, 0.99)))
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)) + [bundle.delta]
    nudges = [0.0, 0.0, -TIE_TOLERANCE / 2, TIE_TOLERANCE / 2, -3 * TIE_TOLERANCE]
    entry = st.floats(0.0, 1.0) | st.builds(
        lambda x, d: x + d, st.sampled_from(levels), st.sampled_from(nudges)
    )
    n = draw(st.integers(0, 6))
    row = st.lists(entry, min_size=len(sas), max_size=len(sas))
    rows = draw(st.lists(row, min_size=n, max_size=n))
    claimed = st.sampled_from(sas) | st.none() | st.integers(256, 300)
    txs = [claiming(draw(claimed), t=1e-3 * i) for i in range(n)]
    return txs, np.array(rows).reshape(n, len(sas)), bundle


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(decision_cases())
def test_array_decide_matches_the_per_row_reference(case):
    txs, p, bundle = case
    assert decide(txs, p, bundle) == [decide_row(tx, row, bundle) for tx, row in zip(txs, p)]


def test_bundle_validation():
    with pytest.raises(ValueError):
        stub_bundle(TRUCK_OWNERS, delta=1.5)
    samap = SourceAddressMap(owners={1: 0, 2: 1})
    good = stub_bundle({1: 0, 2: 1})
    with pytest.raises(ValueError, match=r"the map's 2 ECUs \[0, 1\] need one model each, found 1"):
        ModelBundle(
            ecus=good.ecus[:1],
            samap=samap,
            tau=Tau(1e-3),
            window=TukeyParams(),
            sample_rate=2e6,
            delta=0.5,
        )
    for rate in (0.0, -2e6, float("nan")):
        with pytest.raises(ValueError, match="sample rate"):
            dataclasses.replace(good, sample_rate=rate)
    # one weight row per spectrum bin: 1001 at 1 ms and 2 MHz, 751 at 1.5 MHz
    with pytest.raises(ValueError, match=r"\(1001, 1\).*751 spectrum bins"):
        dataclasses.replace(good, sample_rate=1.5e6)
    truck = stub_bundle(TRUCK_OWNERS)
    ecu0 = truck.ecus[0]
    short_bias = dataclasses.replace(ecu0, bias=ecu0.bias[:1])
    with pytest.raises(ValueError, match=r"2 SAs .* need \(\(1001, 2\), \(2,\), \(2, 2\)\)"):
        dataclasses.replace(truck, ecus=(short_bias,) + truck.ecus[1:])
    # one model per ECU: two models of one ECU could disagree on its normalization
    halves = tuple(
        dataclasses.replace(
            ecu0,
            weights=ecu0.weights[:, [j]],
            bias=ecu0.bias[[j]],
            calibration=ecu0.calibration[[j]],
        )
        for j in range(2)
    )
    with pytest.raises(ValueError, match=r"2 ECUs \[0, 1\] need one model each, found 3"):
        dataclasses.replace(truck, ecus=halves + truck.ecus[1:])
    # models go in ECU order: ECU 0 owns SAs 0 and 15, so ECU 1's one column does not fit it
    with pytest.raises(ValueError, match=r"ECU 0 .* 2 SAs .* need \(\(1001, 2\)"):
        dataclasses.replace(truck, ecus=truck.ecus[1:] + truck.ecus[:1])


# ---------------------------------------------------------- integration path


@pytest.fixture(scope="module")
def truck_run():
    sc = truck_scenario(frames_per_sa=160, sample_rate=3e6, seed=51)
    voltage, powers, truth = simulate(sc)
    samap = sc.source_map()
    decoded = decode_transmissions(voltage, sc.bus.bitrate, samap)
    power_map = {e.index: p for e, p in zip(sc.ecus, powers)}
    result = build_bundle(
        power_map, decoded, samap, PipelineConfig(calib_len=40_000), TrainConfig(seed=4)
    )
    return sc, power_map, decoded, result


def test_normal_frame_from_sa11_attributes_to_sa11(truck_run):
    sc, power_map, decoded, result = truck_run
    usable = usable_transmissions(decoded, power_map, result.tau)
    sa11 = [d for d in usable if d.sa == 11][5:25]
    verdicts = [attribute(tx, power_map, result.bundle) for tx in sa11]
    hits = sum(v.attributed_sa == 11 and v.decision is Decision.AUTHENTIC for v in verdicts)
    assert hits >= 19  # diagonal-grade attribution for the distinct-ECU address


def test_no_normal_frame_escalates_to_impersonation(truck_run):
    sc, power_map, decoded, result = truck_run
    usable = usable_transmissions(decoded, power_map, result.tau)
    verdicts = authenticate_all(usable, power_map, result.bundle)
    assert all(v.decision is not Decision.IMPERSONATION for v in verdicts)


def test_batch_matches_single_attribution(truck_run):
    sc, power_map, decoded, result = truck_run
    usable = usable_transmissions(decoded, power_map, result.tau)[:12]
    batch = authenticate_all(usable, power_map, result.bundle)
    for tx, vb in zip(usable, batch):
        vs = attribute(tx, power_map, result.bundle)
        assert vs.decision == vb.decision
        assert vs.attributed_sa == vb.attributed_sa
        for sa in result.bundle.sas:
            assert math.isclose(vs.p_tx[sa], vb.p_tx[sa], rel_tol=1e-9, abs_tol=1e-12)
    tx = usable[0]
    p = score([tx], power_map, result.bundle)
    assert attribute(tx, power_map, result.bundle) == decide([tx], p, result.bundle)[0]


@pytest.fixture(scope="module")
def truck_single_scores(truck_run):
    """Every usable frame of the truck run and its row of scores, each frame scored alone."""
    sc, power_map, decoded, result = truck_run
    usable = usable_transmissions(decoded, power_map, result.tau)
    return usable, np.vstack([score([tx], power_map, result.bundle) for tx in usable])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_batch_cut_into_blocks_anywhere_matches_single_attribution(
    truck_run, truck_single_scores, data
):
    # a block holds `rows` frames of every ECU's segments; the batch spans
    # at least two blocks and starts at any frame
    sc, power_map, decoded, result = truck_run
    usable, single = truck_single_scores
    row_bytes = 8 * len(result.bundle.ecus) * result.tau.sample_count(result.bundle.sample_rate)
    rows = data.draw(st.integers(1, 40), label="rows")
    block_bytes = rows * row_bytes + data.draw(st.integers(0, row_bytes - 1), label="extra")
    lo = data.draw(st.integers(0, len(usable) - 2 * rows - 1), label="lo")
    hi = data.draw(st.integers(lo + 2 * rows + 1, len(usable)), label="hi")
    with unittest.mock.patch.object(features, "_SPECTRA_BLOCK_BYTES", block_bytes):
        p = score(usable[lo:hi], power_map, result.bundle)
    assert np.abs(p - single[lo:hi]).max() <= 1e-12
    batch = decide(usable[lo:hi], p, result.bundle)
    alone = decide(usable[lo:hi], single[lo:hi], result.bundle)
    assert [(v.decision, v.attributed_sa) for v in batch] == [
        (v.decision, v.attributed_sa) for v in alone
    ]


def test_scoring_memory_follows_the_block_not_the_batch(truck_run):
    # what grows with the batch is the output and each frame's start samples,
    # tens of bytes a frame; the spectra exist one block at a time
    sc, power_map, decoded, result = truck_run
    usable = usable_transmissions(decoded, power_map, result.tau)
    extra = []
    for batch in (usable, usable * 2):
        tracemalloc.start()
        try:
            p = score(batch, power_map, result.bundle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        extra.append(peak - p.nbytes)
    assert extra[0] < 3 * features._SPECTRA_BLOCK_BYTES
    assert extra[1] - extra[0] < features._SPECTRA_BLOCK_BYTES / 20


def test_frame_whose_segment_overruns_one_ecus_trace_is_out_of_bounds(truck_run):
    sc, power_map, decoded, result = truck_run
    usable = usable_transmissions(decoded, power_map, result.tau)
    last, n_samples = usable[-1], result.tau.sample_count(result.bundle.sample_rate)
    trace = power_map[1]
    # ECU 1's trace ends one sample before the last frame's segment does
    end = int(round((last.t - trace.start_time) * trace.sample_rate)) + n_samples - 1
    cut = {**power_map, 1: SampledTrace(trace.samples[:end], trace.sample_rate, trace.start_time)}
    early = dataclasses.replace(usable[0], t=trace.start_time - 1e-3)
    for tx in (last, early):
        with pytest.raises(OutOfBounds, match=f"t = {tx.t!r} s falls outside") as single:
            attribute(tx, cut, result.bundle)
        with pytest.raises(OutOfBounds, match=f"t = {tx.t!r} s falls outside") as batch:
            authenticate_all([usable[0], tx], cut, result.bundle)
        assert isinstance(single.value, CanoaError) and isinstance(batch.value, CanoaError)
    assert len(authenticate_all(usable[:-1], cut, result.bundle)) == len(usable) - 1


def test_score_rejects_traces_at_another_sample_rate(truck_run):
    sc, power_map, decoded, result = truck_run
    usable = usable_transmissions(decoded, power_map, result.tau)[:5]
    trace = power_map[1]
    resampled = {**power_map, 1: SampledTrace(trace.samples, 2e6, trace.start_time)}
    with pytest.raises(BundleMismatch, match="2000000 Hz.*3000000 Hz"):
        score(usable, resampled, result.bundle)
    with pytest.raises(BundleMismatch, match="sample rate"):
        build_bundle(resampled, decoded, sc.source_map())


def test_score_needs_a_power_trace_for_every_ecu_of_the_bundle(truck_run):
    sc, power_map, decoded, result = truck_run
    usable = usable_transmissions(decoded, power_map, result.tau)[:5]
    with pytest.raises(BundleMismatch, match=r"bundle expects power channels \[0, 1\], found \[0\]"):
        authenticate_all(usable, {0: power_map[0]}, result.bundle)


def test_frame_whose_segment_overruns_a_truncated_capture_is_out_of_window(truck_run):
    sc, power_map, decoded, result = truck_run
    rate, tau = 3e6, result.tau
    # the segment is longer than the window it covers, so a capture that ends
    # one sample after the last frame's t + tau holds the window, not the segment
    assert tau.sample_count(rate) > round(tau.value * rate)
    usable = usable_transmissions(decoded, power_map, tau)
    end = usable[-1].t + tau.value
    truncated = {
        e: SampledTrace(
            p.samples[: int(round((end - p.start_time) * p.sample_rate)) + 1],
            p.sample_rate,
            p.start_time,
        )
        for e, p in power_map.items()
    }
    kept = usable_transmissions(decoded, truncated, tau)
    assert kept == usable[:-1]
    assert len(authenticate_all(kept, truncated, result.bundle)) == len(kept)


# ------------------------------------------------------------ fold oracle


def unfolded_scores(powers, decoded, samap, pcfg, tcfg, transmissions):
    """The scorer before the fold: principal coordinates, then each trained SVM.

    Repeats :func:`build_bundle`'s training steps, keeps every SVM on the
    PCA coordinates it was trained on, and scores ``transmissions`` with
    ``basis.transform``, the margin and the Platt sigmoid.
    """
    tau = estimate_tau([d for d in decoded if d.crc_ok and d.sa is not None])
    usable = usable_transmissions(decoded, powers, tau)
    window = TukeyParams(pcfg.tukey_alpha)
    labels = np.array([d.sa for d in usable])
    columns = []
    for sa in samap.sas:
        trace = powers[samap.owners[sa]]
        stats = estimate_norm_stats(trace, min(pcfg.calib_len, trace.samples.size))
        training = ecu_spectra(trace, stats, usable, tau, window)
        basis = fit_pca(training, pcfg.n_components)
        y = (labels == sa).astype(np.int8)
        model, _ = train(FeatureDataset(basis.transform(training), y, sa, samap.owners[sa]), tcfg)
        spectra = ecu_spectra(trace, stats, transmissions, tau, window)
        margins = basis.transform(spectra) @ model.weights + model.bias
        columns.append(platt_proba(margins, *model.calibration))
    return np.column_stack(columns)


def lab_capture():
    return lab_scenario(frames_per_sa=150, sample_rate=2e6, seed=17)


def truck_attack_capture():
    spoof = AttackSpec(kind=AttackKind.ADDED_MODULE, spoofed_sa=0, count=60)
    return truck_scenario(frames_per_sa=160, sample_rate=3e6, seed=23, attacks=(spoof,))


@pytest.mark.parametrize("capture", [lab_capture, truck_attack_capture])
def test_folded_scorer_matches_the_unfolded_oracle(capture):
    sc = capture()
    voltage, powers, truth = simulate(sc)
    samap = sc.source_map()
    decoded = decode_transmissions(voltage, sc.bus.bitrate, samap)
    power_map = {e.index: p for e, p in zip(sc.ecus, powers)}
    training_set = normal_transmissions(decoded, truth)
    pcfg, tcfg = PipelineConfig(calib_len=40_000), TrainConfig(seed=3)
    result = build_bundle(power_map, training_set, samap, pcfg, tcfg)
    # every decoded frame, attack frames included, is scored
    usable = usable_transmissions(decoded, power_map, result.tau)
    folded = authenticate_all(usable, power_map, result.bundle)
    p_ref = unfolded_scores(power_map, training_set, samap, pcfg, tcfg, usable)
    sas = result.bundle.sas
    for v, ref in zip(folded, decide(usable, p_ref, result.bundle)):
        assert (v.decision, v.attributed_sa, v.tie, v.multiple_positive) == (
            ref.decision,
            ref.attributed_sa,
            ref.tie,
            ref.multiple_positive,
        )
    p_fold = np.array([[v.p_tx[sa] for sa in sas] for v in folded])
    np.testing.assert_allclose(p_fold, p_ref, rtol=1e-9, atol=0)
    if capture is truck_attack_capture:
        assert len(usable) > len(usable_transmissions(training_set, power_map, result.tau))
