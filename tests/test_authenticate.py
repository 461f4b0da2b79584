"""Attribution and attack-decision tests."""

import math

import numpy as np
import pytest

from canoa.authenticate import (
    Decision,
    ModelBundle,
    SaEntry,
    attribute,
    authenticate_all,
    decide,
    score,
    softmax,
)
from canoa.bus import truck_scenario, simulate
from canoa.features import NormStats, PcaBasis, Tau, TukeyParams
from canoa.frames import SourceAddressMap, decode_transmissions
from canoa.svm import SvmModel, TrainConfig, TrainingMeta
from canoa.workflow import PipelineConfig, build_bundle, usable_transmissions


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
    meta = TrainingMeta(1, 0.0, 1e-4, True, 0, 1.0)
    entries = tuple(
        SaEntry(
            sa=sa,
            ecu=ecu,
            model=SvmModel(np.zeros(2), 0.0, (0.0, 0.0), meta),
            basis=PcaBasis(np.zeros(3), np.eye(2, 3), np.ones(2)),
            stats=NormStats(0.0, 1.0),
        )
        for sa, ecu in sorted(owners.items())
    )
    return ModelBundle(
        entries=entries, samap=samap, tau=Tau(1e-3), window=TukeyParams(0.25), delta=delta
    )


def row(p_tx: dict[int, float], bundle: ModelBundle) -> np.ndarray:
    """Per-SA probabilities in the bundle's column order, as :func:`score` gives them."""
    return np.array([p_tx[sa] for sa in bundle.sas])


TRUCK_OWNERS = {0: 0, 15: 0, 11: 1}


def test_purported_sender_wins_is_authentic():
    bundle = stub_bundle(TRUCK_OWNERS)
    v = decide(0, 0.0, row({0: 0.95, 15: 0.2, 11: 0.1}, bundle), bundle)
    assert v.decision is Decision.AUTHENTIC
    assert v.attributed_sa == 0
    assert v.flagged_compromised is None
    assert abs(sum(v.softmax_probs.values()) - 1.0) < 1e-9


def test_sibling_confusion_stays_authentic():
    # SA 15 wins for a frame claiming SA 0: same ECU, still the right sender
    bundle = stub_bundle(TRUCK_OWNERS)
    v = decide(0, 0.0, row({0: 0.55, 15: 0.8, 11: 0.05}, bundle), bundle)
    assert v.decision is Decision.AUTHENTIC
    assert v.attributed_sa == 15


def test_other_ecu_winning_is_impersonation_with_flag():
    bundle = stub_bundle(TRUCK_OWNERS)
    v = decide(0, 0.0, row({0: 0.1, 15: 0.15, 11: 0.92}, bundle), bundle)
    assert v.decision is Decision.IMPERSONATION
    assert v.true_source == (1, 11)
    assert v.flagged_compromised == 1


def test_all_below_delta_is_added_module():
    bundle = stub_bundle(TRUCK_OWNERS)
    v = decide(0, 0.0, row({0: 0.3, 15: 0.4, 11: 0.2}, bundle), bundle)
    assert v.decision is Decision.ADDED_MODULE
    assert v.flagged_compromised is None


def test_exact_tie_resolves_to_lowest_sa_and_records_it():
    bundle = stub_bundle(TRUCK_OWNERS)
    v = decide(0, 0.0, row({0: 0.8, 15: 0.8, 11: 0.1}, bundle), bundle)
    assert v.attributed_sa == 0
    assert v.tie


def test_multiple_positives_are_recorded():
    bundle = stub_bundle(TRUCK_OWNERS)
    v = decide(0, 0.0, row({0: 0.7, 15: 0.9, 11: 0.8}, bundle), bundle)
    assert set(v.multiple_positive) == {0, 15, 11}
    assert v.decision is Decision.AUTHENTIC  # winner 15 is still the right ECU


def test_decision_is_exactly_one_of_the_three():
    bundle = stub_bundle(TRUCK_OWNERS)
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = {sa: float(rng.uniform()) for sa in TRUCK_OWNERS}
        v = decide(0, 0.0, row(p, bundle), bundle)
        assert v.decision in (Decision.AUTHENTIC, Decision.IMPERSONATION, Decision.ADDED_MODULE)
        is_imp = v.decision is Decision.IMPERSONATION
        assert (v.true_source is not None) == is_imp
        assert (v.flagged_compromised is not None) == is_imp


def test_bundle_validation():
    with pytest.raises(ValueError):
        stub_bundle(TRUCK_OWNERS, delta=1.5)
    samap = SourceAddressMap(owners={1: 0, 2: 1})
    good = stub_bundle({1: 0, 2: 1})
    with pytest.raises(ValueError):
        ModelBundle(
            entries=good.entries[:1],
            samap=samap,
            tau=Tau(1e-3),
            window=TukeyParams(),
            delta=0.5,
        )


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
    assert attribute(tx, power_map, result.bundle) == decide(tx.sa, tx.t, p[0], result.bundle)
