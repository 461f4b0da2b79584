"""Bus simulation tests: waveform synthesis, attacks, determinism."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import canoa
from canoa import bus

from canoa.bus import (
    AttackKind,
    AttackSpec,
    BusConfig,
    EcuSpec,
    MessageSchedule,
    PowerEvent,
    PowerProfile,
    PowerRole,
    ProgramActivity,
    Scenario,
    lab_scenario,
    simulate,
    synth_power,
    synth_voltage,
    truck_scenario,
    _BusSlot,
    _timeline,
)
from canoa.frames import (
    DOMINANT_VOLTS,
    CanFrame,
    FrameFormat,
    decode_transmissions,
    serialize_frame,
)


def small_lab(**kw):
    kw.setdefault("frames_per_sa", 40)
    kw.setdefault("sample_rate", 2e6)
    kw.setdefault("seed", 13)
    return lab_scenario(**kw)


# ------------------------------------------------------------- synth_voltage


def test_empty_schedule_gives_near_zero_trace():
    cfg = BusConfig(voltage_noise=0.05, sample_rate=1e6)
    rng = np.random.default_rng(0)
    trace = synth_voltage([], cfg, duration=0.05, rng=rng)
    assert trace.samples.size == 50_000
    assert abs(float(trace.samples.mean())) < 0.01
    assert float(np.abs(trace.samples).max()) < 0.5


def test_each_bit_spans_80_samples_at_10mhz_125kbps():
    frame = CanFrame(0x0B, b"\x01", FrameFormat.STANDARD)
    wire = serialize_frame(frame)
    slot = _BusSlot(
        start=0.0, wire=wire, frame=frame, claimed_sa=0, transmitter=0, kind=AttackKind.NORMAL
    )
    cfg = BusConfig(bitrate=125_000, sample_rate=10e6, voltage_noise=0.0)
    trace = synth_voltage([slot], cfg, duration=len(wire) / 125_000 + 1e-3, rng=np.random.default_rng(0))
    dominant = trace.samples > 1.0
    for k, bit in enumerate(wire):
        seg = dominant[k * 80 : (k + 1) * 80]
        assert seg.all() if bit == 0 else not seg.any()


def test_noiseless_threshold_recovers_stuffed_bits():
    frame = CanFrame((0xF2 << 8) | 0x31, b"\xca\xfe", FrameFormat.EXTENDED)
    wire = serialize_frame(frame)
    slot = _BusSlot(
        start=0.0, wire=wire, frame=frame, claimed_sa=0x31, transmitter=0, kind=AttackKind.NORMAL
    )
    cfg = BusConfig(bitrate=250_000, sample_rate=4e6, voltage_noise=0.0)
    trace = synth_voltage([slot], cfg, duration=len(wire) / 250_000 + 1e-4, rng=np.random.default_rng(0))
    spb = 16
    mids = (np.arange(len(wire)) * spb + spb // 2).astype(int)
    recovered = [0 if trace.samples[m] > 1.0 else 1 for m in mids]
    assert bytes(recovered) == wire


# --------------------------------------------------------------- synth_power


def idle_ecu(noise=0.0, **profile_kw):
    profile = PowerProfile(baseline_mean=2.5, baseline_noise=noise, **profile_kw)
    return EcuSpec(index=0, schedules=(), profile=profile)


def test_idle_ecu_zero_noise_is_constant_baseline():
    trace = synth_power(idle_ecu(), [], duration=0.01, sample_rate=1e6, seed=1)
    assert np.allclose(trace.samples, 2.5)


def test_transmit_interval_mean_matches_signature_amplitude():
    # sample-mean oracle over the generated trace
    ecu = idle_ecu(noise=0.05)
    events = [PowerEvent(0.002, 0.006, PowerRole.TRANSMIT)]
    trace = synth_power(ecu, events, duration=0.01, sample_rate=2e6, seed=2)
    fs = 2e6
    tx = trace.samples[int(0.0025 * fs) : int(0.0055 * fs)]
    idle = trace.samples[int(0.007 * fs) :]
    delta = float(tx.mean() - idle.mean())
    amp = ecu.profile.signature_amplitude
    assert abs(delta - amp) <= 0.1 * amp


def test_reception_bump_is_smaller_than_signature():
    ecu = idle_ecu(noise=0.0)
    events = [PowerEvent(0.002, 0.004, PowerRole.RECEIVE)]
    trace = synth_power(ecu, events, duration=0.006, sample_rate=2e6, seed=3)
    fs = 2e6
    rx = trace.samples[int(0.0025 * fs) : int(0.0035 * fs)]
    assert abs(float(rx.mean()) - (2.5 + ecu.profile.reception_ripple)) < 0.02


def test_same_seed_gives_bit_identical_power_trace():
    ecu = idle_ecu(noise=0.1, program=ProgramActivity.HETEROGENEOUS)
    events = [PowerEvent(0.001, 0.002, PowerRole.TRANSMIT), PowerEvent(0.003, 0.004, PowerRole.RECEIVE)]
    a = synth_power(ecu, events, duration=0.005, sample_rate=2e6, seed=42)
    b = synth_power(ecu, events, duration=0.005, sample_rate=2e6, seed=42)
    assert np.array_equal(a.samples, b.samples)


def test_distinguishability_precondition_enforced():
    with pytest.raises(ValueError):
        PowerProfile(signature_amplitude=0.2, baseline_noise=0.1)


# ----------------------------------------------------------------- simulate


def test_clean_scenario_log_all_normal_and_decodable():
    sc = small_lab()
    voltage, powers, truth = simulate(sc)
    assert len(truth) == 200
    assert truth.normal_count == 200
    assert truth.attack_count == 0
    assert len(powers) == 5
    decoded = decode_transmissions(voltage, sc.bus.bitrate, sc.source_map())
    assert len(decoded) == 200
    assert all(d.crc_ok for d in decoded)
    for d, e in zip(decoded, truth.entries):
        assert d.sa == e.claimed_sa
        assert abs(d.t - e.t) < 2.0 / sc.bus.sample_rate


def test_added_module_frames_are_logged_as_attacks():
    atk = AttackSpec(kind=AttackKind.ADDED_MODULE, spoofed_sa=1, count=25)
    sc = small_lab(seed=5, attacks=(atk,))
    voltage, powers, truth = simulate(sc)
    attack_entries = [e for e in truth.entries if e.kind is AttackKind.ADDED_MODULE]
    assert len(attack_entries) == 25
    assert all(e.true_source is None for e in attack_entries)
    assert all(e.claimed_sa == 1 for e in attack_entries)
    decoded = decode_transmissions(voltage, sc.bus.bitrate, sc.source_map())
    assert len(decoded) == len(truth)


def test_compromised_ecu_signature_on_attacker_trace():
    atk = AttackSpec(kind=AttackKind.COMPROMISED_ECU, spoofed_sa=1, attacker=2, count=10)
    sc = small_lab(seed=6, attacks=(atk,))
    voltage, powers, truth = simulate(sc)
    fs = sc.bus.sample_rate
    victim_ecu = 0  # owns SA 1
    for e in truth.entries:
        if e.kind is not AttackKind.COMPROMISED_ECU:
            continue
        assert e.true_source == 2
        a, b = int((e.t + 2e-4) * fs), int((e.t + 8e-4) * fs)
        attacker_level = float(powers[2].samples[a:b].mean())
        victim_level = float(powers[victim_ecu].samples[a:b].mean())
        assert attacker_level - sc.ecus[2].profile.baseline_mean > 0.5
        assert victim_level - sc.ecus[victim_ecu].profile.baseline_mean < 0.5


def test_hijack_changes_decoded_id_and_truncates_victim_signature():
    atk = AttackSpec(
        kind=AttackKind.HIJACK_TRANSMISSION, spoofed_sa=2, attacker=3, count=1, victim_sa=1
    )
    sc = small_lab(seed=8, attacks=(atk,))
    voltage, powers, truth = simulate(sc)
    hijacked = [e for e in truth.entries if e.kind is AttackKind.HIJACK_TRANSMISSION]
    assert len(hijacked) == 1
    e = hijacked[0]
    assert e.frame_id != e.victim_id
    assert e.claimed_sa == 2
    decoded = decode_transmissions(voltage, sc.bus.bitrate, sc.source_map())
    match = min(decoded, key=lambda d: abs(d.t - e.t))
    assert match.frame_id == e.frame_id
    # victim (ECU 0) powers down after the handover; attacker (ECU 3) takes over
    fs = sc.bus.sample_rate
    late_a, late_b = int((e.t + 6e-4) * fs), int((e.t + 1.0e-3) * fs)
    v_base = sc.ecus[0].profile.baseline_mean
    a_base = sc.ecus[3].profile.baseline_mean
    assert float(powers[0].samples[late_a:late_b].mean()) - v_base < 0.5
    assert float(powers[3].samples[late_a:late_b].mean()) - a_base > 0.5
    early_a, early_b = int((e.t + 2e-5) * fs), int((e.t + 1.2e-4) * fs)
    assert float(powers[0].samples[early_a:early_b].mean()) - v_base > 0.5


def test_exactly_one_signature_during_normal_none_during_added():
    atk = AttackSpec(kind=AttackKind.ADDED_MODULE, spoofed_sa=3, count=8)
    sc = small_lab(seed=9, attacks=(atk,))
    voltage, powers, truth = simulate(sc)
    fs = sc.bus.sample_rate
    baselines = [e.profile.baseline_mean for e in sc.ecus]
    for e in truth.entries[:60] + truth.entries[-20:]:
        a, b = int((e.t + 2e-4) * fs), int((e.t + 8e-4) * fs)
        elevated = [
            k for k in range(5) if float(powers[k].samples[a:b].mean()) - baselines[k] > 0.5
        ]
        if e.kind is AttackKind.NORMAL:
            assert elevated == [e.true_source]
        elif e.kind is AttackKind.ADDED_MODULE:
            assert elevated == []


def test_power_noise_independent_across_ecus():
    ecus = tuple(
        EcuSpec(
            index=k,
            schedules=(),
            profile=PowerProfile(baseline_noise=0.1, ripple_frequency_hz=60e3 + 50e3 * k),
        )
        for k in range(3)
    )
    sc = Scenario(bus=BusConfig(sample_rate=2e6), ecus=ecus, duration=0.08, seed=33)
    _, powers, _ = simulate(sc)
    assert powers[0].samples.size >= 100_000
    for i in range(3):
        for j in range(i + 1, 3):
            rho = np.corrcoef(powers[i].samples, powers[j].samples)[0, 1]
            assert abs(rho) < 0.05


def test_simulation_is_deterministic():
    sc = small_lab(frames_per_sa=15, seed=17)
    v1, p1, t1 = simulate(sc)
    v2, p2, t2 = simulate(sc)
    assert np.array_equal(v1.samples, v2.samples)
    for a, b in zip(p1, p2):
        assert np.array_equal(a.samples, b.samples)
    assert t1 == t2


def test_truck_shape_has_two_ecus_three_sas():
    sc = truck_scenario(frames_per_sa=20, seed=2)
    assert sc.source_map().owners == {0: 0, 15: 0, 11: 1}
    voltage, powers, truth = simulate(sc)
    assert len(powers) == 2
    assert len(truth) == 60


def test_scenario_validation():
    ecu = EcuSpec(index=0, schedules=(MessageSchedule(sa=1, period_s=0.01),))
    with pytest.raises(ValueError):
        Scenario(bus=BusConfig(), ecus=(ecu,), duration=0.0)
    dup = EcuSpec(index=1, schedules=(MessageSchedule(sa=1, period_s=0.01),))
    with pytest.raises(ValueError):
        Scenario(bus=BusConfig(), ecus=(ecu, dup), duration=1.0)
    with pytest.raises(ValueError):
        AttackSpec(kind=AttackKind.NORMAL, spoofed_sa=1)
    with pytest.raises(ValueError):
        # attacker cannot spoof its own SA
        Scenario(
            bus=BusConfig(),
            ecus=(ecu,),
            duration=1.0,
            attacks=(AttackSpec(kind=AttackKind.COMPROMISED_ECU, spoofed_sa=1, attacker=0),),
        )


# -------------------------------------------- shared ramps and concurrency


def _pulse_reference(
    samples, sample_rate, start, end, amplitude, rise_fall_s,
    ripple_hz=0.0, ripple_amplitude=0.0, phase=0.0,
):
    """Every pulse computed from scratch, with no ramp shared between pulses."""
    n = samples.size
    a = max(0, int(round(start * sample_rate)))
    b = min(n, int(round(end * sample_rate)))
    if b <= a:
        return
    rs = max(rise_fall_s * sample_rate, 1e-9)
    idx = np.arange(b - a)
    env = 1.0 - np.exp(-idx / rs)
    body = amplitude * env
    if ripple_hz > 0.0 and ripple_amplitude != 0.0:
        t = idx / sample_rate
        body = body + ripple_amplitude * env * np.sin(2 * np.pi * ripple_hz * t + phase)
    samples[a:b] += body
    tail_len = min(n - b, int(round(6 * rs)))
    if tail_len > 0:
        samples[b : b + tail_len] += amplitude * np.exp(-np.arange(1, tail_len + 1) / rs)


def synth_power_reference(ecu, timeline, duration, sample_rate, seed):
    prof = ecu.profile
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    base = prof.baseline_mean + prof.noise_floor_offset
    if prof.baseline_noise > 0:
        samples = rng.standard_normal(n, dtype=np.float32)
        samples *= np.float32(prof.baseline_noise)
        samples += np.float32(base)
    else:
        samples = np.full(n, base, dtype=np.float32)
    rf = prof.signature_rise_fall_s
    for ev in timeline:
        if ev.role is PowerRole.TRANSMIT:
            amp = prof.signature_amplitude * (1.0 + prof.signature_jitter * rng.uniform(-1.0, 1.0))
            _pulse_reference(
                samples, sample_rate, ev.start, ev.end, amp, rf,
                ripple_hz=prof.ripple_frequency_hz,
                ripple_amplitude=prof.ripple_amplitude * amp,
                phase=rng.uniform(0.0, 2 * np.pi),
            )
        else:
            _pulse_reference(samples, sample_rate, ev.start, ev.end, prof.reception_ripple, rf)
    if prof.program is ProgramActivity.HETEROGENEOUS:
        for ev in [ev for ev in timeline if ev.role is PowerRole.TRANSMIT]:
            span = ev.end - ev.start
            for anchor, sign in ((ev.start, -1.0), (ev.end, +1.0)):
                if rng.uniform() > 0.6:
                    continue
                burst_len = span * rng.uniform(0.3, 0.9)
                gap = span * rng.uniform(0.05, 0.4)
                b0 = anchor - gap - burst_len if sign < 0 else anchor + gap
                _pulse_reference(
                    samples, sample_rate, b0, b0 + burst_len,
                    0.35 * prof.signature_amplitude, rf,
                    ripple_hz=rng.uniform(5e3, 20e3),
                    ripple_amplitude=0.1 * prof.signature_amplitude,
                    phase=rng.uniform(0.0, 2 * np.pi),
                )
    return samples


def same_bits(a, b):
    return a.dtype == b.dtype == np.float32 and np.array_equal(a.view(np.uint32), b.view(np.uint32))


TX, RX = PowerRole.TRANSMIT, PowerRole.RECEIVE
FS = 2e6


def _events(*spans):
    return [PowerEvent(a, b, role) for a, b, role in spans]


POWER_CASES = {
    "transmit_and_receive": (
        {},
        _events((1e-3, 2.04e-3, TX), (2.5e-3, 3.5e-3, RX), (4e-3, 5.1e-3, RX), (5.5e-3, 6.6e-3, TX)),
    ),
    "heterogeneous_program": (
        {"program": ProgramActivity.HETEROGENEOUS},
        _events(*[(k * 1.3e-3 + 2e-4, k * 1.3e-3 + 1.2e-3, TX if k % 2 else RX) for k in range(6)]),
    ),
    "hijack_split": (
        {},
        _events((1e-3, 1.3e-3, TX), (1.3e-3, 2.1e-3, RX), (3e-3, 3.4e-3, RX), (3.4e-3, 4.2e-3, TX)),
    ),
    "clipped_at_both_ends": (
        {"program": ProgramActivity.HETEROGENEOUS},
        _events((-5e-4, 6e-4, TX), (2e-3, 3e-3, RX), (6.5e-3, 7.99e-3, RX), (7.4e-3, 8.3e-3, TX)),
    ),
    "growing_cache": (
        {},
        _events((5e-4, 6e-4, RX), (1e-3, 1.2e-3, TX), (2e-3, 4.5e-3, TX), (5e-3, 5.3e-3, RX), (6e-3, 7.9e-3, RX)),
    ),
    "every_pulse_outside_the_trace": (
        {},
        _events((-3e-3, -1e-3, TX), (-5e-4, 0.0, RX), (8e-3, 9e-3, RX), (8.5e-3, 9.5e-3, TX)),
    ),
    "heterogeneous_empty_timeline": ({"program": ProgramActivity.HETEROGENEOUS}, []),
    "noiseless": (
        {"baseline_noise": 0.0, "program": ProgramActivity.HETEROGENEOUS},
        _events((1e-3, 2e-3, TX), (2.5e-3, 3.5e-3, RX), (4e-3, 5e-3, TX)),
    ),
}


@pytest.mark.parametrize("case", sorted(POWER_CASES))
def test_synth_power_bit_equal_to_per_pulse_reference(case):
    profile_kw, events = POWER_CASES[case]
    profile_kw = {"baseline_noise": 0.08, "ripple_frequency_hz": 130e3, **profile_kw}
    ecu = EcuSpec(index=0, schedules=(), profile=PowerProfile(**profile_kw))
    duration = 8e-3
    want = synth_power_reference(ecu, events, duration, FS, seed=11)
    got = synth_power(ecu, events, duration, FS, seed=11)
    assert same_bits(got.samples, want)
    out = np.full(int(round(duration * FS)), np.nan, dtype=np.float32)
    into = synth_power(ecu, events, duration, FS, seed=11, out=out)
    assert into.samples is out
    assert same_bits(out, want)


def test_synth_power_rejects_a_wrong_out_buffer():
    ecu = idle_ecu(noise=0.1)
    with pytest.raises(ValueError):
        synth_power(ecu, [], 1e-3, FS, seed=1, out=np.empty(1999, dtype=np.float32))
    with pytest.raises(ValueError):
        synth_power(ecu, [], 1e-3, FS, seed=1, out=np.empty(2000, dtype=np.float64))


def synth_voltage_reference(order, cfg, duration, rng):
    """The voltage trace built one slot at a time: each slot adds its bits' levels."""
    n = int(round(duration * cfg.sample_rate))
    if cfg.voltage_noise > 0:
        samples = rng.standard_normal(n, dtype=np.float32)
        samples *= np.float32(cfg.voltage_noise)
    else:
        samples = np.zeros(n, dtype=np.float32)
    spb = cfg.sample_rate / cfg.bitrate
    for slot in order:
        s0 = int(round(slot.start * cfg.sample_rate))
        bits = np.frombuffer(slot.wire, dtype=np.uint8)
        bounds = s0 + np.round(np.arange(bits.size + 1) * spb).astype(np.int64)
        counts = np.diff(bounds)
        level = np.where(bits == 0, np.float32(DOMINANT_VOLTS), np.float32(0.0))
        seg = np.repeat(level, counts)
        a, b = bounds[0], min(bounds[-1], n)
        samples[a:b] += seg[: b - a]
    return samples


def simulate_slots(scenario, monkeypatch):
    """``simulate``'s outputs and the slots it handed to ``synth_voltage``."""
    seen = {}
    real_voltage = bus.synth_voltage

    def spy(order, cfg, duration, rng):
        seen["slots"] = list(order)
        return real_voltage(order, cfg, duration, rng)

    with monkeypatch.context() as m:
        m.setattr(bus, "synth_voltage", spy)
        voltage, powers, truth = simulate(scenario)
    return voltage, powers, truth, seen["slots"]


def simulate_serial_reference(scenario, monkeypatch):
    """``simulate``'s ground truth, with the voltage trace and every power trace
    built serially by the reference synthesizers from the same seed children."""
    _, _, truth, slots = simulate_slots(scenario, monkeypatch)
    _, voltage_child, _, *children = np.random.SeedSequence(scenario.seed).spawn(
        3 + len(scenario.ecus)
    )
    voltage = synth_voltage_reference(
        slots, scenario.bus, scenario.duration, np.random.default_rng(voltage_child)
    )
    bit_time = 1.0 / scenario.bus.bitrate
    powers = [
        synth_power_reference(
            ecu, _timeline(slots, ecu, bit_time), scenario.duration,
            scenario.bus.sample_rate, child,
        )
        for ecu, child in zip(scenario.ecus, children)
    ]
    return voltage, powers, truth


SCENARIOS = {
    "lab": lambda: small_lab(frames_per_sa=25, seed=3, program=ProgramActivity.HETEROGENEOUS),
    "truck_attack": lambda: truck_scenario(
        frames_per_sa=30,
        seed=4,
        attacks=(AttackSpec(kind=AttackKind.ADDED_MODULE, spoofed_sa=11, count=10),),
    ),
    "hijack": lambda: small_lab(
        frames_per_sa=25,
        seed=8,
        attacks=(
            AttackSpec(
                kind=AttackKind.HIJACK_TRANSMISSION, spoofed_sa=2, attacker=3, count=3, victim_sa=1
            ),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulate_equals_serial_reference(name, monkeypatch):
    scenario = SCENARIOS[name]()
    voltage, powers, truth = simulate(scenario)
    ref_voltage, ref_powers, ref_truth = simulate_serial_reference(scenario, monkeypatch)
    assert truth == ref_truth
    assert same_bits(voltage.samples, ref_voltage)
    assert len(powers) == len(ref_powers) == len(scenario.ecus)
    for got, want in zip(powers, ref_powers):
        assert same_bits(got.samples, want)
    if name == "hijack":
        assert any(e.kind is AttackKind.HIJACK_TRANSMISSION for e in truth.entries)


class NegativeZeroNoise:
    """An rng whose every noise sample is -0.0, which adding +0.0 would turn into +0.0."""

    def standard_normal(self, n, dtype):
        return np.full(n, -0.0, dtype=dtype)


def _lab_slots(monkeypatch):
    return simulate_slots(SCENARIOS["lab"](), monkeypatch)[3]


@pytest.mark.parametrize("block_samples", [1, 10_000, bus._VOLTAGE_BLOCK_SAMPLES])
@pytest.mark.parametrize("noise", ["gaussian", "noiseless", "negative_zero"])
def test_synth_voltage_bit_equal_to_per_slot_reference(block_samples, noise, monkeypatch):
    slots = _lab_slots(monkeypatch)
    cfg = BusConfig(sample_rate=2e6, voltage_noise=0.0 if noise == "noiseless" else 0.05)
    duration = slots[-1].start + 0.01

    def rng():
        return NegativeZeroNoise() if noise == "negative_zero" else np.random.default_rng(6)

    want = synth_voltage_reference(slots, cfg, duration, rng())
    monkeypatch.setattr(bus, "_VOLTAGE_BLOCK_SAMPLES", block_samples)
    got = synth_voltage(slots, cfg, duration, rng())
    assert same_bits(got.samples, want)
    if noise == "negative_zero":
        assert np.signbit(got.samples).any() and not np.signbit(got.samples).all()


def test_synth_voltage_on_a_trace_cut_inside_the_last_slot(monkeypatch):
    slots = _lab_slots(monkeypatch)
    cfg = BusConfig(sample_rate=2e6)
    last = slots[-1]
    duration = last.start + 0.5 * last.duration_bits / cfg.bitrate
    want = synth_voltage_reference(slots, cfg, duration, np.random.default_rng(2))
    got = synth_voltage(slots, cfg, duration, np.random.default_rng(2))
    assert same_bits(got.samples, want)


def test_synth_voltage_adds_overlapping_and_unordered_slots_in_order():
    frames = [CanFrame(0x100 + k, bytes([k] * 4), FrameFormat.STANDARD) for k in range(4)]
    starts = [1e-3, 0.2e-3, 0.25e-3, 1.1e-3]  # the second overlaps the third, the first the fourth
    slots = [
        _BusSlot(start=t, wire=serialize_frame(f), frame=f, claimed_sa=0, transmitter=0,
                 kind=AttackKind.NORMAL)
        for f, t in zip(frames, starts)
    ]
    cfg = BusConfig(sample_rate=2e6)
    want = synth_voltage_reference(slots, cfg, 3e-3, np.random.default_rng(5))
    got = synth_voltage(slots, cfg, 3e-3, np.random.default_rng(5))
    assert same_bits(got.samples, want)
    assert (got.samples > 3.0).any()  # dominant bits of two slots summed


def _simulation_digest(scenario):
    voltage, powers, truth = simulate(scenario)
    h = hashlib.sha256(voltage.samples.tobytes())
    for p in powers:
        h.update(p.samples.tobytes())
    h.update(repr(truth).encode())
    return h.hexdigest()


PINNED_RUN = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path[:0] = [sys.argv[1]]
import test_bus
from canoa import bus
print(bus._worker_count(5), test_bus._simulation_digest(test_bus.SCENARIOS["lab"]()))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity control")
def test_simulate_pinned_to_one_cpu_gives_the_same_bytes():
    env = dict(os.environ)
    src_dir = str(Path(canoa.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PINNED_RUN, str(Path(__file__).parent)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    workers, digest = done.stdout.split()
    assert workers == "1"
    assert digest == _simulation_digest(SCENARIOS["lab"]())


@pytest.mark.parametrize("fmt", [FrameFormat.STANDARD, FrameFormat.EXTENDED])
def test_attack_frame_id_follows_the_schedule_rule(fmt):
    atk = AttackSpec(kind=AttackKind.ADDED_MODULE, spoofed_sa=0x2B, id_prefix=0x1234D)
    sched = MessageSchedule(sa=0x2B, period_s=0.01, id_prefix=0x1234D)
    assert atk.frame_id(fmt) == sched.frame_id(fmt)
    ecu = EcuSpec(index=0, schedules=(MessageSchedule(sa=0x2B, period_s=0.01),))
    sc = Scenario(bus=BusConfig(format=fmt), ecus=(ecu,), duration=1.0, attacks=(atk,))
    assert sc.source_map().resolve(atk.frame_id(fmt)) == (0x2B, 0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: BusConfig(bitrate=0.0),
        lambda: BusConfig(sample_rate=float("nan")),
        lambda: BusConfig(voltage_noise=-0.1),
        lambda: MessageSchedule(sa=1, period_s=0.0),
        lambda: lab_scenario(bitrate=0.0),
    ],
)
def test_bus_and_schedule_reject_values_the_simulator_cannot_run(make):
    with pytest.raises(ValueError):
        make()


def test_simulate_rejects_fewer_than_ten_samples_per_bit():
    sc = lab_scenario(frames_per_sa=5, sample_rate=1e6)
    with pytest.raises(ValueError, match="1000000 Hz is below 10x the bitrate 125000 bps"):
        simulate(sc)
