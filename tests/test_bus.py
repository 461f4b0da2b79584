"""Bus simulation tests: waveform synthesis, attacks, determinism."""

import dataclasses
import functools
import hashlib
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canoa
from canoa import bus

from canoa.bus import (
    AttackKind,
    AttackSpec,
    BusConfig,
    EcuSpec,
    MessageSchedule,
    PowerProfile,
    ProgramActivity,
    Scenario,
    lab_scenario,
    simulate,
    synth_power,
    synth_voltage,
    truck_scenario,
)
from canoa.frames import (
    DOMINANT_VOLTS,
    ArbitratedFrame,
    CanFrame,
    FrameFormat,
    decode_transmissions,
    serialize_frames,
)
from canoa.traceio import TraceKind, read_trace_file, write_ground_truth, write_trace_file


def with_power_rate(scenario, rate):
    """``scenario`` with its power channels sampled at ``rate``."""
    bus = dataclasses.replace(scenario.bus, power_sample_rate=rate)
    return dataclasses.replace(scenario, bus=bus)


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
    wire = serialize_frames([frame])[0]
    slot = ArbitratedFrame(0, frame, 0.0, wire, len(wire) / 125_000)
    cfg = BusConfig(bitrate=125_000, sample_rate=10e6, voltage_noise=0.0)
    trace = synth_voltage([slot], cfg, duration=len(wire) / 125_000 + 1e-3, rng=np.random.default_rng(0))
    dominant = trace.samples > 1.0
    for k, bit in enumerate(wire):
        seg = dominant[k * 80 : (k + 1) * 80]
        assert seg.all() if bit == 0 else not seg.any()


def test_noiseless_threshold_recovers_stuffed_bits():
    frame = CanFrame((0xF2 << 8) | 0x31, b"\xca\xfe", FrameFormat.EXTENDED)
    wire = serialize_frames([frame])[0]
    slot = ArbitratedFrame(0, frame, 0.0, wire, len(wire) / 250_000)
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
    events = [(0.002, 0.006, ecu.index)]
    trace = synth_power(ecu, events, duration=0.01, sample_rate=2e6, seed=2)
    fs = 2e6
    tx = trace.samples[int(0.0025 * fs) : int(0.0055 * fs)]
    idle = trace.samples[int(0.007 * fs) :]
    delta = float(tx.mean() - idle.mean())
    amp = ecu.profile.signature_amplitude
    assert abs(delta - amp) <= 0.1 * amp


def test_reception_bump_is_smaller_than_signature():
    ecu = idle_ecu(noise=0.0)
    events = [(0.002, 0.004, None)]
    trace = synth_power(ecu, events, duration=0.006, sample_rate=2e6, seed=3)
    fs = 2e6
    rx = trace.samples[int(0.0025 * fs) : int(0.0035 * fs)]
    assert abs(float(rx.mean()) - (2.5 + ecu.profile.reception_ripple)) < 0.02


def test_same_seed_gives_bit_identical_power_trace():
    ecu = idle_ecu(noise=0.1, program=ProgramActivity.HETEROGENEOUS)
    events = [(0.001, 0.002, ecu.index), (0.003, 0.004, ecu.index + 1)]
    a = synth_power(ecu, events, duration=0.005, sample_rate=2e6, seed=42)
    b = synth_power(ecu, events, duration=0.005, sample_rate=2e6, seed=42)
    assert np.array_equal(a.samples, b.samples)


def test_distinguishability_precondition_enforced():
    with pytest.raises(ValueError):
        PowerProfile(signature_amplitude=0.2, baseline_noise=0.1)


# ----------------------------------------------------------------- simulate


ATTACK_STREAMS = {
    "clean": (),
    # a compromised ECU and an added module, each spoofing another ECU's SA
    "attacked": (
        AttackSpec(kind=AttackKind.COMPROMISED_ECU, spoofed_sa=1, attacker=2, count=12),
        AttackSpec(kind=AttackKind.ADDED_MODULE, spoofed_sa=4, count=9),
    ),
}


@pytest.mark.parametrize("attacks", sorted(ATTACK_STREAMS))
@pytest.mark.parametrize(
    "fmt", [FrameFormat.EXTENDED, FrameFormat.STANDARD], ids=["extended", "standard"]
)
def test_clean_scenario_log_all_normal_and_decodable(fmt, attacks):
    """Every frame decodes, and to the SA its ground truth says it claimed: in
    standard format the decoder looks that SA up in the scenario's table."""
    sc = small_lab(format=fmt, attacks=ATTACK_STREAMS[attacks])
    voltage, powers, truth = simulate(sc)
    n_attack = sum(atk.count for atk in sc.attacks)
    assert len(truth) == 200 + n_attack
    assert truth.normal_count == 200
    assert truth.attack_count == n_attack
    assert len(powers) == 5
    decoded = decode_transmissions(voltage, sc.bus.bitrate, sc.source_map())
    assert len(decoded) == len(truth)
    assert all(d.crc_ok for d in decoded)
    for d, e in zip(decoded, truth.entries):
        assert d.frame_id == e.frame_id
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
        AttackSpec(kind=AttackKind.NORMAL, spoofed_sa=1, count=1)
    for count in (0, -5):  # the simulator would inject no frame
        with pytest.raises(ValueError, match="count of at least 1"):
            AttackSpec(kind=AttackKind.ADDED_MODULE, spoofed_sa=1, count=count)
    with pytest.raises(ValueError):
        # attacker cannot spoof its own SA
        Scenario(
            bus=BusConfig(),
            ecus=(ecu,),
            duration=1.0,
            attacks=(
                AttackSpec(kind=AttackKind.COMPROMISED_ECU, spoofed_sa=1, count=1, attacker=0),
            ),
        )


def test_scenario_rejects_two_ecus_with_one_index():
    # simulate would return two power traces for ECU 0, and a capture names each
    # power file by its ECU's index, so the second trace would overwrite the first
    first = EcuSpec(index=0, schedules=(MessageSchedule(sa=1, period_s=0.01),))
    second = EcuSpec(index=0, schedules=(MessageSchedule(sa=2, period_s=0.01),))
    with pytest.raises(ValueError, match=r"ECU indexes must be distinct, got \[0, 0\]"):
        Scenario(bus=BusConfig(), ecus=(first, second), duration=1.0)


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
    """Every pulse parameter drawn first, then all the noise in one draw, and
    then each pulse added on its own, in pulse order."""
    prof = ecu.profile
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    rf = bus.SIGNATURE_RISE_FALL_S
    pulses = []  # (start, end, amplitude, ripple keywords)
    for start, end, sender in timeline:
        if sender == ecu.index:
            amp = prof.signature_amplitude * (1.0 + bus.SIGNATURE_JITTER * rng.uniform(-1.0, 1.0))
            ripple = {
                "ripple_hz": prof.ripple_frequency_hz,
                "ripple_amplitude": prof.ripple_amplitude * amp,
                "phase": rng.uniform(0.0, 2 * np.pi),
            }
            pulses.append((start, end, amp, ripple))
        else:
            pulses.append((start, end, prof.reception_ripple, {}))
    if prof.program is ProgramActivity.HETEROGENEOUS:
        for start, end, _ in [ev for ev in timeline if ev[2] == ecu.index]:
            span = end - start
            for anchor, sign in ((start, -1.0), (end, +1.0)):
                if rng.uniform() > 0.6:
                    continue
                burst_len = span * rng.uniform(0.3, 0.9)
                gap = span * rng.uniform(0.05, 0.4)
                b0 = anchor - gap - burst_len if sign < 0 else anchor + gap
                ripple = {
                    "ripple_hz": rng.uniform(5e3, 20e3),
                    "ripple_amplitude": 0.1 * prof.signature_amplitude,
                    "phase": rng.uniform(0.0, 2 * np.pi),
                }
                pulses.append((b0, b0 + burst_len, 0.35 * prof.signature_amplitude, ripple))
    base = prof.baseline_mean + prof.noise_floor_offset
    if prof.baseline_noise > 0:
        samples = rng.standard_normal(n, dtype=np.float32)
        samples *= np.float32(prof.baseline_noise)
        samples += np.float32(base)
    else:
        samples = np.full(n, base, dtype=np.float32)
    for start, end, amplitude, ripple in pulses:
        _pulse_reference(samples, sample_rate, start, end, amplitude, rf, **ripple)
    return samples


def same_half(got, want):
    """``got`` is float16 and holds the nearest float16 of every float32 of ``want``, bit for bit."""
    rounded = want.astype(np.float16)
    return got.dtype == np.float16 and np.array_equal(got.view(np.uint16), rounded.view(np.uint16))


TX, RX, ADDED = 0, 1, None  # the case ECU's index, another ECU's, an added module
FS = 2e6


POWER_CASES = {
    "transmit_and_receive": (
        {},
        [(1e-3, 2.04e-3, TX), (2.5e-3, 3.5e-3, RX), (4e-3, 5.1e-3, ADDED), (5.5e-3, 6.6e-3, TX)],
    ),
    "heterogeneous_program": (
        {"program": ProgramActivity.HETEROGENEOUS},
        [(k * 1.3e-3 + 2e-4, k * 1.3e-3 + 1.2e-3, TX if k % 2 else RX) for k in range(6)],
    ),
    "hijack_split": (
        {},
        [(1e-3, 1.3e-3, TX), (1.3e-3, 2.1e-3, RX), (3e-3, 3.4e-3, RX), (3.4e-3, 4.2e-3, TX)],
    ),
    "clipped_at_both_ends": (
        {"program": ProgramActivity.HETEROGENEOUS},
        [(-5e-4, 6e-4, TX), (2e-3, 3e-3, RX), (6.5e-3, 7.99e-3, RX), (7.4e-3, 8.3e-3, TX)],
    ),
    "growing_cache": (
        {},
        [(5e-4, 6e-4, RX), (1e-3, 1.2e-3, TX), (2e-3, 4.5e-3, TX), (5e-3, 5.3e-3, RX), (6e-3, 7.9e-3, RX)],
    ),
    "every_pulse_outside_the_trace": (
        {},
        [(-3e-3, -1e-3, TX), (-5e-4, 0.0, RX), (8e-3, 9e-3, RX), (8.5e-3, 9.5e-3, TX)],
    ),
    "heterogeneous_empty_timeline": ({"program": ProgramActivity.HETEROGENEOUS}, []),
    "noiseless": (
        {"baseline_noise": 0.0, "program": ProgramActivity.HETEROGENEOUS},
        [(1e-3, 2e-3, TX), (2.5e-3, 3.5e-3, RX), (4e-3, 5e-3, TX)],
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
    assert same_half(got.samples, want)
    out = np.full(int(round(duration * FS)), np.nan, dtype=np.float16)
    into = synth_power(ecu, events, duration, FS, seed=11, out=out)
    assert into.samples is out
    assert same_half(out, want)


def test_synth_power_rejects_a_wrong_out_buffer():
    ecu = idle_ecu(noise=0.1)
    with pytest.raises(ValueError):
        synth_power(ecu, [], 1e-3, FS, seed=1, out=np.empty(1999, dtype=np.float16))
    with pytest.raises(ValueError):
        synth_power(ecu, [], 1e-3, FS, seed=1, out=np.empty(2000, dtype=np.float32))


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
        s0 = int(round(slot.start_time * cfg.sample_rate))
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


def bus_timeline(scenario, slots, truth):
    """The one (start, end, sender) timeline that ``simulate`` hands every ``synth_power``."""
    bit_time = 1.0 / scenario.bus.bitrate
    return [
        (slot.start_time, slot.start_time + len(slot.wire) * bit_time, entry.true_source)
        for slot, entry in zip(slots, truth.entries)
    ]


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
    timeline = bus_timeline(scenario, slots, truth)
    powers = [
        synth_power_reference(ecu, timeline, scenario.duration, scenario.bus.power_rate, child)
        for ecu, child in zip(scenario.ecus, children)
    ]
    return voltage, powers, truth


SCENARIOS = {
    "lab": lambda: small_lab(frames_per_sa=25, seed=3, program=ProgramActivity.HETEROGENEOUS),
    "lab_power_at_1mhz": lambda: with_power_rate(small_lab(frames_per_sa=25, seed=3), 1e6),
    "truck_attack": lambda: truck_scenario(
        frames_per_sa=30,
        seed=4,
        attacks=(AttackSpec(kind=AttackKind.ADDED_MODULE, spoofed_sa=11, count=10),),
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulate_equals_serial_reference(name, monkeypatch):
    scenario = SCENARIOS[name]()
    voltage, powers, truth = simulate(scenario)
    ref_voltage, ref_powers, ref_truth = simulate_serial_reference(scenario, monkeypatch)
    assert truth == ref_truth
    assert same_half(voltage.samples, ref_voltage)
    assert len(powers) == len(ref_powers) == len(scenario.ecus)
    for got, want in zip(powers, ref_powers):
        assert same_half(got.samples, want)


def test_every_ecu_reads_the_one_bus_timeline(monkeypatch):
    scenario = SCENARIOS["truck_attack"]()
    seen = []
    real_power = bus.synth_power

    def spy(ecu, timeline, *args, **kwargs):
        seen.append((ecu.index, timeline))
        return real_power(ecu, timeline, *args, **kwargs)

    monkeypatch.setattr(bus, "synth_power", spy)
    _, _, truth = simulate(scenario)
    assert sorted(index for index, _ in seen) == [ecu.index for ecu in scenario.ecus]
    timeline = seen[0][1]
    assert all(other is timeline for _, other in seen)
    # one (start, end, sender) per frame on the bus: the benchmark counts len(timeline)
    assert len(timeline) == len(truth)
    assert [(start, sender) for start, _, sender in timeline] == [
        (entry.t, entry.true_source) for entry in truth.entries
    ]
    assert None in {sender for _, _, sender in timeline}  # the added module's frames
    assert all(end > start for start, end, _ in timeline)


@pytest.mark.parametrize("chunk_samples", [1, 1_001, 65_537, bus._VOLTAGE_CHUNK_SAMPLES])
@pytest.mark.parametrize("noise", [0.08, 0.0])
def test_synth_power_in_chunks_is_the_trace_of_one_noise_draw(chunk_samples, noise, monkeypatch):
    # the reference draws all the noise at once and adds each pulse whole; the
    # chunks draw it piece by piece, at odd lengths, and pulses, their tails and
    # the bursts around them reach across chunk boundaries
    scenario = SCENARIOS["lab"]()
    _, _, truth, slots = simulate_slots(scenario, monkeypatch)
    timeline, duration = bus_timeline(scenario, slots, truth), scenario.duration
    if chunk_samples == 1:  # one loop pass a sample: four frames keep it to 11,764 passes
        timeline = timeline[:4]
        duration = timeline[-1][1] + 2e-6  # inside the last frame's tail
    profile = PowerProfile(
        baseline_noise=noise, ripple_frequency_hz=130e3, program=ProgramActivity.HETEROGENEOUS
    )
    ecu = EcuSpec(index=2, schedules=(), profile=profile)
    want = synth_power_reference(ecu, timeline, duration, FS, seed=5)
    monkeypatch.setattr(bus, "_VOLTAGE_CHUNK_SAMPLES", chunk_samples)
    got = synth_power(ecu, timeline, duration, FS, seed=5)
    assert same_half(got.samples, want)


def record_float32_sums(m):
    """Wrap ``bus._noise_chunks`` so that each chunk is copied when the loop body
    over it returns: the float32 sums before they are rounded to float16. The
    rounding hides most changes to those sums, such as another summation order."""
    chunks = [np.empty(0, dtype=np.float32)]
    real = bus._noise_chunks

    def walker(*args):
        for lo, hi, chunk in real(*args):
            yield lo, hi, chunk
            chunks.append(chunk.copy())

    m.setattr(bus, "_noise_chunks", walker)
    return chunks


def same_float32(chunks, want):
    """The chunks, joined, hold every float32 of ``want`` bit for bit."""
    got = np.concatenate(chunks)
    return np.array_equal(got.view(np.uint32), want.view(np.uint32))


POWER_FS = 1e6


@st.composite
def power_layouts(draw):
    """A timeline of frames in bus order, some touching, sent by the case ECU,
    another ECU or an added module, and a duration that ends anywhere from the
    first sample to past the last tail. At 1 MHz a tail is 30 samples long."""
    timeline, end = [], draw(st.integers(-40, 40))
    for _ in range(draw(st.integers(0, 6))):
        start = end + draw(st.sampled_from([0, 0, 3, 20, 80]))  # 0: touching
        end = start + draw(st.integers(1, 120))
        timeline.append((start / POWER_FS, end / POWER_FS, draw(st.sampled_from([TX, RX, ADDED]))))
    n = draw(st.integers(1, max(1, end + 60)))
    return timeline, n / POWER_FS


@settings(max_examples=150, deadline=None)
@given(
    layout=power_layouts(),
    chunk_samples=st.integers(1, 300),
    noise=st.sampled_from([0.08, 0.0]),
    program=st.sampled_from(list(ProgramActivity)),
    seed=st.integers(0, 2**32 - 1),
)
def test_synth_power_property_bit_equal_to_reference(layout, chunk_samples, noise, program, seed):
    # heterogeneous bursts land before and after their frame, over its
    # neighbours and past either end of the trace
    timeline, duration = layout
    profile = PowerProfile(baseline_noise=noise, ripple_frequency_hz=130e3, program=program)
    ecu = EcuSpec(index=TX, schedules=(), profile=profile)
    want = synth_power_reference(ecu, timeline, duration, POWER_FS, seed)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bus, "_VOLTAGE_CHUNK_SAMPLES", chunk_samples)
        sums = record_float32_sums(m)
        got = synth_power(ecu, timeline, duration, POWER_FS, seed)
    assert same_half(got.samples, want)
    assert same_float32(sums, want)


class NegativeZeroNoise:
    """An rng whose every noise sample is -0.0, which adding +0.0 would turn into +0.0."""

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        if out is None:
            return np.full(size, -0.0, dtype=dtype)
        out.fill(-0.0)
        return out


def _lab_slots(monkeypatch):
    return simulate_slots(SCENARIOS["lab"](), monkeypatch)[3]


@pytest.mark.parametrize("chunk_samples", [1, 1_001, 10_000, 65_537, bus._VOLTAGE_CHUNK_SAMPLES])
@pytest.mark.parametrize("noise", ["gaussian", "noiseless", "negative_zero"])
def test_synth_voltage_bit_equal_to_per_slot_reference(chunk_samples, noise, monkeypatch):
    # the reference draws all the noise at once; the chunks draw it piece by
    # piece, at odd lengths, and frames reach across chunk boundaries
    slots = _lab_slots(monkeypatch)
    if chunk_samples == 1:
        slots = slots[:3]  # one loop pass a sample: three frames keep it to 26,400 passes
    cfg = BusConfig(sample_rate=2e6, voltage_noise=0.0 if noise == "noiseless" else 0.05)
    duration = slots[-1].start_time + 0.01

    def rng():
        return NegativeZeroNoise() if noise == "negative_zero" else np.random.default_rng(6)

    want = synth_voltage_reference(slots, cfg, duration, rng())
    monkeypatch.setattr(bus, "_VOLTAGE_CHUNK_SAMPLES", chunk_samples)
    got = synth_voltage(slots, cfg, duration, rng())
    assert same_half(got.samples, want)
    if noise == "negative_zero":
        assert np.signbit(got.samples).any() and not np.signbit(got.samples).all()


@pytest.mark.parametrize("chunk_samples", [1_001, 65_537])
@pytest.mark.parametrize("shift_samples", [1, 10_000])
def test_synth_voltage_in_chunks_is_the_trace_of_one_noise_draw(
    chunk_samples, shift_samples, monkeypatch
):
    # every frame moved later by shift_samples, so the chunk boundaries cut the
    # frames at other bits than in the bit-equal test above
    cfg = BusConfig(sample_rate=2e6)
    shift = shift_samples / cfg.sample_rate
    slots = [
        dataclasses.replace(s, start_time=s.start_time + shift) for s in _lab_slots(monkeypatch)
    ]
    duration = slots[-1].start_time + 0.01
    want = synth_voltage_reference(slots, cfg, duration, np.random.default_rng(8))
    monkeypatch.setattr(bus, "_VOLTAGE_CHUNK_SAMPLES", chunk_samples)
    got = synth_voltage(slots, cfg, duration, np.random.default_rng(8))
    assert same_half(got.samples, want)


def test_synth_voltage_on_a_trace_cut_inside_the_last_slot(monkeypatch):
    slots = _lab_slots(monkeypatch)
    cfg = BusConfig(sample_rate=2e6)
    last = slots[-1]
    duration = last.start_time + 0.5 * len(last.wire) / cfg.bitrate
    want = synth_voltage_reference(slots, cfg, duration, np.random.default_rng(2))
    got = synth_voltage(slots, cfg, duration, np.random.default_rng(2))
    assert same_half(got.samples, want)


@pytest.mark.parametrize(
    "starts",
    [[0.2e-3, 0.25e-3], [1e-3, 0.2e-3]],
    ids=["overlapping", "unordered"],
)
def test_synth_voltage_rejects_slots_that_overlap_or_come_out_of_order(starts):
    frames = [CanFrame(0x100 + k, bytes([k] * 4), FrameFormat.STANDARD) for k in range(2)]
    wires = serialize_frames(frames)
    slots = [
        ArbitratedFrame(k, f, t, w, len(w) / 125_000)
        for k, (f, t, w) in enumerate(zip(frames, starts, wires))
    ]
    with pytest.raises(ValueError, match="without overlap"):
        synth_voltage(slots, BusConfig(sample_rate=2e6), 3e-3, np.random.default_rng(5))


VOLTAGE_FS, VOLTAGE_BITRATE = 1_000_000, 96_000  # 10.42 samples per bit: edges round both ways


@st.composite
def voltage_layouts(draw):
    """Slots that follow one another without overlap, some touching, and a
    duration that ends anywhere from inside the last slot to past it."""
    frame = CanFrame(0x100, b"", FrameFormat.STANDARD)
    spb = VOLTAGE_FS / VOLTAGE_BITRATE
    slots, first, end = [], 0, draw(st.integers(0, 50))
    for k in range(draw(st.integers(0, 6))):
        first = end + (draw(st.sampled_from([0, 0, 1, 7, 60])) if slots else 0)  # 0: touching
        wire = bytes(draw(st.lists(st.integers(0, 1), min_size=1, max_size=40)))
        slots.append(ArbitratedFrame(k, frame, first / VOLTAGE_FS, wire, len(wire) / VOLTAGE_BITRATE))
        end = first + int(round(len(wire) * spb))
    n = draw(st.integers(first + 1 if slots else 0, end + 30))
    return slots, n / VOLTAGE_FS


@settings(max_examples=150, deadline=None)
@given(
    layout=voltage_layouts(),
    chunk_samples=st.integers(1, 300),
    noise=st.sampled_from(["gaussian", "noiseless", "negative_zero"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_synth_voltage_property_bit_equal_to_reference(layout, chunk_samples, noise, seed):
    slots, duration = layout
    cfg = BusConfig(
        bitrate=VOLTAGE_BITRATE,
        sample_rate=VOLTAGE_FS,
        voltage_noise=0.0 if noise == "noiseless" else 0.05,
    )

    def rng():
        return NegativeZeroNoise() if noise == "negative_zero" else np.random.default_rng(seed)

    want = synth_voltage_reference(slots, cfg, duration, rng())
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bus, "_VOLTAGE_CHUNK_SAMPLES", chunk_samples)
        sums = record_float32_sums(m)
        got = synth_voltage(slots, cfg, duration, rng())
    assert same_half(got.samples, want)
    assert same_float32(sums, want)


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


@pytest.mark.parametrize("workers", [1, 3, 8])
def test_simulate_gives_the_same_bytes_whatever_the_worker_count(workers, monkeypatch):
    scenario = SCENARIOS["lab"]()
    want = _simulation_digest(scenario)
    monkeypatch.setattr(bus, "_worker_count", lambda tasks: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _simulation_digest(scenario)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_simulate_holds_no_float32_array_longer_than_a_chunk(monkeypatch):
    # tracemalloc sees numpy's data allocations. Beside the traces it returns,
    # simulate holds one float32 chunk per power worker and the voltage
    # thread's noise chunk. The 4 MiB of slack covers the voltage thread's
    # level array (at most one more chunk) and the Python objects of the
    # requests, frames and timeline. One float32 buffer as long as a power
    # trace (6.6 chunks here) breaks the bound.
    workers = 3
    monkeypatch.setattr(bus, "_worker_count", lambda tasks: workers)
    scenario = small_lab(frames_per_sa=100, seed=3)
    tracemalloc.start()
    try:
        voltage, powers, _ = simulate(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert powers[0].samples.size > 6 * bus._VOLTAGE_CHUNK_SAMPLES
    traces = voltage.samples.nbytes + sum(p.samples.nbytes for p in powers)
    chunk = np.dtype(np.float32).itemsize * bus._VOLTAGE_CHUNK_SAMPLES
    assert peak - traces < (workers + 1) * chunk + 4 * 2**20


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
    atk = AttackSpec(kind=AttackKind.ADDED_MODULE, spoofed_sa=0x2B, count=1, id_prefix=0x1234D)
    sched = MessageSchedule(sa=0x2B, period_s=0.01, id_prefix=0x1234D)
    assert atk.frame_id(fmt) == sched.frame_id(fmt)
    ecu = EcuSpec(index=0, schedules=(MessageSchedule(sa=0x2B, period_s=0.01),))
    sc = Scenario(bus=BusConfig(format=fmt), ecus=(ecu,), duration=1.0, attacks=(atk,))
    assert sc.source_map().resolve(atk.frame_id(fmt)) == 0x2B


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    sa=st.integers(0, 0xFF),
    sched_prefix=st.integers(-(1 << 40), 1 << 40),
    atk_prefix=st.integers(-(1 << 40), 1 << 40),
    fmt=st.sampled_from(FrameFormat),
)
def test_source_map_reads_each_sa_back_from_the_ids_it_is_sent_under(
    sa, sched_prefix, atk_prefix, fmt
):
    # the map has one rule, the ID's low byte: it holds for a schedule's and
    # an attack's ID whatever their prefixes, in both frame formats
    sched = MessageSchedule(sa=sa, period_s=0.01, id_prefix=sched_prefix)
    atk = AttackSpec(kind=AttackKind.ADDED_MODULE, spoofed_sa=sa, count=1, id_prefix=atk_prefix)
    sc = Scenario(
        bus=BusConfig(format=fmt), ecus=(EcuSpec(0, (sched,)),), duration=1.0, attacks=(atk,)
    )
    samap = sc.source_map()
    assert samap.resolve(sched.frame_id(fmt)) == sa
    assert samap.resolve(atk.frame_id(fmt)) == sa


@pytest.mark.parametrize(
    "make",
    [
        lambda: BusConfig(bitrate=0.0),
        lambda: BusConfig(sample_rate=float("nan")),
        lambda: BusConfig(sample_rate=float("inf")),
        lambda: BusConfig(bitrate=float("inf")),
        lambda: BusConfig(voltage_noise=-0.1),
        lambda: MessageSchedule(sa=1, period_s=0.0),
        lambda: lab_scenario(bitrate=0.0),
        # a J1939 source address is one byte
        lambda: MessageSchedule(sa=300, period_s=0.01),
        lambda: MessageSchedule(sa=-1, period_s=0.01),
        lambda: AttackSpec(kind=AttackKind.ADDED_MODULE, spoofed_sa=256, count=1),
    ],
)
def test_bus_and_schedule_reject_values_the_simulator_cannot_run(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize(
    "make, count",
    [
        (lambda: MessageSchedule(sa=1, period_s=0.01, count=0), 0),
        (lambda: MessageSchedule(sa=1, period_s=0.01, count=-2), -2),
        (lambda: lab_scenario(frames_per_sa=-3), -3),
        (lambda: truck_scenario(frames_per_sa=0), 0),
    ],
    ids=["zero", "negative", "lab_preset", "truck_preset"],
)
def test_a_message_stream_with_no_frames_is_rejected(make, count):
    # an empty stream would simulate a capture in which its SA never sends
    with pytest.raises(ValueError, match=f"message stream needs a count of at least 1, got {count}$"):
        make()
    MessageSchedule(sa=1, period_s=0.01, count=1)


def test_profile_and_bus_reject_levels_beyond_float16():
    # a level plus ten noise standard deviations must be a finite float16 (at most 65504)
    with pytest.raises(ValueError, match="largest power level 100002 plus 10 x noise 0.08 exceeds 65504"):
        PowerProfile(baseline_mean=1e5)
    PowerProfile(baseline_mean=65_000.0)  # 65002.6 with its pulses and noise
    with pytest.raises(ValueError, match="exceeds 65504"):
        PowerProfile(baseline_mean=65_502.0)
    with pytest.raises(ValueError, match="exceeds 65504"):
        PowerProfile(baseline_noise=0.0, signature_amplitude=-4e4)
    BusConfig(voltage_noise=(65504 - DOMINANT_VOLTS) / 10)
    with pytest.raises(ValueError, match="dominant level 2 plus 10 x noise 6550.3 exceeds 65504"):
        BusConfig(voltage_noise=6550.3)


@pytest.mark.parametrize("dlc", [0, 1, 7, 8])
def test_one_payload_draw_gives_the_bytes_of_one_draw_per_frame(dlc):
    one, each = np.random.default_rng(42), np.random.default_rng(42)
    payloads = bus._payloads(one, 1_500, dlc)
    assert payloads == [bytes(each.integers(0, 256, dlc).tolist()) for _ in range(1_500)]
    assert one.integers(0, 1 << 62) == each.integers(0, 1 << 62)  # the stream continues alike


@pytest.mark.parametrize("field", ["sample_rate", "power_sample_rate"])
def test_bus_config_rejects_a_fractional_sample_rate(field):
    # a trace file stores its rate as an integer: 1000000.5 Hz would read back as 1 MHz
    with pytest.raises(ValueError, match="whole number of Hz, got 1000000.5"):
        BusConfig(**{field: 1_000_000.5})
    assert getattr(BusConfig(**{field: 1e6}), field) == 1_000_000


def test_simulate_rejects_fewer_than_ten_samples_per_bit():
    sc = lab_scenario(frames_per_sa=5, sample_rate=1e6)
    with pytest.raises(ValueError, match="1000000 Hz is below 10x the bitrate 125000 bps"):
        simulate(sc)


def test_simulate_rejects_a_power_rate_that_aliases_a_ripple():
    # lab ripples are 60e3 + 70e3 k Hz
    with pytest.raises(ValueError, match="500000 Hz is not above twice the 270000 Hz ripple of ECU 3"):
        simulate(with_power_rate(lab_scenario(frames_per_sa=5), 5e5))
    # the rule holds for the bus rate too when no power rate is set
    with pytest.raises(ValueError, match="640000 Hz is not above twice the 340000 Hz ripple of ECU 4"):
        simulate(lab_scenario(frames_per_sa=5, sample_rate=6.4e5, bitrate=62_500.0))


def capture_files(scenario, out: Path) -> dict[str, bytes]:
    """The bytes of every file ``canoa simulate`` writes for ``scenario``."""
    voltage, powers, truth = simulate(scenario)
    out.mkdir()
    write_trace_file(out / "voltage.ctrc", voltage.samples, TraceKind.VOLTAGE, voltage.sample_rate)
    for ecu, trace in zip(scenario.ecus, powers):
        write_trace_file(
            out / f"power_{ecu.index:03d}.ctrc", trace.samples, TraceKind.POWER, trace.sample_rate
        )
    write_ground_truth(out / "ground_truth.csv", truth)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def small_truck():
    attack = AttackSpec(kind=AttackKind.ADDED_MODULE, spoofed_sa=0, count=5)
    return truck_scenario(frames_per_sa=20, seed=6, attacks=(attack,))


@functools.cache
def small_truck_files() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        return capture_files(small_truck(), Path(tmp) / "capture")


def test_power_rate_equal_to_the_bus_rate_gives_the_default_capture(tmp_path):
    sc = small_truck()
    assert sc.bus.power_sample_rate is None
    assert capture_files(with_power_rate(sc, sc.bus.sample_rate), tmp_path / "same") == (
        small_truck_files()
    )


# legal for the truck's 90 and 240 kHz ripples, up to twice its 3 MHz bus rate
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(480_001, 6_000_000))
def test_power_rate_sets_only_the_power_channels(rate):
    sc = with_power_rate(small_truck(), float(rate))
    default = small_truck_files()
    with tempfile.TemporaryDirectory() as tmp:
        files = capture_files(sc, Path(tmp) / "capture")
        for ecu in sc.ecus:
            trace = read_trace_file(Path(tmp) / "capture" / f"power_{ecu.index:03d}.ctrc")
            assert trace.sample_rate == rate
            assert trace.samples.shape == (1, round(sc.duration * rate))
    assert files["voltage.ctrc"] == default["voltage.ctrc"]
    assert files["ground_truth.csv"] == default["ground_truth.csv"]
