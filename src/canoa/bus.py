"""Multi-ECU CAN bus simulation.

Schedules per-ECU frame streams, resolves arbitration, synthesizes the
differential voltage trace and one power trace per ECU, and injects
impersonation attacks (compromised ECU, added module, transmission
hijack). Everything is a deterministic function of (scenario, seed).

The transmission power signature is a rectangular step with exponential
rise/fall edges, per-frame amplitude jitter, and a per-ECU harmonic
ripple at a distinct frequency, so classifiers have an ECU-specific
spectral fingerprint to learn. A smaller reception bump appears on every
ECU while others transmit, keeping "receiving vs transmitting" a learned
rather than structural distinction.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .frames import (
    DOMINANT_VOLTS,
    INTERFRAME_BITS,
    MIN_SAMPLES_PER_BIT,
    CanFrame,
    DerivationRule,
    FrameFormat,
    SourceAddressMap,
    arbitrate,
    serialize_frame,
)
from .trace import SampledTrace

log = logging.getLogger("canoa.bus")


class ProgramActivity(Enum):
    UNIFORM = "uniform"
    HETEROGENEOUS = "heterogeneous"


class AttackKind(Enum):
    NORMAL = "normal"
    COMPROMISED_ECU = "compromised_ecu"
    ADDED_MODULE = "added_module"
    HIJACK_TRANSMISSION = "hijack_transmission"


class PowerRole(Enum):
    TRANSMIT = "transmit"
    RECEIVE = "receive"


@dataclass(frozen=True)
class PowerProfile:
    """Shape of one ECU's power consumption (normalized power units)."""

    baseline_mean: float = 1.0
    baseline_noise: float = 0.08
    signature_amplitude: float = 1.0
    signature_rise_fall_s: float = 5e-6
    signature_jitter: float = 0.02       # +/- fraction per frame
    ripple_frequency_hz: float = 120e3   # distinct per ECU
    ripple_amplitude: float = 0.2
    reception_ripple: float = 0.15
    program: ProgramActivity = ProgramActivity.UNIFORM
    noise_floor_offset: float = 0.0

    def __post_init__(self):
        if not self.baseline_noise >= 0:
            raise ValueError("baseline noise must be non-negative")
        if self.baseline_noise > 0 and self.signature_amplitude <= 3 * self.baseline_noise:
            raise ValueError(
                "signature amplitude must exceed 3x baseline noise to be distinguishable"
            )


def _frame_id(id_prefix: int, sa: int, fmt: FrameFormat) -> int:
    """The ID ``sa`` sends under, ``id_prefix`` above its byte (29-bit) or window (11-bit)."""
    if fmt is FrameFormat.EXTENDED:
        return ((id_prefix & 0x1FFFFF) << 8) | sa
    return ((id_prefix & 0x7) << 8) | sa


@dataclass(frozen=True)
class MessageSchedule:
    """Periodic frame stream for one source address.

    ``count`` caps the number of frames; None keeps transmitting until
    the scenario ends.
    """

    sa: int
    period_s: float
    offset_s: float = 0.0
    dlc: int = 8
    id_prefix: int = 0x00F0  # high bits above the SA byte (29-bit) / SA window (11-bit)
    count: int | None = None

    def __post_init__(self):
        if not self.period_s > 0:
            raise ValueError("period must be positive")
        if not 0 <= self.dlc <= 8:
            raise ValueError("dlc must be 0..8")

    def frame_id(self, fmt: FrameFormat) -> int:
        return _frame_id(self.id_prefix, self.sa, fmt)


@dataclass(frozen=True)
class EcuSpec:
    """One node: its source addresses, message schedules, and power profile."""

    index: int
    schedules: tuple[MessageSchedule, ...]
    profile: PowerProfile = PowerProfile()

    @property
    def sas(self) -> list[int]:
        return [s.sa for s in self.schedules]


@dataclass(frozen=True)
class AttackSpec:
    """One injected attack stream.

    ``attacker`` is a legitimate ECU index for COMPROMISED_ECU (and
    optionally for HIJACK_TRANSMISSION); None means the frames come from
    attacker hardware with no power channel. ``victim_sa`` restricts
    hijacks to one stream; None hijacks any eligible frame.
    """

    kind: AttackKind
    spoofed_sa: int
    attacker: int | None = None
    count: int = 0
    victim_sa: int | None = None
    id_prefix: int = 0x00D5

    def __post_init__(self):
        if self.kind is AttackKind.NORMAL:
            raise ValueError("an attack spec cannot be of kind NORMAL")
        if self.kind is AttackKind.COMPROMISED_ECU and self.attacker is None:
            raise ValueError("compromised-ECU attacks need an attacker index")
        if self.kind is AttackKind.ADDED_MODULE and self.attacker is not None:
            raise ValueError("added-module frames have no legitimate attacker index")

    def frame_id(self, fmt: FrameFormat) -> int:
        return _frame_id(self.id_prefix, self.spoofed_sa, fmt)


@dataclass(frozen=True)
class BusConfig:
    bitrate: float = 125_000.0
    format: FrameFormat = FrameFormat.EXTENDED
    sample_rate: float = 10e6
    voltage_noise: float = 0.05

    def __post_init__(self):
        if not (self.bitrate > 0 and self.sample_rate > 0):
            raise ValueError("bitrate and sample rate must be positive")
        if not self.voltage_noise >= 0:
            raise ValueError("voltage noise must be non-negative")


@dataclass(frozen=True)
class Scenario:
    bus: BusConfig
    ecus: tuple[EcuSpec, ...]
    duration: float
    seed: int = 0
    attacks: tuple[AttackSpec, ...] = ()

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("duration must be positive")
        sas = [sa for ecu in self.ecus for sa in ecu.sas]
        if len(sas) != len(set(sas)):
            raise ValueError("source addresses must be distinct across ECUs")
        owners = {sa: ecu.index for ecu in self.ecus for sa in ecu.sas}
        for atk in self.attacks:
            if atk.spoofed_sa not in owners:
                raise ValueError(f"spoofed SA {atk.spoofed_sa} is not owned by any ECU")
            if atk.attacker is not None:
                if atk.attacker not in {e.index for e in self.ecus}:
                    raise ValueError(f"attacker index {atk.attacker} is not a legitimate ECU")
                if owners[atk.spoofed_sa] == atk.attacker:
                    raise ValueError("spoofed SA must belong to an ECU other than the attacker")

    @property
    def owners(self) -> dict[int, int]:
        return {sa: ecu.index for ecu in self.ecus for sa in ecu.sas}

    def source_map(self) -> SourceAddressMap:
        if self.bus.format is FrameFormat.EXTENDED:
            return SourceAddressMap(owners=self.owners)
        table: dict[int, int] = {}
        for ecu in self.ecus:
            for sched in ecu.schedules:
                table[sched.frame_id(self.bus.format)] = sched.sa
        for atk in self.attacks:
            table[atk.frame_id(self.bus.format)] = atk.spoofed_sa
        return SourceAddressMap(
            owners=self.owners, rule=DerivationRule.EXPLICIT_TABLE, table=table
        )


@dataclass(frozen=True)
class GroundTruthEntry:
    """What actually happened for one frame present on the bus."""

    t: float
    frame_id: int
    claimed_sa: int
    true_source: int | None  # ECU index, None = added module
    kind: AttackKind
    victim_id: int | None = None  # intended ID of a hijacked transmission


@dataclass(frozen=True)
class GroundTruthLog:
    entries: tuple[GroundTruthEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def normal_count(self) -> int:
        return sum(1 for e in self.entries if e.kind is AttackKind.NORMAL)

    @property
    def attack_count(self) -> int:
        return len(self.entries) - self.normal_count


@dataclass(frozen=True)
class PowerEvent:
    start: float
    end: float
    role: PowerRole


@dataclass
class _BusSlot:
    """One transmission on the wire with its provenance; ``wire`` as in ``ArbitratedFrame``."""

    start: float
    wire: bytes
    frame: CanFrame
    claimed_sa: int
    transmitter: int | None
    kind: AttackKind
    victim_id: int | None = None
    handover_bit: int | None = None  # hijack: first bit owned by the attacker
    victim_ecu: int | None = None

    @property
    def duration_bits(self) -> int:
        return len(self.wire)


# longest span of samples one block of slots adds at once: a 1 MB float32
# array, small enough that synthesis does not raise the process's peak memory
_VOLTAGE_BLOCK_SAMPLES = 1 << 18


def _add_slot_block(
    samples: np.ndarray, wires: list[bytes], nbits: np.ndarray, first: np.ndarray,
    last: np.ndarray, edges: np.ndarray,
) -> None:
    """Add the levels of slots that follow one another without overlap, in one pass.

    The block's span is a run of samples per bit, at that bit's level, and
    before each slot but the first a run over the idle gap at -0.0: adding
    -0.0 leaves every sample as it is, where +0.0 would turn a -0.0 noise
    sample into +0.0.
    """
    runs = nbits + 1
    gap_at = np.cumsum(runs) - runs  # each slot's gap run; its bit runs follow
    is_bit = np.ones(runs.sum(), dtype=bool)
    is_bit[gap_at] = False
    counts = np.empty(runs.sum(), dtype=np.int64)
    levels = np.empty(runs.sum(), dtype=np.float32)
    counts[gap_at] = first - np.append(first[0], last[:-1])
    levels[gap_at] = -0.0
    k = np.arange(nbits.sum()) - np.repeat(np.cumsum(nbits) - nbits, nbits)  # bit within its slot
    counts[is_bit] = edges[k + 1] - edges[k]
    bits = np.frombuffer(b"".join(wires), dtype=np.uint8)
    levels[is_bit] = np.where(bits == 0, np.float32(DOMINANT_VOLTS), np.float32(0.0))
    a, b = first[0], min(last[-1], samples.size)
    if b > a:
        samples[a:b] += np.repeat(levels, counts)[: b - a]


def synth_voltage(
    order: list[_BusSlot], cfg: BusConfig, duration: float, rng: np.random.Generator
) -> SampledTrace:
    """Differential bus voltage for a resolved transmission order.

    Dominant bits drive ~2 V, recessive/idle stays at ~0 V, with additive
    Gaussian noise; bit edges are aligned to the sample grid. Each slot
    adds its bits' levels (recessive bits add 0.0) to the samples it spans,
    in order; slots that follow one another without overlap are added in
    blocks of at most ``_VOLTAGE_BLOCK_SAMPLES`` samples.
    """
    n = int(round(duration * cfg.sample_rate))
    if cfg.voltage_noise > 0:
        samples = rng.standard_normal(n, dtype=np.float32)
        samples *= np.float32(cfg.voltage_noise)
    else:
        samples = np.zeros(n, dtype=np.float32)
    if not order:
        return SampledTrace(samples, cfg.sample_rate)
    spb = cfg.sample_rate / cfg.bitrate
    wires = [slot.wire for slot in order]
    nbits = np.array([len(w) for w in wires])
    # bit k of a slot spans samples [edges[k], edges[k + 1]) past the slot's first sample
    edges = np.round(np.arange(nbits.max() + 1) * spb).astype(np.int64)
    first = np.array([int(round(slot.start * cfg.sample_rate)) for slot in order])
    last = first + edges[nbits]
    starts, ends = first.tolist(), last.tolist()
    lo = 0
    while lo < len(order):
        hi = lo + 1
        while (
            hi < len(order)
            and ends[hi - 1] <= starts[hi]
            and ends[hi] - starts[lo] <= _VOLTAGE_BLOCK_SAMPLES
        ):
            hi += 1
        block = slice(lo, hi)
        _add_slot_block(samples, wires[block], nbits[block], first[block], last[block], edges)
        lo = hi
    return SampledTrace(samples, cfg.sample_rate)


def synth_power(
    ecu: EcuSpec,
    timeline: list[PowerEvent],
    duration: float,
    sample_rate: float,
    seed: np.random.SeedSequence | int,
    *,
    out: np.ndarray | None = None,
) -> SampledTrace:
    """Power consumption of one ECU over a bus timeline.

    Baseline Gaussian noise plus the transmission signature over the
    ECU's own transmit intervals and a reception bump over everyone
    else's. Heterogeneous program activity adds seeded low-frequency
    bursts around the ECU's own transmissions.

    Each pulse is a smoothed rectangle, optionally with a harmonic ripple,
    and an exponential decay tail. All pulse parameters are drawn first, so
    the rise envelope, sample times and ripple phase ramp are computed once
    at the longest pulse and sliced; each slice is bit-identical to the
    same expression evaluated for that pulse alone.

    ``out``, when given, is the float32 buffer of ``round(duration *
    sample_rate)`` samples that the trace is written into; the result is
    the same as without it.
    """
    prof = ecu.profile
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    if out is None:
        out = np.empty(n, dtype=np.float32)
    elif out.shape != (n,) or out.dtype != np.float32:
        raise ValueError(f"out must be a float32 array of shape ({n},)")
    samples = out
    base = prof.baseline_mean + prof.noise_floor_offset
    if prof.baseline_noise > 0:
        rng.standard_normal(dtype=np.float32, out=samples)
        samples *= np.float32(prof.baseline_noise)
        samples += np.float32(base)
    else:
        samples.fill(base)

    def span(start: float, end: float) -> tuple[int, int]:
        return max(0, int(round(start * sample_rate))), min(n, int(round(end * sample_rate)))

    pulses = []  # (first sample, end sample, amplitude, ripple Hz, ripple amplitude, phase)
    for ev in timeline:
        if ev.role is PowerRole.TRANSMIT:
            amp = prof.signature_amplitude * (
                1.0 + prof.signature_jitter * rng.uniform(-1.0, 1.0)
            )
            phase = rng.uniform(0.0, 2 * np.pi)
            ripple = (prof.ripple_frequency_hz, prof.ripple_amplitude * amp, phase)
            pulses.append((*span(ev.start, ev.end), amp, *ripple))
        else:
            pulses.append((*span(ev.start, ev.end), prof.reception_ripple, 0.0, 0.0, 0.0))
    if prof.program is ProgramActivity.HETEROGENEOUS:
        own = [ev for ev in timeline if ev.role is PowerRole.TRANSMIT]
        for ev in own:
            length = ev.end - ev.start
            for anchor, sign in ((ev.start, -1.0), (ev.end, +1.0)):
                if rng.uniform() > 0.6:
                    continue
                burst_len = length * rng.uniform(0.3, 0.9)
                gap = length * rng.uniform(0.05, 0.4)
                b0 = anchor - gap - burst_len if sign < 0 else anchor + gap
                ripple_hz = rng.uniform(5e3, 20e3)
                phase = rng.uniform(0.0, 2 * np.pi)
                ripple = (ripple_hz, 0.1 * prof.signature_amplitude, phase)
                pulses.append((*span(b0, b0 + burst_len), 0.35 * prof.signature_amplitude, *ripple))
    rs = max(prof.signature_rise_fall_s * sample_rate, 1e-9)
    idx = np.arange(max([0] + [b - a for a, b, *_ in pulses]))
    env = 1.0 - np.exp(-idx / rs)
    t = idx / sample_rate
    wt = 2 * np.pi * prof.ripple_frequency_hz * t
    decay = np.exp(-np.arange(1, int(round(6 * rs)) + 1) / rs)
    for a, b, amplitude, ripple_hz, ripple_amplitude, phase in pulses:
        if b <= a:
            continue
        m = b - a
        body = amplitude * env[:m]
        if ripple_hz > 0.0 and ripple_amplitude != 0.0:
            if ripple_hz == prof.ripple_frequency_hz:
                pulse_wt = wt[:m]
            else:
                pulse_wt = 2 * np.pi * ripple_hz * t[:m]
            ripple = ripple_amplitude * env[:m]
            ripple *= np.sin(pulse_wt + phase)
            body += ripple
        samples[a:b] += body
        tail = decay[: n - b]
        samples[b : b + tail.size] += amplitude * tail
    return SampledTrace(samples, sample_rate)


def _craft_hijack_id(victim_id: int, spoofed_sa: int, nbits: int = 29) -> int | None:
    """ID an attacker can overwrite onto a live transmission.

    The attacker can only turn recessive bits dominant, so the crafted ID
    must share the victim's prefix up to the first flipped 1 bit and win
    arbitration there. Returns None when the victim's ID has no 1 bit
    above the SA byte to flip.
    """
    for pos in range(nbits - 1, 7, -1):
        if (victim_id >> pos) & 1:
            prefix_mask = ~((1 << (pos + 1)) - 1) & ((1 << nbits) - 1)
            crafted = (victim_id & prefix_mask) | spoofed_sa
            if crafted != victim_id:
                return crafted
            return None
    return None


def _stream_requests(
    scenario: Scenario, rng: np.random.Generator
) -> list[tuple[CanFrame, float, int | None, AttackKind]]:
    """All frame requests: (frame, request time, transmitter, kind)."""
    fmt = scenario.bus.format
    requests: list[tuple[CanFrame, float, int | None, AttackKind]] = []
    margin = 200 * 8 / scenario.bus.bitrate  # leave room for the longest frame + queue
    horizon = scenario.duration - margin
    for ecu in scenario.ecus:
        for sched in ecu.schedules:
            fid = sched.frame_id(fmt)
            t = sched.offset_s
            emitted = 0
            while t < horizon and (sched.count is None or emitted < sched.count):
                payload = bytes(rng.integers(0, 256, sched.dlc).tolist())
                requests.append((CanFrame(fid, payload, fmt), t, ecu.index, AttackKind.NORMAL))
                t += sched.period_s
                emitted += 1
    for atk in scenario.attacks:
        if atk.kind is AttackKind.HIJACK_TRANSMISSION:
            continue  # realized post-arbitration
        if atk.count <= 0:
            continue
        fid = atk.frame_id(fmt)
        lo, hi = 0.02 * horizon, horizon
        times = lo + (np.arange(atk.count) + 0.5) * (hi - lo) / atk.count
        times = times + rng.uniform(-0.1, 0.1) * (hi - lo) / atk.count
        for t in times:
            payload = bytes(rng.integers(0, 256, 8).tolist())
            requests.append((CanFrame(fid, payload, fmt), float(t), atk.attacker, atk.kind))
    return requests


def _apply_hijacks(
    slots: list[_BusSlot], scenario: Scenario, rng: np.random.Generator
) -> None:
    """Rewrite victim slots in place per the hijack attack specs."""
    fmt = scenario.bus.format
    if not any(a.kind is AttackKind.HIJACK_TRANSMISSION for a in scenario.attacks):
        return
    if fmt is not FrameFormat.EXTENDED:
        raise ValueError("transmission hijack is modeled for extended-format scenarios only")
    bit_time = 1.0 / scenario.bus.bitrate
    for atk in scenario.attacks:
        if atk.kind is not AttackKind.HIJACK_TRANSMISSION:
            continue
        remaining = atk.count or 1
        for i, slot in enumerate(slots):
            if remaining == 0:
                break
            if slot.kind is not AttackKind.NORMAL:
                continue
            if atk.victim_sa is not None and slot.claimed_sa != atk.victim_sa:
                continue
            if slot.claimed_sa == atk.spoofed_sa:
                continue
            crafted = _craft_hijack_id(slot.frame.frame_id, atk.spoofed_sa)
            if crafted is None:
                continue
            next_start = slots[i + 1].start if i + 1 < len(slots) else scenario.duration
            budget = next_start - slot.start - INTERFRAME_BITS * bit_time
            new_slot = None
            for _ in range(8):
                payload = bytes(rng.integers(0, 256, slot.frame.dlc).tolist())
                frame = CanFrame(crafted, payload, fmt)
                wire = serialize_frame(frame)
                if len(wire) * bit_time <= budget:
                    old_wire = slot.wire
                    handover = next(
                        k for k in range(min(len(wire), len(old_wire))) if wire[k] != old_wire[k]
                    )
                    new_slot = _BusSlot(
                        start=slot.start,
                        wire=wire,
                        frame=frame,
                        claimed_sa=atk.spoofed_sa,
                        transmitter=atk.attacker,
                        kind=AttackKind.HIJACK_TRANSMISSION,
                        victim_id=slot.frame.frame_id,
                        handover_bit=handover,
                        victim_ecu=slot.transmitter,
                    )
                    break
            if new_slot is None:
                log.warning("hijack skipped: no crafted frame fits before the next slot")
                continue
            slots[i] = new_slot
            remaining -= 1


def _timeline(slots: list[_BusSlot], ecu: EcuSpec, bit_time: float) -> list[PowerEvent]:
    """One ECU's transmit and receive intervals over the resolved bus slots."""
    timeline: list[PowerEvent] = []
    for slot in slots:
        end = slot.start + slot.duration_bits * bit_time
        if slot.kind is AttackKind.HIJACK_TRANSMISSION and slot.handover_bit is not None:
            cut = slot.start + (slot.handover_bit + 1) * bit_time
            if ecu.index == slot.victim_ecu:
                timeline.append(PowerEvent(slot.start, cut, PowerRole.TRANSMIT))
                timeline.append(PowerEvent(cut, end, PowerRole.RECEIVE))
            elif ecu.index == slot.transmitter:
                timeline.append(PowerEvent(slot.start, cut, PowerRole.RECEIVE))
                timeline.append(PowerEvent(cut, end, PowerRole.TRANSMIT))
            else:
                timeline.append(PowerEvent(slot.start, end, PowerRole.RECEIVE))
        elif slot.transmitter == ecu.index:
            timeline.append(PowerEvent(slot.start, end, PowerRole.TRANSMIT))
        else:
            timeline.append(PowerEvent(slot.start, end, PowerRole.RECEIVE))
    return timeline


def _worker_count(tasks: int) -> int:
    """Threads for ``tasks`` independent jobs: no more than the usable CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(tasks, cpus or 1))


def simulate(
    scenario: Scenario,
) -> tuple[SampledTrace, list[SampledTrace], GroundTruthLog]:
    """Run a scenario: voltage trace, one power trace per ECU, ground truth."""
    bus = scenario.bus
    if bus.sample_rate < MIN_SAMPLES_PER_BIT * bus.bitrate:
        raise ValueError(
            f"sample rate {bus.sample_rate:.0f} Hz is below {MIN_SAMPLES_PER_BIT}x "
            f"the bitrate {bus.bitrate:.0f} bps"
        )
    ss = np.random.SeedSequence(scenario.seed)
    payload_ss, voltage_ss, hijack_ss, *power_ss = ss.spawn(3 + len(scenario.ecus))
    rng_payload = np.random.default_rng(payload_ss)

    requests = _stream_requests(scenario, rng_payload)
    order = arbitrate(
        [(frame, t) for frame, t, _, _ in requests], scenario.bus.bitrate
    )  # may raise DuplicateId for ill-formed scenarios

    bit_time = 1.0 / scenario.bus.bitrate
    samap = scenario.source_map()
    slots: list[_BusSlot] = []
    for arb in order:
        if arb.start_time + arb.duration + INTERFRAME_BITS * bit_time > scenario.duration:
            continue  # frame would not complete inside the trace
        _, _, transmitter, kind = requests[arb.request_index]
        sa, _ = samap.resolve(arb.frame.frame_id)
        slots.append(
            _BusSlot(
                start=arb.start_time,
                wire=arb.wire,
                frame=arb.frame,
                claimed_sa=sa if sa is not None else -1,
                transmitter=transmitter,
                kind=kind,
            )
        )

    _apply_hijacks(slots, scenario, np.random.default_rng(hijack_ss))

    # Each ECU's timeline and power trace run on a worker thread: its noise
    # comes from its own seed child, and numpy's fills and array arithmetic
    # release the interpreter lock. The buffers are allocated here, on the
    # calling thread: a trace allocated on a worker can land in that thread's
    # malloc arena, which the calling thread never reuses for later buffers.
    n = int(round(scenario.duration * scenario.bus.sample_rate))
    buffers = [np.empty(n, dtype=np.float32) for _ in scenario.ecus]

    def ecu_power(ecu: EcuSpec, seed: np.random.SeedSequence, out: np.ndarray) -> SampledTrace:
        timeline = _timeline(slots, ecu, bit_time)
        return synth_power(
            ecu, timeline, scenario.duration, scenario.bus.sample_rate, seed, out=out
        )

    with ThreadPoolExecutor(max_workers=_worker_count(len(scenario.ecus))) as pool:
        futures = [
            pool.submit(ecu_power, ecu, child, buf)
            for ecu, child, buf in zip(scenario.ecus, power_ss, buffers)
        ]
        voltage = synth_voltage(
            slots, scenario.bus, scenario.duration, np.random.default_rng(voltage_ss)
        )
        powers = [f.result() for f in futures]

    entries = tuple(
        GroundTruthEntry(
            t=slot.start,
            frame_id=slot.frame.frame_id,
            claimed_sa=slot.claimed_sa,
            true_source=slot.transmitter,
            kind=slot.kind,
            victim_id=slot.victim_id,
        )
        for slot in slots
    )
    return voltage, powers, GroundTruthLog(entries)


# ------------------------------------------------------------------ presets


def lab_scenario(
    frames_per_sa: int = 1000,
    sample_rate: float = 2e6,
    seed: int = 7,
    bitrate: float = 125_000.0,
    format: FrameFormat = FrameFormat.EXTENDED,
    program: ProgramActivity = ProgramActivity.UNIFORM,
    attacks: tuple[AttackSpec, ...] = (),
) -> Scenario:
    """Bench-style scenario: five ECUs, one source address each."""
    bus = BusConfig(bitrate=bitrate, format=format, sample_rate=sample_rate)
    period = 8e-3 * 125_000.0 / bitrate
    ecus = []
    for k in range(5):
        profile = PowerProfile(
            baseline_mean=1.0 + 0.05 * k,
            baseline_noise=0.08,
            ripple_frequency_hz=60e3 + 70e3 * k,
            program=program,
        )
        sched = MessageSchedule(
            sa=k + 1,
            period_s=period,
            offset_s=k * period / 5,
            dlc=8,
            id_prefix=0x00F0 + k,
            count=frames_per_sa,
        )
        ecus.append(EcuSpec(index=k, schedules=(sched,), profile=profile))
    duration = frames_per_sa * period + 60e-3
    return Scenario(bus=bus, ecus=tuple(ecus), duration=duration, seed=seed, attacks=attacks)


def truck_scenario(
    frames_per_sa: int = 1000,
    sample_rate: float = 3e6,
    seed: int = 21,
    attacks: tuple[AttackSpec, ...] = (),
) -> Scenario:
    """Vehicle-style scenario: engine ECU owning SAs 0 and 15, brake ECU owning 11."""
    bitrate = 250_000.0
    period = 2.6e-3
    engine = EcuSpec(
        index=0,
        schedules=(
            MessageSchedule(sa=0, period_s=period, offset_s=0.0, dlc=8, id_prefix=0x00F0, count=frames_per_sa),
            MessageSchedule(sa=15, period_s=period, offset_s=period / 3, dlc=7, id_prefix=0x00F1, count=frames_per_sa),
        ),
        profile=PowerProfile(
            baseline_mean=1.2,
            baseline_noise=0.07,
            ripple_frequency_hz=90e3,
        ),
    )
    brake = EcuSpec(
        index=1,
        schedules=(
            MessageSchedule(sa=11, period_s=period, offset_s=2 * period / 3, dlc=8, id_prefix=0x00F2, count=frames_per_sa),
        ),
        profile=PowerProfile(
            baseline_mean=0.9,
            baseline_noise=0.10,
            ripple_frequency_hz=240e3,
        ),
    )
    duration = frames_per_sa * period + 40e-3
    bus = BusConfig(bitrate=bitrate, format=FrameFormat.EXTENDED, sample_rate=sample_rate)
    return Scenario(
        bus=bus, ecus=(engine, brake), duration=duration, seed=seed, attacks=attacks
    )
