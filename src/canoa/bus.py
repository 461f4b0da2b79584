"""Multi-ECU CAN bus simulation.

Schedules per-ECU frame streams, resolves arbitration, synthesizes the
differential voltage trace and one power trace per ECU, and injects
impersonation attacks (compromised ECU, added module). Everything is a
deterministic function of (scenario, seed).

The transmission power signature is a rectangular step with exponential
rise/fall edges, per-frame amplitude jitter, and a per-ECU harmonic
ripple at a distinct frequency, so classifiers have an ECU-specific
spectral fingerprint to learn. A smaller reception bump appears on every
ECU while others transmit, keeping "receiving vs transmitting" a learned
rather than structural distinction.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .frames import (
    DOMINANT_VOLTS,
    INTERFRAME_BITS,
    MIN_SAMPLES_PER_BIT,
    ArbitratedFrame,
    CanFrame,
    FrameFormat,
    SourceAddressMap,
    arbitrate,
)
from .trace import SampledTrace


class ProgramActivity(Enum):
    UNIFORM = "uniform"
    HETEROGENEOUS = "heterogeneous"


class AttackKind(Enum):
    NORMAL = "normal"
    COMPROMISED_ECU = "compromised_ecu"
    ADDED_MODULE = "added_module"


# every ECU's transmission edges rise and fall with this time constant, and
# each frame's signature amplitude varies by up to this fraction either way
SIGNATURE_RISE_FALL_S = 5e-6
SIGNATURE_JITTER = 0.02
# a heterogeneous program's bursts: amplitude and ripple amplitude, as
# fractions of the signature amplitude
BURST_AMPLITUDE = 0.35
BURST_RIPPLE = 0.1

# traces are stored as float16, which holds no finite value beyond this; a
# level plus this many noise standard deviations must stay inside it
FLOAT16_MAX = float(np.finfo(np.float16).max)
NOISE_HEADROOM = 10.0


def _check_float16_range(what: str, level: float, noise: float) -> None:
    if level + NOISE_HEADROOM * noise > FLOAT16_MAX:
        raise ValueError(
            f"{what} {level:g} plus {NOISE_HEADROOM:g} x noise {noise:g} exceeds "
            f"{FLOAT16_MAX:g}, the largest float16 a trace can store"
        )


@dataclass(frozen=True)
class PowerProfile:
    """Shape of one ECU's power consumption (normalized power units)."""

    baseline_mean: float = 1.0
    baseline_noise: float = 0.08
    signature_amplitude: float = 1.0
    ripple_frequency_hz: float = 120e3   # distinct per ECU
    ripple_amplitude: float = 0.2
    reception_ripple: float = 0.15
    program: ProgramActivity = ProgramActivity.UNIFORM
    noise_floor_offset: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.ripple_frequency_hz > 0:
            raise ValueError(f"ripple frequency must be positive, got {self.ripple_frequency_hz}")
        if not self.baseline_noise >= 0:
            raise ValueError("baseline noise must be non-negative")
        if self.baseline_noise > 0 and self.signature_amplitude <= 3 * self.baseline_noise:
            raise ValueError(
                "signature amplitude must exceed 3x baseline noise to be distinguishable"
            )
        # a bound on |level| before noise: the baseline with every pulse kind at once
        # (a jittered signature with its ripple, a reception bump and a program burst)
        signature = abs(self.signature_amplitude)
        peak = (
            abs(self.baseline_mean + self.noise_floor_offset)
            + (1.0 + SIGNATURE_JITTER) * signature * (1.0 + abs(self.ripple_amplitude))
            + abs(self.reception_ripple)
            + (BURST_AMPLITUDE + BURST_RIPPLE) * signature
        )
        _check_float16_range("largest power level", peak, self.baseline_noise)


def _frame_id(id_prefix: int, sa: int, fmt: FrameFormat) -> int:
    """The ID ``sa`` sends under, ``id_prefix`` above its byte (29-bit) or window (11-bit)."""
    if fmt is FrameFormat.EXTENDED:
        return ((id_prefix & 0x1FFFFF) << 8) | sa
    return ((id_prefix & 0x7) << 8) | sa


@dataclass(frozen=True)
class MessageSchedule:
    """Periodic frame stream for one source address.

    ``count`` caps the number of frames, at least 1; None keeps
    transmitting until the scenario ends.
    """

    sa: int
    period_s: float
    offset_s: float = 0.0
    dlc: int = 8
    id_prefix: int = 0x00F0  # high bits above the SA byte (29-bit) / SA window (11-bit)
    count: int | None = None

    def __post_init__(self):
        if not 0 <= self.sa <= 0xFF:
            raise ValueError(f"source address must be 0..255, got {self.sa}")
        if not 0 < self.period_s < np.inf:
            raise ValueError(f"period must be positive and finite, got {self.period_s}")
        if not 0 <= self.offset_s < np.inf:
            raise ValueError(f"offset must be non-negative and finite, got {self.offset_s}")
        if not 0 <= self.dlc <= 8:
            raise ValueError("dlc must be 0..8")
        if self.count is not None and self.count < 1:
            raise ValueError(f"a message stream needs a count of at least 1, got {self.count}")

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

    ``attacker`` is a legitimate ECU index for COMPROMISED_ECU; None
    means the frames come from attacker hardware with no power channel.
    """

    kind: AttackKind
    spoofed_sa: int
    count: int
    attacker: int | None = None
    id_prefix: int = 0x00D5

    def __post_init__(self):
        if not 0 <= self.spoofed_sa <= 0xFF:
            raise ValueError(f"spoofed source address must be 0..255, got {self.spoofed_sa}")
        if self.count < 1:
            raise ValueError(f"an attack stream needs a count of at least 1, got {self.count}")
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
    """The bus and its acquisition: ``sample_rate`` samples the voltage channel,
    ``power_sample_rate`` every power channel (None: at ``sample_rate``)."""

    bitrate: float = 125_000.0
    format: FrameFormat = FrameFormat.EXTENDED
    sample_rate: float = 10e6
    voltage_noise: float = 0.05
    power_sample_rate: float | None = None

    def __post_init__(self):
        if not (0 < self.bitrate < np.inf and 0 < self.sample_rate < np.inf):
            raise ValueError("bitrate and sample rate must be positive and finite")
        if not 0 <= self.voltage_noise < np.inf:
            raise ValueError(
                f"voltage noise must be non-negative and finite, got {self.voltage_noise}"
            )
        if self.power_sample_rate is not None and not 0 < self.power_sample_rate < np.inf:
            raise ValueError(
                f"power sample rate must be positive and finite, got {self.power_sample_rate}"
            )
        for rate in (self.sample_rate, self.power_sample_rate):
            if rate is not None and not float(rate).is_integer():
                # trace files store the rate as an integer, so it must read back unchanged
                raise ValueError(f"sample rates must be a whole number of Hz, got {rate}")
        _check_float16_range("dominant level", DOMINANT_VOLTS, self.voltage_noise)

    @property
    def power_rate(self) -> float:
        return self.sample_rate if self.power_sample_rate is None else self.power_sample_rate


@dataclass(frozen=True)
class Scenario:
    bus: BusConfig
    ecus: tuple[EcuSpec, ...]
    duration: float
    seed: int = 0
    attacks: tuple[AttackSpec, ...] = ()

    def __post_init__(self):
        if not 0 < self.duration < np.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration}")
        indexes = [ecu.index for ecu in self.ecus]
        if len(indexes) != len(set(indexes)):
            raise ValueError(f"ECU indexes must be distinct, got {indexes}")
        sas = [sa for ecu in self.ecus for sa in ecu.sas]
        if len(sas) != len(set(sas)):
            raise ValueError("source addresses must be distinct across ECUs")
        owners = self.owners
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
        # every schedule and attack puts its SA in the low byte of the ID (_frame_id)
        return SourceAddressMap(self.owners)


@dataclass(frozen=True)
class GroundTruthEntry:
    """What actually happened for one frame present on the bus."""

    t: float
    frame_id: int
    claimed_sa: int
    true_source: int | None  # ECU index, None = added module
    kind: AttackKind


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


# samples of float32 noise and levels (voltage) or pulses (power) summed at once, then
# rounded into the trace: a 1 MB float32 array, small enough that synthesis does not
# raise the process's peak memory
_VOLTAGE_CHUNK_SAMPLES = 1 << 18


def _noise_chunks(out: np.ndarray, rng, noise: float, base: float | None = None):
    """Walk the float16 trace ``out`` in float32 chunks of ``_VOLTAGE_CHUNK_SAMPLES``.

    Each chunk holds ``noise`` times Gaussian samples drawn into one reused buffer
    (chunk by chunk: the values of one draw), plus ``base`` when it is given. It is
    yielded as ``(lo, hi, chunk)`` for the caller to add what reaches into samples
    [lo, hi), and rounded to the nearest float16 into ``out[lo:hi]`` when the loop
    body returns. So every sample gets the same sums in the same order whatever the
    chunk size, and no float32 array spans the trace.
    """
    buffer = np.empty(min(out.size, _VOLTAGE_CHUNK_SAMPLES), dtype=np.float32)
    for lo in range(0, out.size, _VOLTAGE_CHUNK_SAMPLES):
        hi = min(lo + _VOLTAGE_CHUNK_SAMPLES, out.size)
        chunk = buffer[: hi - lo]
        if noise > 0:
            rng.standard_normal(dtype=np.float32, out=chunk)
            chunk *= np.float32(noise)
            if base is not None:
                chunk += np.float32(base)
        else:
            chunk.fill(0.0 if base is None else base)
        yield lo, hi, chunk
        out[lo:hi] = chunk


def _frame_levels(
    wires: list[bytes], nbits: np.ndarray, first: np.ndarray, last: np.ndarray,
    edges: np.ndarray, lo: int, hi: int,
) -> np.ndarray:
    """The levels that frames following one another without overlap add to
    the samples of [lo, hi) between the first frame's first sample and the
    last frame's end, in one pass.

    The span is a run of samples per bit, at that bit's level, and before
    each frame but the first a run over the idle gap at -0.0: adding -0.0
    leaves every sample as it is, where +0.0 would turn a -0.0 noise sample
    into +0.0. Each run is cut to [lo, hi), so the array is at most a chunk long.
    """
    runs = nbits + 1
    gap_at = np.cumsum(runs) - runs  # each frame's gap run; its bit runs follow
    is_bit = np.ones(runs.sum(), dtype=bool)
    is_bit[gap_at] = False
    counts = np.empty(runs.sum(), dtype=np.int64)
    levels = np.empty(runs.sum(), dtype=np.float32)
    counts[gap_at] = first - np.append(first[0], last[:-1])
    levels[gap_at] = -0.0
    k = np.arange(nbits.sum()) - np.repeat(np.cumsum(nbits) - nbits, nbits)  # bit within its frame
    counts[is_bit] = edges[k + 1] - edges[k]
    bits = np.frombuffer(b"".join(wires), dtype=np.uint8)
    levels[is_bit] = np.where(bits == 0, np.float32(DOMINANT_VOLTS), np.float32(0.0))
    end = first[0] + np.cumsum(counts)  # each run's end sample
    counts = np.clip(end, lo, hi) - np.clip(end - counts, lo, hi)
    return np.repeat(levels, counts)


def synth_voltage(
    order: list[ArbitratedFrame], cfg: BusConfig, duration: float, rng: np.random.Generator
) -> SampledTrace:
    """Differential bus voltage for a resolved transmission order, as float16.

    Dominant bits drive ~2 V, recessive/idle stays at ~0 V, with additive
    Gaussian noise; bit edges are aligned to the sample grid. The frames
    must follow one another without overlap, as ``arbitrate`` resolves
    them; frames that overlap or come out of order are a ValueError. Each
    chunk of :func:`_noise_chunks` gets the levels of the frames that reach
    into it (recessive bits add 0.0).
    """
    n = int(round(duration * cfg.sample_rate))
    out = np.empty(n, dtype=np.float16)
    first = last = np.empty(0, dtype=np.int64)
    if order:
        spb = cfg.sample_rate / cfg.bitrate
        wires = [arb.wire for arb in order]
        nbits = np.array([len(w) for w in wires])
        # bit k of a frame spans samples [edges[k], edges[k + 1]) past the frame's first sample
        edges = np.round(np.arange(nbits.max() + 1) * spb).astype(np.int64)
        first = np.array([int(round(arb.start_time * cfg.sample_rate)) for arb in order])
        last = first + edges[nbits]
        if (first[1:] < last[:-1]).any():
            raise ValueError("frames must follow one another without overlap, in bus order")
    for lo, hi, chunk in _noise_chunks(out, rng, cfg.voltage_noise):
        # frames i..j-1 end after the chunk's first sample and start before its end
        i, j = int(np.searchsorted(last, lo, "right")), int(np.searchsorted(first, hi))
        if i < j:
            a, z = max(first[i], lo), min(last[j - 1], hi)
            chunk[a - lo : z - lo] += _frame_levels(
                wires[i:j], nbits[i:j], first[i:j], last[i:j], edges, lo, hi
            )
    return SampledTrace(out, cfg.sample_rate)


def synth_power(
    ecu: EcuSpec,
    timeline: list[tuple[float, float, int | None]],
    duration: float,
    sample_rate: float,
    seed: np.random.SeedSequence | int,
    *,
    out: np.ndarray | None = None,
) -> SampledTrace:
    """Power consumption of one ECU over a bus timeline, as float16.

    The timeline holds one (start, end, sender) per frame on the bus; the
    sender is the transmitting ECU's index, None for an added module.
    Baseline Gaussian noise plus the transmission signature over the
    frames ``ecu`` sends and a reception bump over everyone
    else's. Heterogeneous program activity adds seeded low-frequency
    bursts around the ECU's own transmissions.

    Each pulse is a smoothed rectangle, optionally with a harmonic ripple,
    and an exponential decay tail. Every pulse parameter is drawn first
    (each own frame's jitter and phase, then the bursts), and the noise
    after them. The rise envelope, sample times and decay are computed once,
    at the longest pulse, and each pulse scales its slices of them, which
    gives the bits of the same expression evaluated for that pulse alone.
    Each chunk of :func:`_noise_chunks` gets the parts of the pulses that
    reach into it, in pulse order.

    ``out``, when given, is the float16 array of ``round(duration *
    sample_rate)`` samples that the trace is written into; the result is
    the same as without it.
    """
    prof = ecu.profile
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    if out is None:
        out = np.empty(n, dtype=np.float16)
    elif out.shape != (n,) or out.dtype != np.float16:
        raise ValueError(f"out must be a float16 array of shape ({n},)")

    def span(start: float, end: float) -> tuple[int, int]:
        return max(0, int(round(start * sample_rate))), min(n, int(round(end * sample_rate)))

    pulses = []  # (first sample, end sample, amplitude, ripple Hz, ripple amplitude, phase)
    for start, end, sender in timeline:
        if sender == ecu.index:
            amp = prof.signature_amplitude * (1.0 + SIGNATURE_JITTER * rng.uniform(-1.0, 1.0))
            phase = rng.uniform(0.0, 2 * np.pi)
            ripple = (prof.ripple_frequency_hz, prof.ripple_amplitude * amp, phase)
            pulses.append((*span(start, end), amp, *ripple))
        else:  # a reception bump: the profile's amplitude, and no ripple
            pulses.append((*span(start, end), prof.reception_ripple, 0.0, 0.0, 0.0))
    if prof.program is ProgramActivity.HETEROGENEOUS:
        own = [(start, end) for start, end, sender in timeline if sender == ecu.index]
        for start, end in own:
            length = end - start
            for anchor, sign in ((start, -1.0), (end, +1.0)):
                if rng.uniform() > 0.6:
                    continue
                burst_len = length * rng.uniform(0.3, 0.9)
                gap = length * rng.uniform(0.05, 0.4)
                b0 = anchor - gap - burst_len if sign < 0 else anchor + gap
                ripple_hz = rng.uniform(5e3, 20e3)
                phase = rng.uniform(0.0, 2 * np.pi)
                ripple = (ripple_hz, BURST_RIPPLE * prof.signature_amplitude, phase)
                amplitude = BURST_AMPLITUDE * prof.signature_amplitude
                pulses.append((*span(b0, b0 + burst_len), amplitude, *ripple))
    pulses = [p for p in pulses if p[1] > p[0]]  # a pulse outside the trace adds nothing
    rs = max(SIGNATURE_RISE_FALL_S * sample_rate, 1e-9)
    idx = np.arange(max([0] + [b - a for a, b, *_ in pulses]))
    env = 1.0 - np.exp(-idx / rs)
    t = idx / sample_rate
    decay = np.exp(-np.arange(1, int(round(6 * rs)) + 1) / rs)
    first = np.array([a for a, *_ in pulses], dtype=np.int64)
    reach = np.array([b for _, b, *_ in pulses], dtype=np.int64) + decay.size  # the tail's end

    base = prof.baseline_mean + prof.noise_floor_offset
    for lo, hi, chunk in _noise_chunks(out, rng, prof.baseline_noise, base):
        # each pulse's body over [a, b) and tail over [b, b + decay.size), cut to [lo, hi)
        for k in np.flatnonzero((first < hi) & (reach > lo)):
            a, b, amplitude, ripple_hz, ripple_amplitude, phase = pulses[k]
            s, e = max(a, lo) - a, min(b, hi) - a
            if s < e:
                body = amplitude * env[s:e]
                if ripple_amplitude != 0.0:
                    ripple = ripple_amplitude * env[s:e]
                    ripple *= np.sin(2 * np.pi * ripple_hz * t[s:e] + phase)
                    body += ripple
                chunk[a + s - lo : a + e - lo] += body
            s, e = max(b, lo) - b, min(b + decay.size, hi) - b
            if s < e:
                chunk[b + s - lo : b + e - lo] += amplitude * decay[s:e]
    return SampledTrace(out, sample_rate)


def _stream_requests(
    scenario: Scenario, rng: np.random.Generator
) -> list[tuple[CanFrame, float, tuple[int, int | None, AttackKind]]]:
    """All frame requests: (frame, request time, (claimed SA, transmitter, kind))."""
    fmt = scenario.bus.format
    requests: list[tuple[CanFrame, float, tuple[int, int | None, AttackKind]]] = []
    margin = 200 * 8 / scenario.bus.bitrate  # leave room for the longest frame + queue
    horizon = scenario.duration - margin
    for ecu in scenario.ecus:
        for sched in ecu.schedules:
            fid = sched.frame_id(fmt)
            source = (sched.sa, ecu.index, AttackKind.NORMAL)
            times, t = [], sched.offset_s
            while t < horizon and (sched.count is None or len(times) < sched.count):
                times.append(t)
                t += sched.period_s
            payloads = _payloads(rng, len(times), sched.dlc)
            requests += [(CanFrame(fid, p, fmt), t, source) for p, t in zip(payloads, times)]
    for atk in scenario.attacks:
        fid = atk.frame_id(fmt)
        source = (atk.spoofed_sa, atk.attacker, atk.kind)
        lo, hi = 0.02 * horizon, horizon
        times = lo + (np.arange(atk.count) + 0.5) * (hi - lo) / atk.count
        times = times + rng.uniform(-0.1, 0.1) * (hi - lo) / atk.count
        payloads = _payloads(rng, atk.count, 8)
        requests += [(CanFrame(fid, p, fmt), t, source) for p, t in zip(payloads, times.tolist())]
    return requests


def _payloads(rng: np.random.Generator, count: int, dlc: int) -> list[bytes]:
    """``count`` random payloads of ``dlc`` bytes from one draw: the same bytes
    as one ``rng.integers(0, 256, dlc)`` draw per payload."""
    raw = rng.integers(0, 256, (count, dlc)).astype(np.uint8)
    return [row.tobytes() for row in raw]


def _worker_count(tasks: int) -> int:
    """Threads for ``tasks`` independent jobs: no more than the usable CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(tasks, cpus or 1))


def simulate(
    scenario: Scenario,
) -> tuple[SampledTrace, list[SampledTrace], GroundTruthLog]:
    """Run a scenario: voltage trace, one power trace per ECU, ground truth.

    Every trace is float16: each sample is the nearest float16 to the float32
    sum of noise and levels (see :func:`synth_voltage` and :func:`synth_power`).
    The voltage trace is sampled at ``bus.sample_rate``, which must be at least
    10x the bitrate, and each power trace at ``bus.power_rate``, which must lie
    above twice every ECU's ripple frequency; either violation is a ValueError.
    """
    bus = scenario.bus
    if bus.sample_rate < MIN_SAMPLES_PER_BIT * bus.bitrate:
        raise ValueError(
            f"sample rate {bus.sample_rate:.0f} Hz is below {MIN_SAMPLES_PER_BIT}x "
            f"the bitrate {bus.bitrate:.0f} bps"
        )
    for ecu in scenario.ecus:  # the power channel is point-sampled: no anti-alias filter
        ripple = ecu.profile.ripple_frequency_hz
        if bus.power_rate <= 2 * ripple:
            raise ValueError(
                f"power sample rate {bus.power_rate:.0f} Hz is not above twice the "
                f"{ripple:.0f} Hz ripple of ECU {ecu.index}"
            )
    ss = np.random.SeedSequence(scenario.seed)
    # the third child is unused; spawning it keeps every power trace's seed
    payload_ss, voltage_ss, _, *power_ss = ss.spawn(3 + len(scenario.ecus))
    rng_payload = np.random.default_rng(payload_ss)

    requests = _stream_requests(scenario, rng_payload)
    bit_time = 1.0 / scenario.bus.bitrate
    order = [  # the frames that complete inside the trace
        arb
        for arb in arbitrate([(frame, t) for frame, t, _ in requests], scenario.bus.bitrate)
        if arb.start_time + arb.duration + INTERFRAME_BITS * bit_time <= scenario.duration
    ]  # arbitrate may raise DuplicateId for ill-formed scenarios
    entries = tuple(
        GroundTruthEntry(arb.start_time, arb.frame.frame_id, *requests[arb.request_index][2])
        for arb in order
    )
    timeline = [
        (arb.start_time, arb.start_time + len(arb.wire) * bit_time, entry.true_source)
        for arb, entry in zip(order, entries)
    ]

    # Each ECU's power trace is built on a worker thread over the one timeline:
    # its noise comes from its own seed child, and numpy's fills and array
    # arithmetic release the interpreter lock. A job sums its trace in float32
    # chunks and rounds each into the ECU's float16 trace. Every trace is
    # allocated here, on the calling thread: a trace allocated on a worker can
    # land in that thread's malloc arena, which the calling thread never reuses
    # for later buffers.
    n = int(round(scenario.duration * bus.power_rate))
    with ThreadPoolExecutor(max_workers=_worker_count(len(scenario.ecus))) as pool:
        futures = [
            pool.submit(
                synth_power, ecu, timeline, scenario.duration, bus.power_rate, seed,
                out=np.empty(n, dtype=np.float16),
            )
            for ecu, seed in zip(scenario.ecus, power_ss)
        ]
        voltage = synth_voltage(
            order, scenario.bus, scenario.duration, np.random.default_rng(voltage_ss)
        )
        powers = [f.result() for f in futures]
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
