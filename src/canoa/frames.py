"""CAN frame model, bit-level serialization, arbitration, and trace decoding.

Frames follow ISO 11898 conventions for the data-frame layout: SOF,
arbitration field (MSB-first ID), control field, data, CRC-15, CRC
delimiter, ACK slot, ACK delimiter, and 7 EOF bits, with bit stuffing
applied from SOF through the CRC field. Dominant bits are logical 0 and
drive the differential bus to ~2 V; recessive bits are logical 1 and
leave it at ~0 V.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DuplicateId, EmptyTrace
from .trace import SampledTrace

CRC15_POLY = 0x4599  # x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1
DOMINANT_VOLTS = 2.0
DECODE_THRESHOLD_VOLTS = 1.0
TRAILER_BITS = 10     # CRC delimiter + ACK slot + ACK delimiter + 7 EOF
INTERFRAME_BITS = 3   # intermission after EOF before the next SOF
MIN_SAMPLES_PER_BIT = 10  # the decoder's floor on sample rate / bitrate


class FrameFormat(Enum):
    STANDARD = "standard"   # 11-bit ID
    EXTENDED = "extended"   # 29-bit ID


@dataclass(frozen=True)
class CanFrame:
    """A logical CAN data frame (ID, format, payload)."""

    frame_id: int
    payload: bytes
    format: FrameFormat = FrameFormat.STANDARD

    def __post_init__(self):
        limit = 1 << (11 if self.format is FrameFormat.STANDARD else 29)
        if not 0 <= self.frame_id < limit:
            raise ValueError(
                f"frame id {self.frame_id:#x} out of range for {self.format.value} format"
            )
        if not 0 <= len(self.payload) <= 8:
            raise ValueError("payload must be 0..8 bytes")

    @property
    def dlc(self) -> int:
        return len(self.payload)


@dataclass(frozen=True)
class SourceAddressMap:
    """Which ECU owns each source address, and the address a frame ID claims.

    ``owners`` maps each source address to exactly one ECU index; an ECU
    may own several addresses. As in SAE J1939, a frame claims the source
    address in the low byte of its ID, in the 11-bit and 29-bit formats alike.
    """

    owners: dict[int, int]

    @property
    def sas(self) -> list[int]:
        return sorted(self.owners)

    @property
    def ecus(self) -> list[int]:
        return sorted(set(self.owners.values()))

    def owned(self, ecu: int) -> list[int]:
        """The source addresses ``ecu`` owns, in ascending order."""
        return [sa for sa in self.sas if self.owners[sa] == ecu]

    def resolve(self, frame_id: int) -> int | None:
        """The source address a frame ID claims, or None when no ECU owns it."""
        sa = frame_id & 0xFF
        return sa if sa in self.owners else None


@dataclass(frozen=True)
class DecodedTransmission:
    """Start time and source address recovered from the bus.

    Frames that fail CRC, stuffing, or fixed-form checks are returned
    with ``crc_ok=False`` rather than dropped, so corrupted traffic stays
    observable.
    """

    t: float
    sa: int | None
    frame_id: int | None
    duration: float
    crc_ok: bool
    format: FrameFormat | None = None
    dlc: int | None = None
    payload: bytes | None = None


@dataclass(frozen=True)
class ArbitratedFrame:
    """One slot of the resolved transmission order; ``wire`` is one byte per bit, 0 = dominant."""

    request_index: int
    frame: CanFrame
    start_time: float
    wire: bytes
    duration: float


# Longest stuffable region: SOF, 29-bit ID with SRR/IDE, RTR/r1/r0, DLC,
# 8 data bytes and the CRC. The first stuff bit follows 5 equal bits and
# each later one at least 4 more logical bits, so the wire holds at most
# (_MAX_LOGICAL_BITS - 1) // 4 stuff bits before the fixed-form trailer.
_MAX_LOGICAL_BITS = 1 + 11 + 2 + 18 + 3 + 4 + 64 + 15
_MAX_BODY_BITS = _MAX_LOGICAL_BITS - 15
_MAX_WIRE_BITS = _MAX_LOGICAL_BITS + (_MAX_LOGICAL_BITS - 1) // 4 + TRAILER_BITS
_TRAILER = np.array([1, 0, 1] + [1] * 7, dtype=np.uint8)  # CRC del, ACK slot, ACK del, EOF


def _crc_terms(count: int) -> np.ndarray:
    """x^(k+15) mod g for k < count: each term is the one before it shifted once through g."""
    terms = [CRC15_POLY]
    while len(terms) < count:
        terms.append(((terms[-1] << 1) & 0x7FFF) ^ (CRC15_POLY if terms[-1] & 0x4000 else 0))
    return np.array(terms)


# CRC-15 is linear with a zero initial value: a set body bit followed by k
# more body bits contributes term k.
_CRC_TERMS = _crc_terms(_MAX_BODY_BITS)
_PARSE_BLOCK = 1024  # candidate frames parsed together; bounds the gather matrices
_EDGE_BLOCK = 1 << 20  # samples thresholded together when finding level changes
# frames encoded together: each temporary stays under 1 MB, so encoding a
# capture's requests does not raise the process's peak memory
_ENCODE_BLOCK = 1024
# float16 bit patterns above the threshold: (1.0, +inf] is 0x3C01 .. 0x7C00 as uint16
_FLOAT16_DOMINANT_FROM = np.uint16(np.float16(DECODE_THRESHOLD_VOLTS).view(np.uint16) + 1)
_FLOAT16_DOMINANT_COUNT = np.uint16(np.float16(np.inf).view(np.uint16) - _FLOAT16_DOMINANT_FROM + 1)


def _dominant(samples: np.ndarray) -> np.ndarray:
    """``samples > DECODE_THRESHOLD_VOLTS``.

    numpy compares float16 an order of magnitude slower than float32, so a
    float16 sample is compared by its bit pattern: subtracting the first
    pattern above the threshold wraps every other one (a NaN, a negative
    value) past the count of dominant patterns.
    """
    if samples.dtype != np.float16:
        return samples > DECODE_THRESHOLD_VOLTS
    return samples.view(np.uint16) - _FLOAT16_DOMINANT_FROM < _FLOAT16_DOMINANT_COUNT


def _msb_first(field: np.ndarray) -> np.ndarray:
    """Per row, the integer whose MSB-first bits are the row of ``field``."""
    return field.astype(np.int64) @ (1 << np.arange(field.shape[1] - 1, -1, -1, dtype=np.int64))


def _msb_first_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Per value, its ``width`` low bits MSB-first: the inverse of :func:`_msb_first`."""
    return ((values[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


def _crc15_rows(bits: np.ndarray, body_len: np.ndarray) -> np.ndarray:
    """Per row, the CRC-15 of its first ``body_len`` bits: the terms of its set bits XOR-ed."""
    place = np.arange(_MAX_BODY_BITS)
    in_body = (place < body_len[:, None]) & (bits[:, :_MAX_BODY_BITS] == 1)
    terms = _CRC_TERMS[np.maximum(body_len[:, None] - 1 - place, 0)]
    return np.bitwise_xor.reduce(np.where(in_body, terms, 0), axis=1)


def _serialize_block(frames: Sequence[CanFrame]) -> list[bytes]:
    """Wire images of up to ``_ENCODE_BLOCK`` frames, all frames column by column."""
    m = len(frames)
    extended = np.array([f.format is FrameFormat.EXTENDED for f in frames], dtype=bool)
    frame_id = np.array([f.frame_id for f in frames], dtype=np.int64)
    dlc = np.array([f.dlc for f in frames], dtype=np.int64)
    payload = np.frombuffer(b"".join(f.payload.ljust(8, b"\0") for f in frames), dtype=np.uint8)

    # the logical bits SOF through CRC by index; SOF, RTR and reserved bits are 0
    bits = np.zeros((m, _MAX_LOGICAL_BITS), dtype=np.uint8)
    bits[:, 1:12] = _msb_first_bits(np.where(extended, frame_id >> 18, frame_id), 11)
    bits[extended, 12:14] = 1  # SRR, IDE
    bits[extended, 14:32] = _msb_first_bits(frame_id[extended] & 0x3FFFF, 18)
    dlc_at = np.where(extended, 35, 15)
    fields = np.hstack((_msb_first_bits(dlc, 4), np.unpackbits(payload.reshape(m, 8), axis=1)))
    np.put_along_axis(bits, dlc_at[:, None] + np.arange(fields.shape[1]), fields, axis=1)
    body_len = dlc_at + 4 + 8 * dlc  # the zero padding past it adds no CRC term
    crc = _msb_first_bits(_crc15_rows(bits, body_len), 15)
    np.put_along_axis(bits, body_len[:, None] + np.arange(15), crc, axis=1)

    # stuff one logical bit position at a time across all frames, then place
    # every logical bit and every stuff bit on the wire by index
    stuffed_len = body_len + 15
    width = stuffed_len.max()
    due = np.empty((width, m), dtype=bool)  # a stuff bit follows logical bit k
    run_val = np.full(m, 2, dtype=np.uint8)
    run_len = np.zeros(m, dtype=np.uint8)
    for k, bit in enumerate(np.ascontiguousarray(bits[:, :width].T)):
        run_len = np.where(bit == run_val, run_len + 1, 1)
        stuffed = due[k] = run_len == 5
        # the complement stuff bit starts the next run
        run_val = bit ^ stuffed
        run_len[stuffed] = 1
    due = due.T & (np.arange(width) < stuffed_len[:, None])
    stuffs = np.cumsum(due, axis=1, dtype=np.int16)  # stuff bits up to and including bit k
    rows, cols = np.nonzero(due)
    stuff = np.zeros((m, _MAX_WIRE_BITS), dtype=bool)
    stuff[rows, cols + stuffs[rows, cols]] = True
    # the zero padding past a frame's CRC lands where its trailer goes
    logical = ~stuff & (np.arange(_MAX_WIRE_BITS) < width + stuffs[:, -1:])
    wire = np.empty((m, _MAX_WIRE_BITS), dtype=np.uint8)
    wire[logical] = bits[:, :width].ravel()
    wire[stuff] = 1 - bits[rows, cols]
    end = stuffed_len + stuffs[:, -1]
    np.put_along_axis(wire, end[:, None] + np.arange(TRAILER_BITS), _TRAILER[None, :], axis=1)
    return [wire[i, :n].tobytes() for i, n in enumerate(end + TRAILER_BITS)]


def serialize_frames(frames: Sequence[CanFrame]) -> list[bytes]:
    """Full on-wire bit images of frames, one byte per bit, stuffing applied SOF through CRC.

    Frames are encoded column by column, in blocks of ``_ENCODE_BLOCK``, the
    way the decoder parses them: body bits placed by index, the CRC-15 from
    the decoder's table of terms, and bit stuffing one position at a time
    across all frames.
    """
    blocks = range(0, len(frames), _ENCODE_BLOCK)
    return [w for lo in blocks for w in _serialize_block(frames[lo : lo + _ENCODE_BLOCK])]


def arbitrate(
    start_requests: list[tuple[CanFrame, float]], bitrate: float
) -> list[ArbitratedFrame]:
    """Resolve bus access for a set of (frame, request time) pairs.

    Contenders at each bus-idle instant are ordered by ascending frame ID;
    losers retry once the bus goes idle again. Raises DuplicateId when two
    contenders in the same arbitration share an ID.
    """
    pending = sorted(range(len(start_requests)), key=lambda i: (start_requests[i][1], i))
    cursor = 0
    contenders: list[tuple[int, int]] = []  # heap of (frame ID, request index)
    contending_ids: set[int] = set()
    wires = serialize_frames([frame for frame, _ in start_requests])
    order: list[ArbitratedFrame] = []
    free_at = 0.0
    gap = INTERFRAME_BITS / bitrate
    while cursor < len(pending) or contenders:
        instant = free_at
        if not contenders:
            instant = max(instant, start_requests[pending[cursor]][1])
        # instant never decreases, so a contender stays one until it wins
        while cursor < len(pending) and start_requests[pending[cursor]][1] <= instant:
            i = pending[cursor]
            frame_id = start_requests[i][0].frame_id
            if frame_id in contending_ids:
                raise DuplicateId(f"simultaneous requesters share id {frame_id:#x}")
            contending_ids.add(frame_id)
            heapq.heappush(contenders, (frame_id, i))
            cursor += 1
        frame_id, winner = heapq.heappop(contenders)
        contending_ids.remove(frame_id)
        frame = start_requests[winner][0]
        wire = wires[winner]
        duration = len(wire) / bitrate
        order.append(ArbitratedFrame(winner, frame, instant, wire, duration))
        free_at = instant + duration + gap
    return order


def _columns(bits: np.ndarray, first: np.ndarray, width: int) -> np.ndarray:
    """Per row, the ``width`` columns of ``bits`` starting at column ``first``."""
    return np.take_along_axis(bits, first[:, None] + np.arange(width), axis=1)


def _parse_frames(samples: np.ndarray, starts: np.ndarray, spb: float):
    """Parse one frame at each start sample, all candidates column by column.

    Gives what a mid-bit sampler that unstuffs on the fly gives when it
    stops at the first truncation, stuff violation or SRR form error:
    per start, (frame_id, format, dlc, payload, ok, consumed bits), with
    the fields an early stop had not reached set to None.
    """
    m = starts.size
    n = samples.size
    offsets = np.array([int((k + 0.5) * spb) for k in range(_MAX_WIRE_BITS)], dtype=np.int64)
    readable = np.searchsorted(offsets, n - starts)  # raw bits before the trace ends
    # mid-bit samples, one row per raw bit, one column per candidate; 1 = recessive.
    # Bits past the end read the last sample: everything derived from them
    # lies past the truncation point, so the truncation stop comes first.
    at = np.minimum(offsets[:, None] + starts[None, :], n - 1)
    wire = ~_dominant(samples[at])

    # a bit after five equal bits is a stuff bit, and a violation if it extends the run
    stuff = np.empty(wire.shape, dtype=bool)
    violation = np.empty(wire.shape, dtype=bool)
    run_val = np.full(m, 2, dtype=np.uint8)
    run_len = np.zeros(m, dtype=np.uint8)
    for k, bit in enumerate(wire.view(np.uint8)):
        due = run_len == 5
        same = bit == run_val
        stuff[k] = due
        violation[k] = due & same
        run_len = np.where(same & ~due, run_len + 1, 1)
        run_val = bit
    wire, stuff, violation = wire.T.view(np.uint8), stuff.T, violation.T

    # raw position of every logical bit; each row holds at least _MAX_LOGICAL_BITS
    rows, cols = np.nonzero(~stuff)
    per_row = np.bincount(rows, minlength=m)
    first = np.cumsum(per_row) - per_row
    raw_at = cols[first[:, None] + np.arange(_MAX_LOGICAL_BITS)]
    bits = np.take_along_axis(wire, raw_at, axis=1)

    extended = bits[:, 13] == 1
    id11 = _msb_first(bits[:, 1:12])
    frame_id = np.where(extended, (id11 << 18) | _msb_first(bits[:, 14:32]), id11)
    dlc_at = np.where(extended, 35, 15)
    dlc = np.minimum(_msb_first(_columns(bits, dlc_at, 4)), 8)
    data_at = dlc_at + 4
    body_len = data_at + 8 * dlc
    payload = np.packbits(_columns(bits, data_at, 64), axis=1)
    crc_read = _msb_first(_columns(bits, body_len, 15))
    crc = _crc15_rows(bits, body_len)

    # the stuffed region ends after the CRC and a pending stuff bit; the trailer follows
    last = np.take_along_axis(raw_at, body_len[:, None] + 14, axis=1)[:, 0]
    trailer_at = last + 1 + np.take_along_axis(stuff, last[:, None] + 1, axis=1)[:, 0]
    end = trailer_at + TRAILER_BITS
    form_ok = (_columns(wire, trailer_at, TRAILER_BITS) == _TRAILER).all(axis=1)

    # each stop as the bits consumed when it happens; the earliest wins
    never = _MAX_WIRE_BITS + 1
    truncated = np.where(readable < end, readable, never)
    first_violation = np.where(violation.any(axis=1), violation.argmax(axis=1), never)
    violated = np.where(first_violation < trailer_at, first_violation + 1, never)
    srr_error = np.where(extended & (bits[:, 12] == 0), raw_at[:, 13] + 1, never)
    stop = np.minimum(np.minimum(truncated, violated), srr_error)
    stopped = stop < never
    consumed = np.maximum(np.where(stopped, stop, end), 1)
    ok = ~stopped & form_ok & (crc == crc_read)
    # the logical bits read before a stop decide which fields were reached
    read = (raw_at < consumed[:, None]).sum(axis=1)
    has_format = read >= 14
    has_id = read >= np.where(extended, 35, 15)
    has_dlc = read >= data_at

    parsed = []
    for fid, ext, length, data, good, used, fmt_ok, id_ok, dlc_ok in zip(
        frame_id.tolist(), extended.tolist(), dlc.tolist(), payload.tolist(), ok.tolist(),
        consumed.tolist(), has_format.tolist(), has_id.tolist(), has_dlc.tolist(),
    ):
        fmt = (FrameFormat.EXTENDED if ext else FrameFormat.STANDARD) if fmt_ok else None
        parsed.append((
            fid if id_ok else None,
            fmt,
            length if dlc_ok else None,
            bytes(data[:length]) if good else None,
            good,
            used,
        ))
    return parsed


def decode_transmissions(
    trace: SampledTrace, bitrate: float, samap: SourceAddressMap
) -> list[DecodedTransmission]:
    """Recover all transmissions from a sampled differential-voltage trace.

    A frame start is a rising (recessive-to-dominant) edge preceded by at
    least seven bit times of recessive bus. Requires
    ``trace.sample_rate >= MIN_SAMPLES_PER_BIT * bitrate``.
    """
    if not 0 < bitrate < np.inf:
        raise ValueError(f"bitrate must be a positive finite number, got {bitrate}")
    if trace.samples.size == 0:
        raise EmptyTrace("voltage trace has no samples")
    if trace.sample_rate < MIN_SAMPLES_PER_BIT * bitrate:
        raise ValueError(f"sample rate must be at least {MIN_SAMPLES_PER_BIT}x the bitrate")
    spb = trace.sample_rate / bitrate
    quiet = int(round(7 * spb))
    # level changes, as if the bus were recessive before the first sample:
    # even entries are rising edges, odd entries the falling edges after them.
    # Block by block, so no temporary is as long as the trace.
    edges, before = [], False
    for lo in range(0, trace.samples.size, _EDGE_BLOCK):
        dominant = _dominant(trace.samples[lo : lo + _EDGE_BLOCK])
        edges.append(np.flatnonzero(np.diff(dominant, prepend=before)) + lo)
        before = dominant[-1]
    edges = np.concatenate(edges)
    rising = edges[0::2]
    recessive_from = np.concatenate(([0], edges[1::2]))[: rising.size]
    # a SOF is a rising edge with no dominant sample in the `quiet` samples before it
    starts = rising[recessive_from <= np.maximum(rising - quiet, 0)]
    out: list[DecodedTransmission] = []
    cursor = 0
    for lo in range(0, starts.size, _PARSE_BLOCK):
        block = starts[lo : lo + _PARSE_BLOCK]
        for s0, (frame_id, fmt, dlc, payload, ok, consumed) in zip(
            block.tolist(), _parse_frames(trace.samples, block, spb)
        ):
            if s0 < cursor:  # an edge inside the previous frame
                continue
            out.append(
                DecodedTransmission(
                    t=trace.start_time + s0 / trace.sample_rate,
                    sa=None if frame_id is None else samap.resolve(frame_id),
                    frame_id=frame_id,
                    duration=consumed / bitrate,
                    crc_ok=ok,
                    format=fmt,
                    dlc=dlc,
                    payload=payload,
                )
            )
            cursor = s0 + int(round(consumed * spb))
    return out
