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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DuplicateId, EmptyTrace, StuffViolation
from .trace import SampledTrace

CRC15_POLY = 0x4599  # x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1
DOMINANT_VOLTS = 2.0
DECODE_THRESHOLD_VOLTS = 1.0
TRAILER_BITS = 10     # CRC delimiter + ACK slot + ACK delimiter + 7 EOF
INTERFRAME_BITS = 3   # intermission after EOF before the next SOF

Bits = list[int]


class FrameFormat(Enum):
    STANDARD = "standard"   # 11-bit ID
    EXTENDED = "extended"   # 29-bit ID


class DerivationRule(Enum):
    LOW_BYTE_OF_ID = "low_byte_of_id"
    EXPLICIT_TABLE = "explicit_table"


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

    @property
    def crc(self) -> int:
        return compute_crc15(frame_body_bits(self))


@dataclass(frozen=True)
class SourceAddressMap:
    """Mapping from frame IDs to source addresses and owning ECU indexes.

    ``owners`` maps each source address to exactly one ECU index; an ECU
    may own several addresses. With the LOW_BYTE_OF_ID rule the source
    address is the low byte of the (29-bit) ID; with EXPLICIT_TABLE the
    frame ID is looked up in ``table``.
    """

    owners: dict[int, int]
    rule: DerivationRule = DerivationRule.LOW_BYTE_OF_ID
    table: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for fid, sa in self.table.items():
            if sa not in self.owners:
                raise ValueError(f"table maps id {fid:#x} to unowned source address {sa}")

    @property
    def sas(self) -> list[int]:
        return sorted(self.owners)

    @property
    def ecus(self) -> list[int]:
        return sorted(set(self.owners.values()))

    def resolve(self, frame_id: int) -> tuple[int | None, int | None]:
        """Return (source address, ecu index) for a frame ID, or Nones."""
        if self.rule is DerivationRule.LOW_BYTE_OF_ID:
            sa = frame_id & 0xFF
        else:
            sa = self.table.get(frame_id)
        if sa is None or sa not in self.owners:
            return (sa, None) if sa in self.owners else (None, None)
        return sa, self.owners[sa]


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
    """One slot of the resolved transmission order."""

    request_index: int
    frame: CanFrame
    start_time: float
    wire: Bits
    duration: float


def _int_bits(value: int, width: int) -> Bits:
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def _bits_int(bits) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


def compute_crc15(bits) -> int:
    """CRC-15/CAN remainder of a bit sequence (zero initial value).

    Long division of the message augmented with 15 zero bits by the
    generator polynomial.
    """
    rem = 0
    for b in list(bits) + [0] * 15:
        rem = (rem << 1) | b
        if rem & 0x8000:
            rem ^= 0x8000 | CRC15_POLY
    return rem


def stuff_bits(bits) -> Bits:
    """Insert a complement bit after every run of five equal bits.

    The inserted bit counts toward the following run, matching the CAN
    transmitter behaviour.
    """
    out: Bits = []
    run_val = -1
    run_len = 0
    for b in bits:
        out.append(b)
        if b == run_val:
            run_len += 1
        else:
            run_val, run_len = b, 1
        if run_len == 5:
            comp = 1 - b
            out.append(comp)
            run_val, run_len = comp, 1
    return out


def unstuff_bits(bits) -> Bits:
    """Inverse of :func:`stuff_bits` on its image.

    Raises StuffViolation when six consecutive equal bits occur.
    """
    out: Bits = []
    run_val = -1
    run_len = 0
    expect_stuff = False
    for i, b in enumerate(bits):
        if expect_stuff:
            if b == run_val:
                raise StuffViolation(f"six consecutive equal bits at position {i}")
            run_val, run_len = b, 1
            expect_stuff = False
            continue
        out.append(b)
        if b == run_val:
            run_len += 1
        else:
            run_val, run_len = b, 1
        if run_len == 5:
            expect_stuff = True
    return out


def frame_body_bits(frame: CanFrame) -> Bits:
    """Unstuffed bits from SOF through the end of the data field.

    This is exactly the CRC input region.
    """
    bits = [0]  # SOF
    if frame.format is FrameFormat.STANDARD:
        bits += _int_bits(frame.frame_id, 11)
        bits += [0, 0, 0]  # RTR, IDE, r0
    else:
        bits += _int_bits(frame.frame_id >> 18, 11)
        bits += [1, 1]  # SRR, IDE
        bits += _int_bits(frame.frame_id & 0x3FFFF, 18)
        bits += [0, 0, 0]  # RTR, r1, r0
    bits += _int_bits(frame.dlc, 4)
    for byte in frame.payload:
        bits += _int_bits(byte, 8)
    return bits


def serialize_frame(frame: CanFrame) -> Bits:
    """Full on-wire bit image of a frame, stuffing applied SOF through CRC."""
    body = frame_body_bits(frame)
    stuffable = body + _int_bits(compute_crc15(body), 15)
    wire = stuff_bits(stuffable)
    # CRC delimiter, ACK slot (driven dominant by receivers), ACK delimiter, EOF
    wire += [1, 0, 1] + [1] * 7
    return wire


def frame_duration(frame: CanFrame, bitrate: float) -> float:
    return len(serialize_frame(frame)) / bitrate


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
        wire = serialize_frame(frame)
        duration = len(wire) / bitrate
        order.append(ArbitratedFrame(winner, frame, instant, wire, duration))
        free_at = instant + duration + gap
    return order


class _ParseAbort(Exception):
    """Internal: frame parse cannot continue (truncation/stuffing/form)."""


class _BitReader:
    """Mid-bit sampler with on-the-fly unstuffing over a dominant mask."""

    def __init__(self, dominant: np.ndarray, s0: int, spb: float):
        self._dominant = dominant
        self._s0 = s0
        self._spb = spb
        self._n = dominant.size
        self.pos = 0  # stuffed-bit cursor
        self._run_val = -1
        self._run_len = 0

    def _raw(self) -> int:
        idx = self._s0 + int((self.pos + 0.5) * self._spb)
        if idx >= self._n:
            raise _ParseAbort("truncated frame")
        self.pos += 1
        return 0 if self._dominant[idx] else 1

    def logical(self) -> int:
        """Next unstuffed bit; validates and skips pending stuff bits."""
        self.skip_pending_stuff()
        b = self._raw()
        if b == self._run_val:
            self._run_len += 1
        else:
            self._run_val, self._run_len = b, 1
        return b

    def skip_pending_stuff(self) -> None:
        if self._run_len == 5:
            sb = self._raw()
            if sb == self._run_val:
                raise _ParseAbort("stuff violation")
            self._run_val, self._run_len = sb, 1

    def fixed(self) -> int:
        """Next bit with no stuffing (fixed-form trailer)."""
        return self._raw()


@dataclass
class _ParsedFrame:
    frame_id: int | None
    fmt: FrameFormat | None
    dlc: int | None
    payload: bytes | None
    ok: bool
    consumed: int


def _parse_frame(dominant: np.ndarray, s0: int, spb: float) -> _ParsedFrame:
    """Parse one frame starting at sample ``s0``; never raises.

    Any truncation, stuffing, or fixed-form problem yields ``ok=False``
    with the bits consumed so far.
    """
    reader = _BitReader(dominant, s0, spb)
    frame_id = None
    fmt = None
    dlc = None
    payload = None
    ok = False
    try:
        body = [reader.logical()]  # SOF (dominant by construction)
        id11 = [reader.logical() for _ in range(11)]
        body += id11
        b12 = reader.logical()
        b13 = reader.logical()
        body += [b12, b13]
        if b13 == 1:
            fmt = FrameFormat.EXTENDED
            if b12 != 1:
                raise _ParseAbort("form error: SRR must be recessive")
            id18 = [reader.logical() for _ in range(18)]
            body += id18
            body += [reader.logical() for _ in range(3)]  # RTR, r1, r0
            frame_id = (_bits_int(id11) << 18) | _bits_int(id18)
        else:
            fmt = FrameFormat.STANDARD
            body += [reader.logical()]  # r0
            frame_id = _bits_int(id11)
        dlc_raw = _bits_int([reader.logical() for _ in range(4)])
        body += _int_bits(dlc_raw, 4)
        dlc = min(dlc_raw, 8)
        data_bits = [reader.logical() for _ in range(8 * dlc)]
        body += data_bits
        crc_read = _bits_int([reader.logical() for _ in range(15)])
        reader.skip_pending_stuff()  # stuffing covers through the CRC field
        crc_del = reader.fixed()
        ack_slot = reader.fixed()  # recessive here means nobody acknowledged
        ack_del = reader.fixed()
        eof = [reader.fixed() for _ in range(7)]
        form_ok = (
            crc_del == 1 and ack_slot == 0 and ack_del == 1 and all(b == 1 for b in eof)
        )
        ok = form_ok and compute_crc15(body) == crc_read
        payload = bytes(
            _bits_int(data_bits[8 * i : 8 * i + 8]) for i in range(dlc)
        )
    except _ParseAbort:
        ok = False
    return _ParsedFrame(
        frame_id=frame_id,
        fmt=fmt,
        dlc=dlc,
        payload=payload if ok else None,
        ok=ok,
        consumed=max(reader.pos, 1),
    )


def decode_transmissions(
    trace: SampledTrace, bitrate: float, samap: SourceAddressMap
) -> list[DecodedTransmission]:
    """Recover all transmissions from a sampled differential-voltage trace.

    A frame start is a rising (recessive-to-dominant) edge preceded by at
    least seven bit times of recessive bus. Requires
    ``trace.sample_rate >= 10 * bitrate``.
    """
    if trace.samples.size == 0:
        raise EmptyTrace("voltage trace has no samples")
    if trace.sample_rate < 10 * bitrate:
        raise ValueError("sample rate must be at least 10x the bitrate")
    dominant = trace.samples > DECODE_THRESHOLD_VOLTS
    spb = trace.sample_rate / bitrate
    quiet = int(round(7 * spb))
    rising = np.flatnonzero(~dominant[:-1] & dominant[1:]) + 1
    if dominant.size and dominant[0]:
        rising = np.concatenate(([0], rising))
    out: list[DecodedTransmission] = []
    cursor = 0
    j = 0
    while j < rising.size:
        s0 = int(rising[j])
        if s0 < cursor:
            j += 1
            continue
        lo = max(0, s0 - quiet)
        if dominant[lo:s0].any():  # mid-frame edge, not a SOF
            j += 1
            continue
        parsed = _parse_frame(dominant, s0, spb)
        sa = None
        if parsed.frame_id is not None:
            sa, _ = samap.resolve(parsed.frame_id)
        out.append(
            DecodedTransmission(
                t=trace.start_time + s0 / trace.sample_rate,
                sa=sa,
                frame_id=parsed.frame_id,
                duration=parsed.consumed / bitrate,
                crc_ok=parsed.ok,
                format=parsed.fmt,
                dlc=parsed.dlc,
                payload=parsed.payload,
            )
        )
        cursor = s0 + int(round(parsed.consumed * spb))
        j = int(np.searchsorted(rising, cursor, side="left"))
    return out
