"""Protocol-level tests: CRC, stuffing, serialization, arbitration, decoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canoa import frames as frames_module
from canoa.errors import DuplicateId, EmptyTrace
from canoa.frames import (
    DECODE_THRESHOLD_VOLTS,
    INTERFRAME_BITS,
    ArbitratedFrame,
    CanFrame,
    DecodedTransmission,
    FrameFormat,
    SourceAddressMap,
    arbitrate,
    decode_transmissions,
    serialize_frames,
)
from canoa.trace import SampledTrace


def serialize_frame(frame):
    """One frame's wire image: a batch of one."""
    return serialize_frames([frame])[0]


# ---------------------------------------------------------------- oracles


def _int_bits(value, width):
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def compute_crc15(bits):
    """Reference CRC-15/CAN remainder of a bit sequence (zero initial value).

    Long division of the message augmented with 15 zero bits by the
    generator polynomial.
    """
    rem = 0
    for b in list(bits) + [0] * 15:
        rem = (rem << 1) | b
        if rem & 0x8000:
            rem ^= 0x8000 | 0x4599
    return rem


def stuff_bits(bits):
    """Reference stuffing: a complement bit after every run of five equal bits.

    The inserted bit counts toward the following run, matching the CAN
    transmitter behaviour.
    """
    out = []
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


def frame_body_bits(frame):
    """Reference unstuffed bits from SOF through the end of the data field: the CRC input."""
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


def serialize_scalar(frame):
    """Reference wire image: stuffed body and CRC, then the trailer, one byte per bit."""
    body = frame_body_bits(frame)
    crc = compute_crc15(body)
    return bytes(stuff_bits(body + _int_bits(crc, 15)) + [1, 0, 1] + [1] * 7)


def crc15_shift_register(bits):
    """Independent bit-serial shift-register CRC-15/CAN oracle."""
    crc = 0
    for bit in bits:
        if ((crc >> 14) & 1) ^ bit:
            crc = ((crc << 1) ^ 0x4599) & 0x7FFF
        else:
            crc = (crc << 1) & 0x7FFF
    return crc


def count_stuff_insertions(bits):
    """Single-pass counter oracle: how many stuff bits a transmitter inserts.

    Tracks the run length over the emitted (stuffed) stream, so an
    inserted bit seeds the next run.
    """
    run_val, run_len, inserted = -1, 0, 0
    for b in bits:
        if b == run_val:
            run_len += 1
        else:
            run_val, run_len = b, 1
        if run_len == 5:
            inserted += 1
            run_val, run_len = 1 - b, 1
    return inserted


def arbitrate_rescan(start_requests, bitrate):
    """Reference arbitration: rescan every pending request at each bus-idle instant."""
    remaining = list(range(len(start_requests)))
    remaining.sort(key=lambda i: (start_requests[i][1], start_requests[i][0].frame_id, i))
    order = []
    free_at = 0.0
    gap = INTERFRAME_BITS / bitrate
    while remaining:
        instant = max(free_at, start_requests[remaining[0]][1])
        contenders = [i for i in remaining if start_requests[i][1] <= instant]
        ids = [start_requests[i][0].frame_id for i in contenders]
        if len(ids) != len(set(ids)):
            dup = next(v for v in ids if ids.count(v) > 1)
            raise DuplicateId(f"simultaneous requesters share id {dup:#x}")
        winner = min(contenders, key=lambda i: start_requests[i][0].frame_id)
        frame = start_requests[winner][0]
        wire = serialize_scalar(frame)
        duration = len(wire) / bitrate
        order.append(ArbitratedFrame(winner, frame, instant, wire, duration))
        free_at = instant + duration + gap
        remaining.remove(winner)
    return order


class _ParseAbort(Exception):
    """Reference decoder: frame parse cannot continue (truncation/stuffing/form)."""


class _BitReader:
    """Reference decoder: mid-bit sampler with on-the-fly unstuffing."""

    def __init__(self, dominant, s0, spb):
        self._dominant = dominant
        self._s0 = s0
        self._spb = spb
        self._n = dominant.size
        self.pos = 0  # stuffed-bit cursor
        self._run_val = -1
        self._run_len = 0

    def _raw(self):
        idx = self._s0 + int((self.pos + 0.5) * self._spb)
        if idx >= self._n:
            raise _ParseAbort("truncated frame")
        self.pos += 1
        return 0 if self._dominant[idx] else 1

    def logical(self):
        self.skip_pending_stuff()
        b = self._raw()
        if b == self._run_val:
            self._run_len += 1
        else:
            self._run_val, self._run_len = b, 1
        return b

    def skip_pending_stuff(self):
        if self._run_len == 5:
            sb = self._raw()
            if sb == self._run_val:
                raise _ParseAbort("stuff violation")
            self._run_val, self._run_len = sb, 1

    def fixed(self):
        return self._raw()


def _bits_int(bits):
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


def parse_frame_bitwise(dominant, s0, spb):
    """Reference parse of one frame, one bit at a time; never raises.

    Returns (frame_id, format, dlc, payload, ok, consumed bits).
    """
    reader = _BitReader(dominant, s0, spb)
    frame_id = fmt = dlc = payload = None
    ok = False
    try:
        body = [reader.logical()]  # SOF
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
        dlc_bits = [reader.logical() for _ in range(4)]
        body += dlc_bits
        dlc = min(_bits_int(dlc_bits), 8)
        data_bits = [reader.logical() for _ in range(8 * dlc)]
        body += data_bits
        crc_read = _bits_int([reader.logical() for _ in range(15)])
        reader.skip_pending_stuff()  # stuffing covers through the CRC field
        trailer = [reader.fixed() for _ in range(10)]
        ok = trailer == [1, 0, 1] + [1] * 7 and crc15_shift_register(body) == crc_read
        payload = bytes(_bits_int(data_bits[8 * i : 8 * i + 8]) for i in range(dlc))
    except _ParseAbort:
        ok = False
    return frame_id, fmt, dlc, payload if ok else None, ok, max(reader.pos, 1)


def decode_bitwise(trace, bitrate, samap):
    """Reference decoder: scan rising edges, parse each SOF one bit at a time."""
    dominant = trace.samples > DECODE_THRESHOLD_VOLTS
    spb = trace.sample_rate / bitrate
    quiet = int(round(7 * spb))
    rising = np.flatnonzero(~dominant[:-1] & dominant[1:]) + 1
    if dominant[0]:
        rising = np.concatenate(([0], rising))
    out = []
    cursor = 0
    j = 0
    while j < rising.size:
        s0 = int(rising[j])
        if s0 < cursor or dominant[max(0, s0 - quiet) : s0].any():
            j += 1
            continue
        frame_id, fmt, dlc, payload, ok, consumed = parse_frame_bitwise(dominant, s0, spb)
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
        j = int(np.searchsorted(rising, cursor, side="left"))
    return out


def random_requests(rng, n, id_pool, span_s):
    """Requests on a coarse time grid: simultaneous starts and bus backlogs."""
    times = rng.integers(0, 40, n) * (span_s / 40)
    ids = rng.choice(id_pool, n, replace=id_pool.size < n)
    return [
        (CanFrame(int(fid), bytes(rng.integers(0, 256, int(rng.integers(0, 9))).tolist())), float(t))
        for fid, t in zip(ids, times)
    ]


def make_voltage(order, bitrate, sample_rate, tail_bits=16):
    """Minimal waveform builder independent of the bus simulator."""
    spb = sample_rate / bitrate
    end = max(f.start_time + f.duration for f in order) + tail_bits / bitrate
    samples = np.zeros(int(round(end * sample_rate)), dtype=np.float64)
    for f in order:
        s0 = int(round(f.start_time * sample_rate))
        for k, bit in enumerate(f.wire):
            if bit == 0:
                a = s0 + int(round(k * spb))
                b = s0 + int(round((k + 1) * spb))
                samples[a:b] = 2.0
    return SampledTrace(samples, sample_rate)


LOW_BYTE_MAP = SourceAddressMap(owners={s: s for s in range(256)})


def ext_frame(sa, payload, prefix=0x00F0):
    return CanFrame((prefix << 8) | sa, payload, FrameFormat.EXTENDED)


# ---------------------------------------------------------------- CRC-15


def test_crc15_all_zero_input_is_zero():
    assert compute_crc15([0] * 19) == 0x0000


def test_crc15_single_one_bit_equals_polynomial():
    assert compute_crc15([1]) == 0x4599


def test_crc15_known_frame_matches_shift_register_oracle():
    frame = CanFrame(0x123, b"\xab")
    body = frame_body_bits(frame)
    # frozen from the shift-register oracle
    assert crc15_shift_register(body) == 0x666F
    assert compute_crc15(body) == 0x666F


def test_crc15_agrees_with_oracle_on_random_bits():
    rng = np.random.default_rng(11)
    for _ in range(200):
        bits = rng.integers(0, 2, size=rng.integers(1, 120)).tolist()
        assert compute_crc15(bits) == crc15_shift_register(bits)


# ---------------------------------------------------------------- stuffing


def test_stuff_five_run():
    assert stuff_bits([1, 1, 1, 1, 1]) == [1, 1, 1, 1, 1, 0]


def test_stuff_no_run_is_identity():
    assert stuff_bits([1, 0, 1, 0, 1]) == [1, 0, 1, 0, 1]


def test_stuff_inserted_bit_seeds_next_run():
    bits = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
    out = stuff_bits(bits)
    assert out == [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 1]
    assert len(out) - len(bits) == count_stuff_insertions(bits) == 2


def test_stuff_count_matches_counter_oracle_on_random_input():
    rng = np.random.default_rng(5)
    for _ in range(300):
        bits = rng.integers(0, 2, size=rng.integers(1, 200)).tolist()
        assert len(stuff_bits(bits)) - len(bits) == count_stuff_insertions(bits)


def test_stuffing_length_bound():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 150))
        bits = rng.integers(0, 2, size=n).tolist()
        assert len(stuff_bits(bits)) <= n + n // 4
    # adversarial all-equal input
    for n in range(1, 120):
        assert len(stuff_bits([1] * n)) <= n + n // 4


# ---------------------------------------------------------------- serialization


def test_serialize_all_dominant_arbitration_field():
    frame = CanFrame(0x000, b"")
    assert frame_body_bits(frame)[:12] == [0] * 12
    # on the wire the fifth dominant bit is followed by a stuff bit
    assert serialize_frame(frame)[:6] == bytes([0, 0, 0, 0, 0, 1])


def test_standard_dlc8_wire_length_within_stuffing_bounds():
    rng = np.random.default_rng(23)
    lengths = []
    for _ in range(2000):
        frame = CanFrame(int(rng.integers(0, 1 << 11)), bytes(rng.integers(0, 256, 8).tolist()))
        lengths.append(len(serialize_frame(frame)))
    assert min(lengths) >= 108
    assert max(lengths) <= 127


@st.composite
def can_frames(draw):
    fmt = draw(st.sampled_from(FrameFormat))
    top = (1 << (29 if fmt is FrameFormat.EXTENDED else 11)) - 1
    frame_id = draw(st.one_of(st.sampled_from([0, top]), st.integers(0, top)))
    dlc = draw(st.integers(0, 8))
    payload = draw(
        st.one_of(st.just(b"\x00" * dlc), st.just(b"\xff" * dlc), st.binary(min_size=dlc, max_size=dlc))
    )
    return CanFrame(frame_id, payload, fmt)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(can_frames(), max_size=12))
def test_batch_encoder_equals_scalar_stuffing(frames):
    wires = serialize_frames(frames)
    assert all(type(w) is bytes for w in wires)
    assert wires == [serialize_scalar(f) for f in frames]


@pytest.mark.parametrize("fmt", list(FrameFormat))
@pytest.mark.parametrize("fill", [0x00, 0xFF])
def test_batch_encoder_on_maximal_stuffing_across_blocks(fmt, fill, monkeypatch):
    # all-equal fields stuff the most; a block of 3 splits the 8 frames unevenly
    top = (1 << (29 if fmt is FrameFormat.EXTENDED else 11)) - 1
    frames = [CanFrame(fid, bytes([fill]) * dlc, fmt) for fid in (0, top) for dlc in (0, 3, 7, 8)]
    monkeypatch.setattr(frames_module, "_ENCODE_BLOCK", 3)
    assert serialize_frames(frames) == [serialize_scalar(f) for f in frames]
    assert [serialize_frame(f) for f in frames] == [serialize_scalar(f) for f in frames]


def test_crc_term_table_matches_the_reference_crc():
    terms = frames_module._CRC_TERMS
    assert terms.size == frames_module._MAX_BODY_BITS
    assert [int(t) for t in terms] == [compute_crc15([1] + [0] * k) for k in range(terms.size)]


# ---------------------------------------------------------------- arbitration


def test_lower_id_wins_simultaneous_arbitration():
    f_hi = CanFrame(0x200, b"\x00")
    f_lo = CanFrame(0x100, b"\x00")
    order = arbitrate([(f_hi, 0.0), (f_lo, 0.0)], bitrate=125_000)
    assert [a.frame.frame_id for a in order] == [0x100, 0x200]
    assert order[0].start_time == 0.0
    # loser retries after the bus goes idle again
    assert order[1].start_time >= order[0].start_time + order[0].duration


def test_single_requester_transmits_immediately():
    frame = CanFrame(0x1FF, b"\xaa")
    order = arbitrate([(frame, 0.002)], bitrate=125_000)
    assert len(order) == 1
    assert order[0].start_time == 0.002


def test_duplicate_id_in_same_arbitration_raises():
    f1 = CanFrame(0x100, b"\x01")
    f2 = CanFrame(0x100, b"\x02")
    with pytest.raises(DuplicateId):
        arbitrate([(f1, 0.0), (f2, 0.0)], bitrate=125_000)


@pytest.mark.parametrize("seed", range(6))
def test_arbitration_matches_rescan_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 120))
    # 40 grid steps; the shorter spans hold fewer than n frame times, so the bus backs up
    reqs = random_requests(rng, n, np.arange(0x7FF), span_s=n * rng.uniform(3e-4, 2e-3))
    assert arbitrate(reqs, 125_000) == arbitrate_rescan(reqs, 125_000)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(0, 0x7FF), min_size=1, max_size=40, unique=True),
    st.lists(st.integers(0, 40), min_size=40, max_size=40),
)
def test_arbitration_start_times_never_decrease(ids, ticks):
    # requests on a coarse grid, in no particular order, so many contend and back up
    reqs = [(CanFrame(fid, b"\x00" * (fid % 9)), tick * 2e-4) for fid, tick in zip(ids, ticks)]
    order = arbitrate(reqs, 125_000)
    assert sorted(a.request_index for a in order) == list(range(len(reqs)))
    assert all(a.start_time <= b.start_time for a, b in zip(order, order[1:]))


@pytest.mark.parametrize("seed", range(12))
def test_arbitration_duplicate_id_behaviour_matches_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(10, 60))
    # a small ID pool: repeated IDs collide only when they contend together
    reqs = random_requests(rng, n, np.arange(n // 2), span_s=n * 2e-3)
    try:
        expected = arbitrate_rescan(reqs, 250_000)
    except DuplicateId:
        with pytest.raises(DuplicateId) as err:
            arbitrate(reqs, 250_000)
        dup = int(str(err.value).rsplit(" ", 1)[1], 16)
        assert sum(f.frame_id == dup for f, _ in reqs) >= 2
    else:
        assert arbitrate(reqs, 250_000) == expected


# ---------------------------------------------------------------- decoding


def test_decode_single_extended_frame_resolves_source_address():
    frame = ext_frame(11, b"\xde\xad")
    order = arbitrate([(frame, 0.0)], bitrate=125_000)
    trace = make_voltage(order, 125_000, 2_000_000)
    decoded = decode_transmissions(trace, 125_000, LOW_BYTE_MAP)
    assert len(decoded) == 1
    d = decoded[0]
    assert d.sa == 11
    assert d.crc_ok
    assert d.frame_id == frame.frame_id
    assert d.payload == frame.payload
    assert d.duration > 0


def test_decode_empty_trace_raises():
    trace = SampledTrace(np.zeros(0), 2_000_000)
    with pytest.raises(EmptyTrace):
        decode_transmissions(trace, 125_000, LOW_BYTE_MAP)


@pytest.mark.parametrize("bitrate", [0.0, -125_000.0, float("nan"), float("inf")])
def test_decode_rejects_a_bitrate_that_is_not_positive_and_finite(bitrate):
    trace = SampledTrace(np.zeros(100), 2_000_000)
    with pytest.raises(ValueError, match="bitrate must be a positive finite number"):
        decode_transmissions(trace, bitrate, LOW_BYTE_MAP)


@pytest.mark.parametrize("bitrate", [125_000, 250_000, 500_000])
@pytest.mark.parametrize("fmt", [FrameFormat.STANDARD, FrameFormat.EXTENDED])
def test_encoder_decoder_inverse(bitrate, fmt):
    rng = np.random.default_rng(bitrate + (1 if fmt is FrameFormat.EXTENDED else 0))
    limit = 1 << (29 if fmt is FrameFormat.EXTENDED else 11)
    frames = []
    seen = set()
    for _ in range(40):
        fid = int(rng.integers(0, limit))
        while fid in seen:
            fid = int(rng.integers(0, limit))
        seen.add(fid)
        dlc = int(rng.integers(0, 9))
        frames.append(CanFrame(fid, bytes(rng.integers(0, 256, dlc).tolist()), fmt))
    order = arbitrate([(f, 0.0) for f in frames], bitrate)
    trace = make_voltage(order, bitrate, 16 * bitrate)
    decoded = decode_transmissions(trace, bitrate, SourceAddressMap(owners={0: 0}))
    assert len(decoded) == len(frames)
    by_start = sorted(order, key=lambda a: a.start_time)
    for d, a in zip(decoded, by_start):
        assert d.crc_ok
        assert d.frame_id == a.frame.frame_id
        assert d.dlc == a.frame.dlc
        assert d.payload == a.frame.payload
        assert d.format == a.frame.format


def test_decoded_starts_monotonic_and_separated():
    rng = np.random.default_rng(77)
    frames = [ext_frame(s, bytes(rng.integers(0, 256, 8).tolist()), prefix=0x00F0 + s) for s in range(10)]
    order = arbitrate([(f, 0.0) for f in frames], 125_000)
    trace = make_voltage(order, 125_000, 2_000_000)
    decoded = decode_transmissions(trace, 125_000, LOW_BYTE_MAP)
    gap = INTERFRAME_BITS / 125_000
    for a, b in zip(decoded, decoded[1:]):
        assert b.t > a.t
        assert b.t >= a.t + a.duration + gap - 1e-9


def test_mid_frame_bit_flip_decodes_with_crc_failure():
    frame = ext_frame(3, b"\x55\x66\x77")
    wire = serialize_frame(frame)
    # flip a recessive data-region bit to dominant (1 -> 0), as a bus attacker could
    flip_at = next(i for i in range(40, 60) if wire[i] == 1)
    corrupted = bytearray(wire)
    corrupted[flip_at] = 0
    fake = ArbitratedFrame(0, frame, 0.0, bytes(corrupted), len(corrupted) / 125_000)
    trace = make_voltage([fake], 125_000, 2_000_000)
    decoded = decode_transmissions(trace, 125_000, LOW_BYTE_MAP)
    assert len(decoded) >= 1
    assert not any(d.crc_ok for d in decoded)


# ------------------------------------------------- decoder vs bitwise oracle


def random_frame(rng, fmt):
    limit = 1 << (29 if fmt is FrameFormat.EXTENDED else 11)
    payload = bytes(rng.integers(0, 256, int(rng.integers(0, 9))).tolist())
    return CanFrame(int(rng.integers(0, limit)), payload, fmt)


def wire_voltage(wires, bitrate, sample_rate, lead_bits=12, gap_bits=11):
    """One trace holding the given (possibly corrupted) wire images in turn."""
    order, t = [], lead_bits / bitrate
    frame = CanFrame(0, b"")
    for wire in wires:
        order.append(ArbitratedFrame(0, frame, t, bytes(wire), len(wire) / bitrate))
        t += (len(wire) + gap_bits) / bitrate
    return make_voltage(order, bitrate, sample_rate)


def assert_matches_oracle(trace, bitrate, samap=LOW_BYTE_MAP):
    decoded = decode_transmissions(trace, bitrate, samap)
    assert decoded == decode_bitwise(trace, bitrate, samap)
    return decoded


@pytest.mark.parametrize("bitrate", [125_000, 250_000, 500_000])
@pytest.mark.parametrize("fmt", [FrameFormat.STANDARD, FrameFormat.EXTENDED])
def test_decoder_matches_oracle_on_clean_traffic(bitrate, fmt):
    rng = np.random.default_rng(bitrate // 1000 + (fmt is FrameFormat.EXTENDED))
    frames = {f.frame_id: f for f in (random_frame(rng, fmt) for _ in range(30))}
    order = arbitrate([(f, float(rng.uniform(0, 2e-3))) for f in frames.values()], bitrate)
    # 12.5 samples per bit: mid-bit sample offsets truncate unevenly
    decoded = assert_matches_oracle(make_voltage(order, bitrate, 12.5 * bitrate), bitrate)
    assert len(decoded) == len(frames) and all(d.crc_ok for d in decoded)
    for d in decoded:
        assert type(d.frame_id) is int and type(d.dlc) is int
        assert type(d.t) is float and type(d.duration) is float and type(d.crc_ok) is bool


@pytest.mark.parametrize("fmt", [FrameFormat.STANDARD, FrameFormat.EXTENDED])
def test_decoder_matches_oracle_on_every_single_bit_flip(fmt):
    rng = np.random.default_rng(40 + (fmt is FrameFormat.EXTENDED))
    frame = CanFrame(random_frame(rng, fmt).frame_id, bytes(rng.integers(0, 256, 8).tolist()), fmt)
    wire = serialize_frame(frame)
    flipped = []
    for k in range(len(wire)):  # SOF, ID, control, data, CRC, trailer
        corrupted = bytearray(wire)
        corrupted[k] ^= 1
        flipped.append(corrupted)
    for chunk in range(0, len(flipped), 16):
        # each corrupted frame is followed by a clean one, so resynchronisation is checked too
        wires = [w for c in flipped[chunk : chunk + 16] for w in (c, wire)]
        assert_matches_oracle(wire_voltage(wires, 125_000, 2e6), 125_000)


@pytest.mark.parametrize("fmt", [FrameFormat.STANDARD, FrameFormat.EXTENDED])
def test_decoder_matches_oracle_on_trace_cut_inside_every_field(fmt):
    rng = np.random.default_rng(50 + (fmt is FrameFormat.EXTENDED))
    frame = CanFrame(random_frame(rng, fmt).frame_id, bytes(rng.integers(0, 256, 5).tolist()), fmt)
    wire = serialize_frame(frame)
    trace = wire_voltage([wire], 250_000, 3e6)
    s0 = int(np.argmax(trace.samples > DECODE_THRESHOLD_VOLTS))
    spb = 12.0
    last_mid_bit = s0 + int((len(wire) - 0.5) * spb)
    for k in range(len(wire)):
        for frac in (0.3, 0.9):  # before and after the mid-bit sample of bit k
            cut = s0 + int((k + frac) * spb)
            decoded = assert_matches_oracle(SampledTrace(trace.samples[:cut], 3e6), 250_000)
            assert any(d.crc_ok for d in decoded) == (cut > last_mid_bit)


def test_decoder_matches_oracle_when_first_sample_is_dominant():
    rng = np.random.default_rng(60)
    frames = [random_frame(rng, FrameFormat.EXTENDED) for _ in range(4)]
    trace = wire_voltage([serialize_frame(f) for f in frames], 125_000, 2e6, lead_bits=0)
    assert trace.samples[0] > DECODE_THRESHOLD_VOLTS
    assert assert_matches_oracle(trace, 125_000)[0].crc_ok
    # start the capture inside a frame, on a dominant sample
    dominant = np.flatnonzero(trace.samples > DECODE_THRESHOLD_VOLTS)
    for first in dominant[[5, 40, 300, 700]]:
        assert_matches_oracle(SampledTrace(trace.samples[first:], 2e6), 125_000)


@pytest.mark.parametrize("block", [1, 7, 160])
def test_decoder_matches_oracle_when_edges_straddle_threshold_blocks(block, monkeypatch):
    monkeypatch.setattr(frames_module, "_EDGE_BLOCK", block)
    rng = np.random.default_rng(70)
    frames = [random_frame(rng, FrameFormat.EXTENDED) for _ in range(4)]
    trace = wire_voltage([serialize_frame(f) for f in frames], 125_000, 2e6, lead_bits=0)
    assert all(d.crc_ok for d in assert_matches_oracle(trace, 125_000))


def test_float16_threshold_agrees_with_the_comparison_on_every_bit_pattern():
    samples = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16).view(np.float16)
    with np.errstate(invalid="ignore"):
        want = samples > DECODE_THRESHOLD_VOLTS  # numpy's own float16 comparison
    got = frames_module._dominant(samples)
    assert got.dtype == bool and np.array_equal(got, want)
    assert np.array_equal(frames_module._dominant(samples.astype(np.float32)), want)


def test_float16_trace_decodes_as_its_float32_widening():
    # noisy traffic with a NaN and an inf inside frames and between them
    rng = np.random.default_rng(72)
    wires = [bytearray(serialize_frame(random_frame(rng, FrameFormat.EXTENDED))) for _ in range(8)]
    clean = wire_voltage(wires, 125_000, 2e6)
    noisy = clean.samples + rng.normal(0.0, 0.3, clean.samples.size)
    half = noisy.astype(np.float16)
    half[rng.integers(0, half.size, 6)] = [np.nan, -np.nan, np.inf, -np.inf, np.nan, 1.0]
    decoded = decode_transmissions(SampledTrace(half, 2e6), 125_000, LOW_BYTE_MAP)
    widened = SampledTrace(half.astype(np.float32), 2e6)
    assert decoded == decode_transmissions(widened, 125_000, LOW_BYTE_MAP)
    assert decoded == decode_bitwise(widened, 125_000, LOW_BYTE_MAP)
    assert sum(d.crc_ok for d in decoded) >= 4


@pytest.mark.parametrize("block", [1, 3, 1024])
def test_decoder_matches_oracle_whatever_frames_are_parsed_together(block, monkeypatch):
    monkeypatch.setattr(frames_module, "_PARSE_BLOCK", block)
    rng = np.random.default_rng(71)
    wires = [bytearray(serialize_frame(random_frame(rng, FrameFormat.EXTENDED))) for _ in range(8)]
    wires[2][40] ^= 1  # a CRC failure inside a block, and its resynchronisation
    trace = wire_voltage(wires, 125_000, 2e6)
    decoded = assert_matches_oracle(trace, 125_000)
    assert [d.crc_ok for d in decoded] == [k != 2 for k in range(8)]


@pytest.mark.parametrize("wrong_bitrate", [100_000, 150_000, 200_000])
def test_decoder_matches_oracle_at_the_wrong_bitrate(wrong_bitrate):
    rng = np.random.default_rng(wrong_bitrate)
    frames = {f.frame_id: f for f in (random_frame(rng, FrameFormat.EXTENDED) for _ in range(20))}
    order = arbitrate([(f, float(rng.uniform(0, 5e-3))) for f in frames.values()], 125_000)
    assert_matches_oracle(make_voltage(order, 125_000, 2e6), wrong_bitrate)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    extended=st.booleans(),
    frame_id=st.integers(0, (1 << 29) - 1),
    payload=st.binary(max_size=8),
    bitrate=st.sampled_from([125_000, 250_000, 500_000]),
    samples_per_bit=st.sampled_from([10.0, 12.5, 16.0, 20.3]),
    flips=st.lists(st.integers(0, 200), max_size=4),
    keep=st.floats(0.0, 1.0),
)
def test_decoder_property_never_raises_and_matches_oracle(
    extended, frame_id, payload, bitrate, samples_per_bit, flips, keep
):
    fmt = FrameFormat.EXTENDED if extended else FrameFormat.STANDARD
    frame = CanFrame(frame_id if extended else frame_id & 0x7FF, payload, fmt)
    wire = serialize_frame(frame)
    corrupted = bytearray(wire)
    for k in flips:
        corrupted[k % len(wire)] ^= 1
    trace = wire_voltage([corrupted, wire], bitrate, samples_per_bit * bitrate)
    cut = max(1, int(keep * trace.samples.size))
    assert_matches_oracle(SampledTrace(trace.samples[:cut], trace.sample_rate), bitrate)
