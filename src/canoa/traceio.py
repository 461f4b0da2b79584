"""Persistent file formats: sampled traces, ground truth, model bundles.

Trace files ("CTRC", version 2) store channel-major 16-bit little-endian
floats behind a fixed 29-byte header; version 1, whose body was float32,
is rejected by version. A bundle ("CBND") is one sorted-key JSON document
between a magic-and-version header and a CRC-32 footer; version 6 holds
the shared pipeline parameters, the ``owners`` table (SA -> ECU) and one
model per ECU of the table, in ECU order: its normalization, biases,
calibrations and ``weights``, a nested list with one row per spectrum bin
of the 5-smooth segment length and one column per SA the ECU owns, in
ascending order (a float's ``repr`` round-trips float64 exactly).
Sample data goes to the binary format because multi-megasample traces
are large; CSV is reserved for logs and reports.
"""

from __future__ import annotations

import csv
import json
import os
import struct
import zlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .authenticate import EcuModel, ModelBundle, Verdict, softmax
from .bus import FLOAT16_MAX, AttackKind, GroundTruthEntry, GroundTruthLog
from .errors import FileFormatError
from .features import NormStats, Tau, TukeyParams
from .frames import SourceAddressMap

TRACE_MAGIC = b"CTRC"
TRACE_VERSION = 2
_TRACE_HEADER = struct.Struct("<4sHBHIQQ")
_FLOAT16_MAX_BITS = int(np.float16(FLOAT16_MAX).view(np.uint16))

BUNDLE_MAGIC = b"CBND"
BUNDLE_FOOTER = b"CEND"
BUNDLE_VERSION = 6

GROUND_TRUTH_HEADER = ["t_sec", "frame_id", "claimed_sa", "true_source", "attack_kind"]
ADDED_MODULE_SOURCE = "added_module"


class TraceKind(Enum):
    VOLTAGE = 0
    POWER = 1


def _header_int(name: str, value: float, low: int, high: int, scale: float = 1.0) -> int:
    """``round(value * scale)`` as a trace header field that holds ``low`` .. ``high - 1``."""
    try:
        field = int(round(value * scale))
    except (OverflowError, ValueError):  # inf, NaN
        field = low - 1
    if not low <= field < high:
        raise ValueError(f"{name} {value!r} is out of range for the trace header")
    return field


def _refuse_samples_beyond_float16(given: np.ndarray, data: np.ndarray) -> None:
    """Raise ValueError when a finite sample of ``given`` lies beyond float16's
    range, which its rounding ``data`` would hold as +-65504 or +-inf."""
    edge = (data.view("<u2") & 0x7FFF) >= _FLOAT16_MAX_BITS  # |x| is 65504, inf or NaN
    if edge.any():
        suspects = given.reshape(data.shape)[edge]
        beyond = suspects[np.isfinite(suspects) & (np.abs(suspects) > FLOAT16_MAX)]
        if beyond.size:
            raise ValueError(
                f"sample {beyond[0]!r} is beyond +-{FLOAT16_MAX:g}, the float16 range of a trace"
            )


def write_trace_file(path: Path | str, samples, kind: TraceKind, sample_rate: float,
                     start_time: float = 0.0) -> None:
    """Write one or more channels of samples as a CTRC file.

    ``samples`` is a 1-D array (one channel) or a 2-D channel-major array.
    Each sample is stored as its nearest float16, so a stored level ``L``
    is within ``|L| * 2**-11`` of the given one (for ``|L|`` from 2**-14 up).
    The body is written from the array's own buffer, which is copied only
    when it is not already contiguous little-endian float16. Raises
    ValueError for a finite sample beyond float16's +-65504, or when the
    channel count, the sample rate (rounded to Hz) or the start time
    (rounded to ns) does not fit the header.
    """
    given = np.asarray(samples)
    with np.errstate(over="ignore"):  # a finite sample rounded to inf is refused below
        data = np.ascontiguousarray(given, dtype="<f2")
    if given.dtype != data.dtype:
        _refuse_samples_beyond_float16(given, data)
    if data.ndim == 1:
        data = data[None, :]
    channels, per_channel = data.shape
    header = _TRACE_HEADER.pack(
        TRACE_MAGIC,
        TRACE_VERSION,
        kind.value,
        _header_int("channel count", channels, 0, 1 << 16),
        _header_int("sample_rate", sample_rate, 1, 1 << 32),
        per_channel,
        _header_int("start_time", start_time, 0, 1 << 64, scale=1e9),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.data)


@dataclass(frozen=True)
class TraceFileContents:
    kind: TraceKind
    sample_rate: float
    start_time: float
    samples: np.ndarray  # channel-major, read-only float16 (little-endian)


def read_trace_file(path: Path | str) -> TraceFileContents:
    """Read a CTRC file; ``samples`` is a read-only (channels, samples) float16 array.

    The samples are returned as stored, without widening them. A file of
    another version (version 1 held float32) is a FileFormatError naming it.
    """
    with open(path, "rb") as fh:
        header = fh.read(_TRACE_HEADER.size)
        if len(header) < _TRACE_HEADER.size:
            raise FileFormatError(f"{path}: shorter than a trace header")
        magic, version, kind, channels, rate, per_channel, start_ns = _TRACE_HEADER.unpack(header)
        if magic != TRACE_MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}")
        if version != TRACE_VERSION:
            raise FileFormatError(
                f"{path}: unsupported trace version {version} (this reader takes version "
                f"{TRACE_VERSION}, float16 samples)"
            )
        try:
            kind = TraceKind(kind)
        except ValueError:
            raise FileFormatError(f"{path}: unknown trace kind {kind}") from None
        body = os.fstat(fh.fileno()).st_size - _TRACE_HEADER.size
        count = channels * per_channel
        if body != count * 2:
            raise FileFormatError(f"{path}: body is {body} bytes, expected {count * 2}")
        # fromfile reads straight into the array; a memory map would see later
        # in-place rewrites of the file (or fault after it is truncated)
        data = np.fromfile(fh, dtype="<f2", count=count)
    if data.size != count:
        raise FileFormatError(f"{path}: body is {data.size * 2} bytes, expected {count * 2}")
    data = data.reshape(channels, per_channel)
    data.flags.writeable = False
    return TraceFileContents(
        kind=kind,
        sample_rate=float(rate),
        start_time=start_ns / 1e9,
        samples=data,
    )


# ------------------------------------------------------------- ground truth


def write_ground_truth(path: Path | str, log: GroundTruthLog) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GROUND_TRUTH_HEADER)
        for e in log.entries:
            source = ADDED_MODULE_SOURCE if e.true_source is None else e.true_source
            writer.writerow([repr(e.t), e.frame_id, e.claimed_sa, source, e.kind.value])


def read_ground_truth(path: Path | str) -> GroundTruthLog:
    entries = []
    with open(path, "rb") as fh:
        # decoding one line at a time places a byte that is not UTF-8 on its line
        reader = csv.reader(line.decode() for line in fh)
        try:
            header = next(reader, None)
            if header != GROUND_TRUTH_HEADER:
                raise FileFormatError(f"{path}: unexpected ground-truth header {header}")
            last_t = -np.inf
            for row in reader:
                where = f"{path}: line {reader.line_num}"
                if len(row) != len(GROUND_TRUTH_HEADER):
                    raise FileFormatError(
                        f"{where}: {len(row)} fields, expected {len(GROUND_TRUTH_HEADER)}"
                    )
                try:
                    t = float(row[0])
                    source = None if row[3] == ADDED_MODULE_SOURCE else int(row[3])
                    entry = GroundTruthEntry(
                        t=t,
                        frame_id=int(row[1]),
                        claimed_sa=int(row[2]),
                        true_source=source,
                        kind=AttackKind(row[4]),
                    )
                except ValueError as exc:
                    raise FileFormatError(f"{where}: {exc}") from None
                if not t > last_t:
                    raise FileFormatError(f"{where}: t_sec not strictly increasing at {t}")
                last_t = t
                entries.append(entry)
        except UnicodeDecodeError as exc:  # raised before the reader counts the line
            raise FileFormatError(
                f"{path}: line {reader.line_num + 1}: not UTF-8 text ({exc.reason})"
            ) from None
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise FileFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    return GroundTruthLog(tuple(entries))


# ------------------------------------------------------------------ verdicts


def write_verdicts(
    path: Path | str, verdicts: Sequence[Verdict], sas: Sequence[int], delta: float
) -> None:
    """Verdict stream as CSV, one row per authenticated transmission.

    The softmax columns, the runner-up (the highest-scoring SA other than
    the winner) and the margin (the winner's ``p_tx`` minus ``delta``) come
    from one pass over the matrix of every row's ``p_tx``.
    """
    p = np.array([[v.p_tx[sa] for sa in sas] for v in verdicts]).reshape(len(verdicts), len(sas))
    winner = np.searchsorted(sas, [v.attributed_sa for v in verdicts])
    margin = p[np.arange(len(verdicts)), winner] - delta
    others = np.where(np.arange(len(sas)) == winner[:, None], -np.inf, p)
    runner_up = [sas[j] if len(sas) > 1 else "" for j in others.argmax(axis=1).tolist()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [
            "t_sec",
            "claimed_sa",
            "attributed_sa",
            "decision",
            "true_source_ecu",
            "true_source_sa",
            "flagged_ecu",
            "tie",
            "runner_up_sa",
            "margin",
            "multiple_positive",
        ]
        header += [f"p_tx_{sa}" for sa in sas] + [f"softmax_{sa}" for sa in sas]
        writer.writerow(header)
        for v, second, m, soft in zip(verdicts, runner_up, margin.tolist(), softmax(p).tolist()):
            src_ecu, src_sa = v.true_source or ("", "")
            row = [
                repr(v.t),
                "" if v.claimed_sa is None else v.claimed_sa,
                v.attributed_sa,
                v.decision.value,
                src_ecu,
                src_sa,
                "" if v.flagged_compromised is None else v.flagged_compromised,
                int(v.tie),
                second,
                repr(m),
                ";".join(map(str, v.multiple_positive)),
            ]
            row += [repr(v.p_tx[sa]) for sa in sas] + [repr(x) for x in soft]
            writer.writerow(row)


# ------------------------------------------------------------------- bundles


def save_bundle(path: Path | str, bundle: ModelBundle) -> None:
    doc = {
        "delta": bundle.delta,
        "tau": bundle.tau.value,
        "tukey_alpha": bundle.window.alpha,
        "sample_rate": bundle.sample_rate,
        "owners": {str(sa): ecu for sa, ecu in bundle.samap.owners.items()},
        "ecus": [
            {
                "norm_mean": e.stats.mean,
                "norm_std": e.stats.std,
                "weights": e.weights.tolist(),
                "bias": e.bias.tolist(),
                "calibration": e.calibration.tolist(),
            }
            for e in bundle.ecus
        ],
    }
    header = BUNDLE_MAGIC + struct.pack("<H", BUNDLE_VERSION)
    blob = header + json.dumps(doc, sort_keys=True).encode()
    footer = BUNDLE_FOOTER + struct.pack("<I", zlib.crc32(blob))
    Path(path).write_bytes(blob + footer)


def load_bundle(path: Path | str) -> ModelBundle:
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[-8:-4] != BUNDLE_FOOTER:
        raise FileFormatError(f"{path}: missing bundle footer")
    blob, (stored_crc,) = raw[:-8], struct.unpack("<I", raw[-4:])
    if zlib.crc32(blob) != stored_crc:
        raise FileFormatError(f"{path}: checksum mismatch")
    if len(blob) < 6 or blob[:4] != BUNDLE_MAGIC:
        raise FileFormatError(f"{path}: not a bundle file")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != BUNDLE_VERSION:
        raise FileFormatError(f"{path}: unsupported bundle version {version}")
    # A checksum only proves the bytes are the ones written; a bundle written
    # by another tool (or edited and re-checksummed) can still lack keys or
    # hold values of the wrong type, which must not escape as KeyError.
    try:
        doc = json.loads(blob[6:].decode())
        samap = SourceAddressMap({int(sa): ecu for sa, ecu in doc["owners"].items()})
        ecus = tuple(
            EcuModel(
                stats=NormStats(mean=em["norm_mean"], std=em["norm_std"]),
                weights=np.asarray(em["weights"], dtype=np.float64),
                bias=np.asarray(em["bias"], dtype=np.float64),
                calibration=np.asarray(em["calibration"], dtype=np.float64),
            )
            for em in doc["ecus"]
        )
        return ModelBundle(
            ecus=ecus,
            samap=samap,
            tau=Tau(doc["tau"]),
            window=TukeyParams(doc["tukey_alpha"]),
            sample_rate=doc["sample_rate"],
            delta=doc["delta"],
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{path}: malformed bundle: {exc!r}") from exc
