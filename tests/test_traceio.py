"""File-format tests: trace files, ground truth CSV, bundle round trips."""

import csv
import json
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canoa.bus import AttackKind, GroundTruthEntry, GroundTruthLog, truck_scenario, simulate
from canoa.errors import FileFormatError
from canoa.features import ecu_spectra
from canoa.frames import decode_transmissions
from canoa.svm import TrainConfig, platt_proba
from canoa.traceio import (
    BUNDLE_FOOTER,
    TraceKind,
    load_bundle,
    read_ground_truth,
    read_trace_file,
    save_bundle,
    write_ground_truth,
    write_trace_file,
    write_verdicts,
)
from canoa.authenticate import Decision, ModelBundle, Verdict, authenticate_all, score, softmax
from canoa.workflow import PipelineConfig, build_bundle, usable_transmissions


def test_trace_file_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    samples = rng.normal(size=5000).astype(np.float16)
    path = tmp_path / "x.ctrc"
    write_trace_file(path, samples, TraceKind.POWER, 2e6, start_time=0.25)
    back = read_trace_file(path)
    assert back.kind is TraceKind.POWER
    assert back.sample_rate == 2e6
    assert back.start_time == 0.25
    assert back.samples.shape == (1, 5000)
    assert back.samples.dtype == np.float16
    assert np.array_equal(back.samples[0].view(np.uint16), samples.view(np.uint16))
    assert not back.samples.flags.writeable


def test_trace_file_multichannel(tmp_path):
    data = np.arange(12, dtype=np.float32).reshape(3, 4)
    path = tmp_path / "m.ctrc"
    write_trace_file(path, data, TraceKind.VOLTAGE, 1e6)
    back = read_trace_file(path)
    assert back.samples.shape == (3, 4)
    assert np.array_equal(back.samples, data)


def test_trace_file_body_is_the_little_endian_float16_array(tmp_path):
    base = np.random.default_rng(4).normal(size=(2, 9))
    read_only = base[0].astype(np.float16)
    read_only.flags.writeable = False
    strided = base[:, ::2]  # float64, not contiguous: stored as each sample's nearest float16
    for samples in (read_only, strided):
        path = tmp_path / "b.ctrc"
        write_trace_file(path, samples, TraceKind.POWER, 2e6, start_time=0.5)
        rows = np.atleast_2d(samples)
        header = struct.pack(
            "<4sHBHIQQ", b"CTRC", 2, 1, rows.shape[0], 2_000_000, rows.shape[1], 500_000_000
        )
        body = b"".join(struct.pack("<e", x) for x in rows.ravel())
        assert path.read_bytes() == header + body
        assert len(header) == 29


def test_written_level_is_within_its_float16_rounding(tmp_path):
    levels = np.concatenate([np.geomspace(2.0**-14, 65504.0, 2001), -np.geomspace(1e-3, 6e4, 7)])
    path = tmp_path / "r.ctrc"
    write_trace_file(path, levels, TraceKind.POWER, 1e6)
    stored = read_trace_file(path).samples[0].astype(np.float64)
    assert np.all(np.abs(stored - levels) <= np.abs(levels) * 2.0**-11)


@pytest.mark.parametrize(
    "samples, sample_rate, start_time, field",
    [
        (np.zeros(4), 1e6, -1.0, "start_time"),
        (np.zeros(4), 1e6, float("nan"), "start_time"),
        (np.zeros(4), 0.4, 0.0, "sample_rate"),
        (np.zeros(4), 2.0**32, 0.0, "sample_rate"),
        (np.zeros((1 << 16, 0)), 1e6, 0.0, "channel count"),
    ],
    ids=["negative_start_time", "nan_start_time", "rate_rounds_to_zero", "rate_2_pow_32",
         "65536_channels"],
)
def test_trace_header_value_out_of_range_is_a_value_error_naming_it(
    tmp_path, samples, sample_rate, start_time, field
):
    with pytest.raises(ValueError, match=f"^{field} "):
        write_trace_file(tmp_path / "h.ctrc", samples, TraceKind.VOLTAGE, sample_rate, start_time)


def test_trace_header_holds_its_largest_values(tmp_path):
    path = tmp_path / "h.ctrc"
    write_trace_file(path, np.zeros((65_535, 0)), TraceKind.VOLTAGE, 2.0**32 - 1, 0.0)
    back = read_trace_file(path)
    assert back.samples.shape == (65_535, 0)
    assert back.sample_rate == 2.0**32 - 1


def test_trace_file_rejects_corruption(tmp_path):
    path = tmp_path / "c.ctrc"
    write_trace_file(path, np.zeros(16, dtype=np.float32), TraceKind.VOLTAGE, 1e6)
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError):
        read_trace_file(path)
    # truncated body
    path2 = tmp_path / "t.ctrc"
    write_trace_file(path2, np.zeros(16, dtype=np.float32), TraceKind.VOLTAGE, 1e6)
    path2.write_bytes(path2.read_bytes()[:-2])
    with pytest.raises(FileFormatError):
        read_trace_file(path2)


def test_trace_file_with_unknown_kind_is_a_format_error(tmp_path):
    path = tmp_path / "k.ctrc"
    write_trace_file(path, np.zeros(16, dtype=np.float32), TraceKind.POWER, 1e6)
    raw = bytearray(path.read_bytes())
    raw[6] = 9  # kind byte, after the magic and the version
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="kind 9"):
        read_trace_file(path)


def _trace_shapes():
    return st.tuples(st.integers(0, 4), st.integers(0, 24))


def _float16_patterns(data, shape):
    """Arbitrary float16 bit patterns (NaN payloads, infinities, subnormals, -0.0 among them)."""
    bits = data.draw(st.lists(st.integers(0, 0xFFFF), min_size=shape[0] * shape[1],
                              max_size=shape[0] * shape[1]))
    return np.array(bits, dtype=np.uint16).view(np.float16).reshape(shape)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(shape=_trace_shapes(), rate=st.integers(1, 2**32 - 1), data=st.data())
def test_any_float16_bit_pattern_round_trips_bit_exactly(tmp_path_factory, shape, rate, data):
    samples = _float16_patterns(data, shape)
    given_samples = samples[0] if shape[0] == 1 and data.draw(st.booleans()) else samples
    path = tmp_path_factory.mktemp("ctrc") / "p.ctrc"
    write_trace_file(path, given_samples, TraceKind.VOLTAGE, rate)
    assert path.stat().st_size == 29 + 2 * shape[0] * shape[1]
    back = read_trace_file(path)
    assert back.samples.dtype == np.float16 and back.samples.shape == shape
    assert np.array_equal(back.samples.view(np.uint16), samples.view(np.uint16))
    assert back.sample_rate == rate


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(shape=_trace_shapes(), data=st.data())
def test_every_truncation_of_a_trace_file_is_a_format_error(tmp_path_factory, shape, data):
    path = tmp_path_factory.mktemp("ctrc") / "t.ctrc"
    write_trace_file(path, _float16_patterns(data, shape), TraceKind.POWER, 1e6)
    whole = path.read_bytes()
    for size in range(len(whole)):
        path.write_bytes(whole[:size])
        with pytest.raises(FileFormatError):
            read_trace_file(path)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(version=st.integers(0, 0xFFFF).filter(lambda v: v != 2))
def test_every_other_trace_version_is_a_format_error_naming_it(tmp_path_factory, version):
    path = tmp_path_factory.mktemp("ctrc") / "v.ctrc"
    write_trace_file(path, np.zeros(6, dtype=np.float16), TraceKind.POWER, 1e6)
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", version)
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match=f"unsupported trace version {version} "):
        read_trace_file(path)


def test_version_1_trace_with_its_float32_body_is_a_format_error(tmp_path):
    path = tmp_path / "v1.ctrc"
    header = struct.pack("<4sHBHIQQ", b"CTRC", 1, 1, 1, 1_000_000, 3, 0)
    path.write_bytes(header + np.ones(3, dtype="<f4").tobytes())
    with pytest.raises(FileFormatError, match="unsupported trace version 1 "):
        read_trace_file(path)


def _beyond_float16(width):
    return st.floats(min_value=65504.0, exclude_min=True, allow_infinity=False, width=width)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    value=st.one_of(_beyond_float16(32).map(np.float32), _beyond_float16(64).map(np.float64)),
    negative=st.booleans(),
    size=st.integers(1, 12),
    data=st.data(),
)
def test_finite_sample_beyond_float16_range_is_a_value_error(
    tmp_path_factory, value, negative, size, data
):
    samples = np.zeros(size, dtype=value.dtype)
    samples[data.draw(st.integers(0, size - 1))] = -value if negative else value
    path = tmp_path_factory.mktemp("ctrc") / "o.ctrc"
    with pytest.raises(ValueError, match="beyond"):
        write_trace_file(path, samples, TraceKind.POWER, 1e6)
    assert not path.exists()


def test_float16_extremes_and_non_finite_samples_are_stored_as_given(tmp_path):
    samples = np.array([65504.0, -65504.0, 65503.9, np.inf, -np.inf, np.nan], dtype=np.float64)
    path = tmp_path / "e.ctrc"
    write_trace_file(path, samples, TraceKind.POWER, 1e6)
    back = read_trace_file(path).samples[0]
    assert back[:3].tolist() == [65504.0, -65504.0, 65504.0]
    assert back[3] == np.inf and back[4] == -np.inf and np.isnan(back[5])


def test_ground_truth_round_trip(tmp_path):
    log = GroundTruthLog(
        (
            GroundTruthEntry(0.001234567890123, 0xF001, 1, 0, AttackKind.NORMAL),
            GroundTruthEntry(0.0034, 0xD505, 5, None, AttackKind.ADDED_MODULE),
            GroundTruthEntry(0.01, 0x2, 2, 3, AttackKind.COMPROMISED_ECU),
        )
    )
    path = tmp_path / "gt.csv"
    write_ground_truth(path, log)
    back = read_ground_truth(path)
    assert len(back) == 3
    for a, b in zip(log.entries, back.entries):
        assert a.t == b.t  # repr round-trips floats exactly
        assert a.frame_id == b.frame_id
        assert a.claimed_sa == b.claimed_sa
        assert a.true_source == b.true_source
        assert a.kind == b.kind


def test_ground_truth_rejects_non_increasing_t(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "t_sec,frame_id,claimed_sa,true_source,attack_kind\n"
        "0.5,1,1,0,normal\n"
        "0.4,2,2,0,normal\n"
    )
    with pytest.raises(FileFormatError):
        read_ground_truth(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.6,3,3", "3 fields, expected 5"),  # a truncated last row
        ("0.6,3,3,0,normal,", "6 fields, expected 5"),
        ("0.6,0x3,3,0,normal", "invalid literal for int() with base 10: '0x3'"),
        ("0.6e,3,3,0,normal", "could not convert string to float: '0.6e'"),
        ("0.6,3,3,0,spoofed", "'spoofed' is not a valid AttackKind"),
        ("0.6,3,3,0,hijack_transmission", "'hijack_transmission' is not a valid AttackKind"),
        ("nan,3,3,0,normal", "t_sec not strictly increasing at nan"),
        pytest.param(
            "0.6," + "9" * 131_073 + ",3,0,normal",
            f"field larger than field limit ({csv.field_size_limit()})",
            id="field_over_the_csv_limit",
        ),
        # surrogateescape writes the lone surrogate as the byte 0xff
        pytest.param("0.6,3,3,0,norm\udcffal", "not UTF-8 text (invalid start byte)", id="not_utf8"),
    ],
)
def test_malformed_ground_truth_row_is_a_format_error_naming_its_line(tmp_path, row, message):
    path = tmp_path / "gt.csv"
    text = "t_sec,frame_id,claimed_sa,true_source,attack_kind\n0.5,1,1,0,normal\n" + row
    path.write_bytes(text.encode(errors="surrogateescape"))
    with pytest.raises(FileFormatError, match=re.escape(f"{path}: line 3: {message}")):
        read_ground_truth(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    sc = truck_scenario(frames_per_sa=150, sample_rate=3e6, seed=61)
    voltage, powers, truth = simulate(sc)
    samap = sc.source_map()
    decoded = decode_transmissions(voltage, sc.bus.bitrate, samap)
    power_map = {e.index: p for e, p in zip(sc.ecus, powers)}
    result = build_bundle(
        power_map, decoded, samap, PipelineConfig(calib_len=40_000), TrainConfig(seed=6)
    )
    return sc, power_map, decoded, result


def test_bundle_round_trip_preserves_verdicts(trained, tmp_path):
    sc, power_map, decoded, result = trained
    path = tmp_path / "b.cbnd"
    save_bundle(path, result.bundle)
    loaded = load_bundle(path)
    assert loaded.delta == result.bundle.delta
    assert loaded.tau.value == result.bundle.tau.value
    assert loaded.samap.owners == result.bundle.samap.owners
    assert loaded.sample_rate == result.bundle.sample_rate == 3e6
    usable = usable_transmissions(decoded, power_map, result.bundle.tau)[:200]
    before = authenticate_all(usable, power_map, result.bundle)
    after = authenticate_all(usable, power_map, loaded)
    for a, b in zip(before, after):
        assert a.decision == b.decision
        assert a.attributed_sa == b.attributed_sa
        assert a.p_tx == b.p_tx  # float64 payloads are stored exactly
        assert softmax(list(a.p_tx.values())).tolist() == softmax(list(b.p_tx.values())).tolist()


def test_bundle_checksum_validates(trained, tmp_path):
    sc, power_map, decoded, result = trained
    path = tmp_path / "b.cbnd"
    save_bundle(path, result.bundle)
    raw = bytearray(path.read_bytes())
    raw[100] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError):
        load_bundle(path)


def rechecksummed(blob):
    """Bundle bytes with a valid footer, so only their structure is at fault."""
    return blob + BUNDLE_FOOTER + struct.pack("<I", zlib.crc32(blob))


def document(doc):
    """A bundle document encoded as ``save_bundle`` encodes it."""
    return json.dumps(doc, sort_keys=True).encode()


def edit(change):
    """A fault that changes the bundle document in place, then encodes it."""

    def fault(doc):
        change(doc)
        return document(doc)

    return fault


def _set(*path, value):
    """A fault that sets ``doc["ecus"][0]`` at ``path`` to ``value``."""

    def change(doc):
        node = doc["ecus"][0]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return edit(change)


def _add_weight_row(doc):
    # one row too many: a whole number of columns, but not one row per spectrum bin
    model = doc["ecus"][0]
    model["weights"].append([0.0] * len(model["weights"][0]))


# each fault maps the saved document to the bytes written after the version
BUNDLE_FAULTS = {
    "missing_meta": lambda doc: b"",  # no document at all
    "missing_owners": edit(lambda doc: doc.pop("owners")),
    "missing_weights": edit(lambda doc: doc["ecus"][0].pop("weights")),
    # the weights no longer have one row per spectrum bin at this rate
    "sample_rate_weights_mismatch": edit(lambda doc: doc.update(sample_rate=4.5e6)),
    "weights_one_short": edit(lambda doc: doc["ecus"][0]["weights"][-1].pop()),
    "zero_sample_rate": edit(lambda doc: doc.update(sample_rate=0)),
    "missing_sample_rate": edit(lambda doc: doc.pop("sample_rate")),
    # the owner table has two ECUs, and each needs exactly one entry
    "one_ecu_entry_too_many": edit(lambda doc: doc["ecus"].append(doc["ecus"][-1])),
    "one_ecu_entry_too_few": edit(lambda doc: doc["ecus"].pop()),
    "weights_wrong_shape": edit(_add_weight_row),
    # json writes and reads NaN and Infinity, so a re-checksummed bundle can hold them
    "nan_norm_mean": _set("norm_mean", value=float("nan")),
    "infinite_norm_mean": _set("norm_mean", value=float("-inf")),
    "nan_norm_std": _set("norm_std", value=float("nan")),
    "infinite_norm_std": _set("norm_std", value=float("inf")),
    "nan_weight": _set("weights", 0, 0, value=float("nan")),
    "infinite_bias": _set("bias", 0, value=float("inf")),
    "nan_calibration": _set("calibration", 0, 1, value=float("nan")),
    "bytes_after_the_document": lambda doc: document(doc) + b" {}",
    "document_cut_short": lambda doc: document(doc)[:-1],
}


@pytest.mark.parametrize("fault", sorted(BUNDLE_FAULTS))
def test_structurally_malformed_bundle_is_a_format_error(trained, tmp_path, fault):
    sc, power_map, decoded, result = trained
    path = tmp_path / "b.cbnd"
    save_bundle(path, result.bundle)
    raw = path.read_bytes()
    path.write_bytes(rechecksummed(raw[:6] + BUNDLE_FAULTS[fault](json.loads(raw[6:-8]))))
    with pytest.raises(FileFormatError):
        load_bundle(path)


def test_v6_bundle_states_ownership_once_and_holds_one_weight_matrix_per_ecu(trained, tmp_path):
    sc, power_map, decoded, result = trained
    path = tmp_path / "b.cbnd"
    save_bundle(path, result.bundle)
    raw = path.read_bytes()
    assert raw[:4] == b"CBND" and struct.unpack_from("<H", raw, 4) == (6,)
    assert rechecksummed(raw[:-8]) == raw
    doc = json.loads(raw[6:-8])
    assert raw[6:-8] == document(doc)  # one sorted-key document, nothing after it
    # the owner table is the one statement of who owns which SA: an entry
    # names neither its ECU nor its SAs
    assert sorted(doc) == ["delta", "ecus", "owners", "sample_rate", "tau", "tukey_alpha"]
    assert doc["sample_rate"] == 3e6
    # truck: ECU 0 owns SAs 0 and 15, ECU 1 owns SA 11; entries go in ECU order
    assert doc["owners"] == {"0": 0, "11": 1, "15": 0}
    assert len(doc["ecus"]) == 2
    # each ECU's normalization is stored once; no training records and no PCA basis
    entry_keys = ["bias", "calibration", "norm_mean", "norm_std", "weights"]
    assert all(sorted(m) == entry_keys for m in doc["ecus"])
    n_bins = result.bundle.tau.sample_count(3e6) // 2 + 1
    assert np.shape(doc["ecus"][0]["weights"]) == (n_bins, 2)
    assert np.shape(doc["ecus"][1]["weights"]) == (n_bins, 1)
    column = result.bundle.samap.sas.index(15)
    weights = np.array(doc["ecus"][0]["weights"])
    loaded = load_bundle(path)
    np.testing.assert_array_equal(loaded.ecus[0].weights, weights)
    np.testing.assert_array_equal(loaded.ecus[0].weights, result.bundle.ecus[0].weights)
    usable = usable_transmissions(decoded, power_map, result.bundle.tau)[:20]
    p = score(usable, power_map, loaded)
    spectra = ecu_spectra(power_map[0], loaded.ecus[0].stats, usable, loaded.tau, loaded.window)
    a, b = loaded.ecus[0].calibration[1]
    margins = spectra @ weights[:, 1] + loaded.ecus[0].bias[1]
    np.testing.assert_allclose(p[:, column], platt_proba(margins, a, b), rtol=1e-12, atol=0)


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_older_bundle_is_a_format_error_naming_the_version(trained, tmp_path, version):
    sc, power_map, decoded, result = trained
    path = tmp_path / "b.cbnd"
    save_bundle(path, result.bundle)
    blob = bytearray(path.read_bytes()[:-8])
    blob[4:6] = struct.pack("<H", version)
    path.write_bytes(rechecksummed(bytes(blob)))
    with pytest.raises(FileFormatError, match=f"unsupported bundle version {version}"):
        load_bundle(path)


def test_saving_a_loaded_bundle_reproduces_it_byte_for_byte(trained, tmp_path):
    first, second = tmp_path / "a.cbnd", tmp_path / "b.cbnd"
    save_bundle(first, trained[3].bundle)
    save_bundle(second, load_bundle(first))
    assert second.read_bytes() == first.read_bytes()


@pytest.fixture(scope="module")
def bundle_blob(trained, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "b.cbnd"
    save_bundle(path, trained[3].bundle)
    return path.read_bytes()[:-8], path


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_re_checksummed_byte_edits_load_or_raise_format_error(bundle_blob, data):
    blob, path = bundle_blob
    edited = bytearray(blob)
    # every byte after the magic is the version or the JSON document
    at = data.draw(st.integers(4, len(blob) - 1))
    edited[at] = data.draw(st.integers(0, 255))
    cut = data.draw(st.sampled_from([len(blob), len(blob) - 1, at + 1]))
    path.write_bytes(rechecksummed(bytes(edited[:cut])))
    try:
        loaded = load_bundle(path)
    except FileFormatError:
        return
    assert isinstance(loaded, ModelBundle)


def test_verdict_csv_columns_and_rows(trained, tmp_path):
    sc, power_map, decoded, result = trained
    usable = usable_transmissions(decoded, power_map, result.bundle.tau)[:50]
    verdicts = authenticate_all(usable, power_map, result.bundle)
    path = tmp_path / "v.csv"
    write_verdicts(path, verdicts, result.bundle.samap.sas, result.bundle.delta)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 51
    header = lines[0].split(",")
    for sa in result.bundle.samap.sas:
        assert f"p_tx_{sa}" in header
        assert f"softmax_{sa}" in header
    assert header[:4] == ["t_sec", "claimed_sa", "attributed_sa", "decision"]


def test_verdict_csv_runner_up_margin_and_positives(tmp_path):
    sas = [0, 11, 15]
    impersonation, added = Decision.IMPERSONATION, Decision.ADDED_MODULE
    verdicts = [
        Verdict(0.5, 0, {0: 0.2, 11: 0.9, 15: 0.7}, 11, 1, impersonation, False, (11, 15)),
        # a near tie: the lowest contender wins, the higher value is the runner-up
        Verdict(0.6, None, {0: 0.3, 11: 0.3 + 1e-13, 15: 0.1}, 0, 0, added, True, ()),
    ]
    path = tmp_path / "v.csv"
    write_verdicts(path, verdicts, sas, 0.5)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["runner_up_sa"] for r in rows] == ["15", "11"]
    assert [r["margin"] for r in rows] == [repr(0.9 - 0.5), repr(0.3 - 0.5)]
    assert [r["multiple_positive"] for r in rows] == ["11;15", ""]
    for r, v in zip(rows, verdicts):
        row_softmax = softmax(list(v.p_tx.values())).tolist()
        assert [r[f"softmax_{sa}"] for sa in sas] == [repr(x) for x in row_softmax]
    # one SA has no runner-up; no verdicts leave the header alone
    alone = Verdict(0.7, 3, {3: 0.8}, 3, 0, Decision.AUTHENTIC, False, ())
    write_verdicts(path, [alone], [3], 0.5)
    with open(path, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["runner_up_sa"], row["margin"], row["softmax_3"]) == ("", repr(0.8 - 0.5), "1.0")
    write_verdicts(path, [], sas, 0.5)
    assert path.read_text().count("\n") == 1
