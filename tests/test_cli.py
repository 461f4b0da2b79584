"""Command-line behavior: stage outputs, exit codes, determinism."""

import filecmp
import json
import os
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import canoa
from canoa.cli import main
from canoa.traceio import (
    BUNDLE_FOOTER,
    TraceKind,
    _parse_sections,
    _sections_bytes,
    write_trace_file,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

TINY_CONFIG = """
scenario.preset = lab
scenario.frames_per_sa = 40
bus.sample_rate = 2000000
sim.seed = 5
pipeline.components = 12
pipeline.calib_len = 40000
train.max_iters = 150
train.bootstrap_rounds = 10
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_simulate_writes_traces_and_truth(cfg_path, tmp_path, capsys):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    assert (out / "voltage.ctrc").exists()
    assert len(list(out.glob("power_*.ctrc"))) == 5
    truth = (out / "ground_truth.csv").read_text().strip().splitlines()
    assert truth[0] == "t_sec,frame_id,claimed_sa,true_source,attack_kind"
    assert len(truth) == 201  # header + 5 x 40 frames
    assert "simulated 200 frames" in capsys.readouterr().out


def test_simulate_is_byte_identical_for_same_seed(cfg_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--config", cfg_path, "--out", out1) == 0
    assert run_cli("simulate", "--config", cfg_path, "--out", out2) == 0
    for name in ["voltage.ctrc", "power_000.ctrc", "power_004.ctrc", "ground_truth.csv"]:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_full_stage_chain(cfg_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", out) == 0
    assert (out / "bundle.cbnd").exists()
    assert (out / "training_report.txt").exists()
    assert (out / "bootstrap_accuracy.csv").exists()
    curves = list(out.glob("learning_curve_*.csv"))
    assert len(curves) == 5
    for path in curves:
        for line in path.read_text().splitlines()[1:]:
            [float(cell) for cell in line.split(",")]
    report = (out / "training_report.txt").read_text()
    assert "convergence_index" in report
    assert (
        run_cli(
            "authenticate",
            "--traces", out,
            "--bundle", out / "bundle.cbnd",
            "--out", out,
            "--bitrate", 125000,
        )
        == 0
    )
    verdicts = (out / "verdicts.csv").read_text().strip().splitlines()
    truth_rows = (out / "ground_truth.csv").read_text().strip().splitlines()
    # one verdict per decoded transmission
    assert len(verdicts) - 1 == len(truth_rows) - 1
    for name in ("sender_confusion.txt", "sender_metrics.txt"):
        assert (out / name).read_text().startswith("scope: normal frames per ground truth\n")
    assert (out / "attack_confusion.txt").exists()


def test_train_outputs_are_deterministic(cfg_path, tmp_path):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", sim) == 0
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert run_cli("train", "--config", cfg_path, "--traces", sim, "--out", out1) == 0
    assert run_cli("train", "--config", cfg_path, "--traces", sim, "--out", out2) == 0
    assert (out1 / "bundle.cbnd").read_bytes() == (out2 / "bundle.cbnd").read_bytes()
    assert (out1 / "bootstrap_accuracy.csv").read_text() == (
        out2 / "bootstrap_accuracy.csv"
    ).read_text()


def test_all_command_and_csv_format(cfg_path, tmp_path):
    out = tmp_path / "all"
    assert run_cli("all", "--config", cfg_path, "--out", out, "--format", "csv") == 0
    assert (out / "bundle.cbnd").exists()
    assert (out / "sender_confusion.csv").exists()
    header = (out / "sender_confusion.csv").read_text().splitlines()[0]
    assert header.startswith("truth,")


def test_all_with_attacks_trains_on_normal_traffic_only(tmp_path, capsys):
    cfg = tmp_path / "attack.cfg"
    cfg.write_text(
        TINY_CONFIG
        + "attack.0.kind = added_module\nattack.0.spoofed_sa = 1\nattack.0.count = 15\n"
    )
    out = tmp_path / "attacked"
    assert run_cli("all", "--config", cfg, "--out", out) == 0
    printed = capsys.readouterr().out
    assert "excluding 15 attack frame(s) from training" in printed
    assert "attack->attack rate: 1.0000" in printed


def _sender_support(path):
    """Total support of the per-label rows of a CSV sender_metrics table."""
    rows = path.read_text().splitlines()[1:]
    # a label is an "(ecu, sa)" pair, so support is counted from the right
    return sum(int(row.split(",")[-2]) for row in rows if not row.startswith(("accuracy", "macro")))


def test_sender_tables_leave_out_attack_frames_when_ground_truth_exists(tmp_path, capsys):
    cfg = tmp_path / "attack.cfg"
    cfg.write_text(
        TINY_CONFIG
        + "attack.0.kind = added_module\nattack.0.spoofed_sa = 1\nattack.0.count = 15\n"
    )
    out = tmp_path / "attacked"
    assert run_cli("all", "--config", cfg, "--out", out, "--format", "csv") == 0
    assert "sender accuracy (normal frames per ground truth): " in capsys.readouterr().out
    verdicts = len((out / "verdicts.csv").read_text().strip().splitlines()) - 1
    assert _sender_support(out / "sender_metrics.csv") == verdicts - 15
    assert (out / "sender_confusion.csv").read_text().startswith("truth,")

    # without a ground-truth log every verdict counts, and the text tables say so
    (out / "ground_truth.csv").unlink()
    again = tmp_path / "no_truth"
    args = ("--traces", out, "--bundle", out / "bundle.cbnd", "--bitrate", 125000)
    assert run_cli("authenticate", *args, "--out", again) == 0
    assert "sender accuracy (all authenticated frames): " in capsys.readouterr().out
    for name in ("sender_confusion.txt", "sender_metrics.txt"):
        assert (again / name).read_text().startswith("scope: all authenticated frames\n")
    assert run_cli("authenticate", *args, "--out", again, "--format", "csv") == 0
    assert _sender_support(again / "sender_metrics.csv") == verdicts


def test_lab_hijack_config_simulates_byte_identically(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--config", CONFIGS / "lab_hijack.cfg", "--out", out1) == 0
    assert run_cli("simulate", "--config", CONFIGS / "lab_hijack.cfg", "--out", out2) == 0
    names = sorted(path.name for path in out1.iterdir())
    assert names == sorted(path.name for path in out2.iterdir())
    for name in names:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name
    rows = (out1 / "ground_truth.csv").read_text().splitlines()[1:]
    assert sum(row.endswith(",hijack_transmission") for row in rows) == 40


def test_sweep_command_writes_full_grid(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        """
        scenario.preset = lab
        scenario.frames_per_sa = 30
        bus.sample_rate = 6000000
        sim.seed = 12
        pipeline.components = 10
        pipeline.calib_len = 50000
        train.max_iters = 120
        """
    )
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", cfg, "--out", out, "--jobs", 2, "--format", "csv") == 0
    lines = (out / "sweep_grid.csv").read_text().strip().splitlines()
    assert lines[0].startswith("bitrate,format,program,accuracy")
    assert len(lines) == 13  # header + 12 cells
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[7] == ""  # no per-cell errors
        assert 0.0 <= float(fields[3]) <= 1.0


def test_simulate_below_ten_samples_per_bit_writes_no_capture(tmp_path, capsys):
    cfg = tmp_path / "slow.cfg"
    cfg.write_text(TINY_CONFIG.replace("bus.sample_rate = 2000000", "bus.sample_rate = 1000000"))
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg, "--out", out) == 2
    assert "1000000 Hz" in capsys.readouterr().err
    assert not (out / "voltage.ctrc").exists()


def test_sweep_renders_failed_cells(tmp_path):
    cfg = tmp_path / "slow.cfg"
    cfg.write_text(TINY_CONFIG.replace("bus.sample_rate = 2000000", "bus.sample_rate = 1000000"))
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 2
    rows = (out / "sweep_grid.txt").read_text().splitlines()[1:]
    assert len(rows) == 12
    assert rows[0] == (
        "  125000  standard        uniform FAILED: sample rate 1000000 Hz is below 10x the bitrate 125000 bps"
    )
    assert all(" FAILED: sample rate 1000000 Hz is below 10x" in row for row in rows)
    assert run_cli("sweep", "--config", cfg, "--out", out, "--format", "csv") == 2
    rows = (out / "sweep_grid.csv").read_text().splitlines()[1:]
    assert len(rows) == 12
    assert rows[-1] == (
        "500000,extended,heterogeneous,,,,,sample rate 1000000 Hz is below 10x the bitrate 500000 bps"
    )
    for row in rows:
        fields = row.split(",")
        assert len(fields) == 8 and fields[3:7] == ["", "", "", ""]
        assert fields[7].startswith("sample rate 1000000 Hz")


def test_sweep_with_no_completed_cell_names_the_failed_count(tmp_path, capsys):
    cfg = tmp_path / "slow.cfg"
    cfg.write_text(TINY_CONFIG.replace("bus.sample_rate = 2000000", "bus.sample_rate = 1000000"))
    assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "sweep") == 2
    captured = capsys.readouterr()
    assert "(0/12 cells complete)" in captured.out
    assert "error: no sweep cell completed: 12 of 12 failed" in captured.err


@pytest.mark.parametrize("command", ["simulate", "train", "authenticate", "sweep"])
def test_failed_run_leaves_no_out_directory(command, tmp_path, capsys):
    slow = tmp_path / "slow.cfg"
    slow.write_text(TINY_CONFIG.replace("bus.sample_rate = 2000000", "bus.sample_rate = 1000000"))
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG.replace("train.max_iters = 150", "train.max_iters = 0"))
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "out"
    argv = {
        "simulate": ["--config", slow],  # the simulator rejects the sample rate
        "train": ["--config", slow, "--traces", empty],  # no ground truth to train on
        "authenticate": ["--traces", empty, "--bundle", empty / "bundle.cbnd", "--bitrate", 125000],
        "sweep": ["--config", bad],  # a sweep whose cells all fail still writes its grid
    }[command]
    assert run_cli(command, *argv, "--out", out) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "x.cfg", "--out", "o", "--delta", "0.4"],
        ["train", "--config", "x.cfg", "--traces", "t", "--out", "o", "--format", "csv"],
        ["authenticate", "--traces", "t", "--bundle", "b", "--out", "o", "--bitrate", "125000",
         "--seed", "3"],
    ],
)
def test_subcommands_reject_options_they_do_not_read(argv, capsys):
    assert run_cli(*argv) == 1
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_with_fewer_than_one_job_is_a_usage_error(cfg_path, tmp_path, jobs, capsys):
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg_path, "--out", out, "--jobs", jobs) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bitrate", ["0", "-125000", "nan", "inf"])
def test_authenticate_bitrate_that_is_not_positive_and_finite_is_a_usage_error(
    tmp_path, bitrate, capsys
):
    out = tmp_path / "out"
    argv = ["--traces", tmp_path, "--bundle", tmp_path / "bundle.cbnd", "--bitrate", bitrate]
    assert run_cli("authenticate", *argv, "--out", out) == 1
    assert "--bitrate" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exit_code_1():
    assert run_cli("simulate", "--config", "x.cfg") == 1  # missing --out
    assert run_cli("frobnicate") == 1


def test_data_error_exit_code_2(cfg_path, tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert run_cli("simulate", "--config", missing, "--out", tmp_path / "o") == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense.key = 1\n")
    assert run_cli("simulate", "--config", bad, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_zero_duration_config_is_data_error(tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("scenario.preset = lab\nsim.duration = 0\n")
    assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "o") == 2


def test_missing_power_channel_is_reported(cfg_path, tmp_path, capsys):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    (out / "power_002.ctrc").unlink()
    assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", out) == 2
    assert "2" in capsys.readouterr().err


def test_truncated_ground_truth_is_a_data_error_naming_its_line(cfg_path, tmp_path, capsys):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    truth = out / "ground_truth.csv"
    truth.write_text(truth.read_text().rsplit(",", 2)[0])
    capsys.readouterr()
    assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", tmp_path / "m") == 2
    assert f"error: {truth}: line 201: 3 fields, expected 5" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("name, channels", [("voltage.ctrc", 0), ("power_003.ctrc", 2)])
def test_trace_file_without_exactly_one_channel_is_a_data_error(
    cfg_path, tmp_path, capsys, name, channels
):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    write_trace_file(out / name, np.zeros((channels, 1000)), TraceKind.POWER, 2e6)
    capsys.readouterr()
    assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", tmp_path / "m") == 2
    assert f"error: {out / name}: {channels} channels, expected 1" in capsys.readouterr().err


def test_bundle_trace_mismatch(cfg_path, tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", out) == 0
    (out / "power_004.ctrc").unlink()
    rc = run_cli(
        "authenticate",
        "--traces", out,
        "--bundle", out / "bundle.cbnd",
        "--out", out,
        "--bitrate", 125000,
    )
    assert rc == 2


def test_bundle_without_meta_section_is_data_error(cfg_path, tmp_path, capsys):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", out) == 0
    bundle = out / "bundle.cbnd"
    sections = _parse_sections(bundle.read_bytes()[:-8], bundle)
    del sections["meta"]
    blob = _sections_bytes(list(sections.items()))
    bundle.write_bytes(blob + BUNDLE_FOOTER + struct.pack("<I", zlib.crc32(blob)))
    capsys.readouterr()
    rc = run_cli(
        "authenticate", "--traces", out, "--bundle", bundle, "--out", out, "--bitrate", 125000
    )
    assert rc == 2
    assert "missing section 'meta'" in capsys.readouterr().err


def test_bundle_entry_naming_another_ecu_is_data_error(cfg_path, tmp_path, capsys):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", out) == 0
    bundle = out / "bundle.cbnd"
    sections = _parse_sections(bundle.read_bytes()[:-8], bundle)
    meta = json.loads(sections["meta"])
    # an ECU's model, weights and all, listed under ECU 7, which owns none of its SAs
    model = meta["ecus"][0]
    sections["weights/7"] = sections.pop(f"weights/{model['ecu']}")
    model["ecu"] = 7
    sections["meta"] = json.dumps(meta, sort_keys=True).encode()
    blob = _sections_bytes(list(sections.items()))
    bundle.write_bytes(blob + BUNDLE_FOOTER + struct.pack("<I", zlib.crc32(blob)))
    capsys.readouterr()
    rc = run_cli(
        "authenticate", "--traces", out, "--bundle", bundle, "--out", out, "--bitrate", 125000
    )
    assert rc == 2
    assert "ECU 7" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["train.max_iters = 0", "train.batch_size = 0"])
def test_bad_training_value_fails_before_simulating(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CONFIG.replace("train.max_iters = 150", line))
    out = tmp_path / "all"
    assert run_cli("all", "--config", cfg, "--out", out) == 2
    assert "line" in capsys.readouterr().err
    assert not (out / "voltage.ctrc").exists()


def test_bundle_on_traces_at_another_sample_rate_is_a_mismatch(cfg_path, tmp_path, capsys):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", out) == 0
    fast_cfg = tmp_path / "fast.cfg"
    fast_cfg.write_text(TINY_CONFIG.replace("bus.sample_rate = 2000000", "bus.sample_rate = 3000000"))
    fast = tmp_path / "fast"
    assert run_cli("simulate", "--config", fast_cfg, "--out", fast) == 0
    capsys.readouterr()
    rc = run_cli(
        "authenticate",
        "--traces", fast,
        "--bundle", out / "bundle.cbnd",
        "--out", fast,
        "--bitrate", 125000,
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "3000000 Hz" in err and "2000000 Hz" in err
    assert not (fast / "verdicts.csv").exists()


def test_authenticate_requires_bitrate(cfg_path, tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", out) == 0
    rc = run_cli("authenticate", "--traces", out, "--bundle", out / "bundle.cbnd", "--out", out)
    assert rc == 1


def test_authenticate_at_the_wrong_bitrate_names_what_decoded(cfg_path, tmp_path, capsys):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", out) == 0
    capsys.readouterr()
    rc = run_cli(
        "authenticate",
        "--traces", out,
        "--bundle", out / "bundle.cbnd",
        "--out", out,
        "--bitrate", 100000,
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert re.search(r"no usable transmission at --bitrate 100000: (\d+) decoded, \1 failed the CRC", err), err
    assert not (out / "verdicts.csv").exists()


def test_import_adds_no_third_party_module_but_numpy():
    env = dict(os.environ)
    src_dir = str(Path(canoa.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "before = {name.partition('.')[0] for name in sys.modules}\n"
        "import canoa, canoa.cli\n"
        "after = {name.partition('.')[0] for name in sys.modules}\n"
        "print(' '.join(sorted(after - before - set(sys.stdlib_module_names))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split()) - {"canoa", "numpy"}
    assert not added, f"importing canoa pulled in {sorted(added)}"


def test_python_dash_m_canoa_runs_the_cli():
    env = dict(os.environ)
    src_dir = str(Path(canoa.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "canoa", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert "usage: canoa" in done.stdout
