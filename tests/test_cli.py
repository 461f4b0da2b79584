"""Command-line behavior: stage outputs, exit codes, determinism."""

import csv
import filecmp
import io
import json
import os
import re
import struct
import subprocess
import sys
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

import canoa
from canoa import traceio
from canoa.cli import main, render
from canoa.config import parse_config_text
from canoa.frames import decode_transmissions
from canoa.svm import bootstrap_accuracy
from canoa.trace import SampledTrace
from canoa.traceio import (
    BUNDLE_FOOTER,
    TraceKind,
    read_ground_truth,
    read_trace_file,
    write_trace_file,
)
from canoa.workflow import build_bundle, normal_transmissions

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


# truck traffic: ECU 0 sends SAs 0 and 15 and ECU 1 sends SA 11, so the sender
# labels are (ECU, SA) pairs and the two siblings leave some bootstrap spread
TRUCK_CONFIG = """
scenario.preset = truck
scenario.frames_per_sa = 100
bus.sample_rate = 3000000
bus.power_sample_rate = 1000000
sim.seed = 5
pipeline.calib_len = 40000
train.bootstrap_rounds = 10
"""


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def truck_csv_run(tmp_path_factory):
    """The output directory of ``canoa all --format csv`` on TRUCK_CONFIG."""
    tmp = tmp_path_factory.mktemp("truck")
    (tmp / "truck.cfg").write_text(TRUCK_CONFIG)
    out = tmp / "out"
    assert run_cli("all", "--config", tmp / "truck.cfg", "--out", out, "--format", "csv") == 0
    return out


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
    assert "converged=" in report and "final_loss=" in report
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


def test_training_report_states_each_ecus_pca_basis(tmp_path):
    # the shipped truck_attack.cfg, power at 1 MHz: one line per ECU, after the
    # transmission count
    cfg = Path(__file__).parent.parent / "configs" / "truck_attack.cfg"
    sim, out = tmp_path / "sim", tmp_path / "train"
    assert run_cli("simulate", "--config", cfg, "--out", sim) == 0
    assert run_cli("train", "--config", cfg, "--traces", sim, "--out", out) == 0
    report = (out / "training_report.txt").read_text().splitlines()
    assert report[1:3] == [
        "ecu 0: pca_components=5 variance_retained=0.9647",
        "ecu 1: pca_components=5 variance_retained=0.9860",
    ]


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


def test_render_writes_one_layout_per_format():
    error = "PCA needs more rows than components: 25 rows, 50 components requested"
    rows = [
        ["cell", "accuracy", "loss", "error"],
        [125000, 0.5, repr(0.1 + 0.2), ""],
        [(0, 15), "", "", error],
    ]
    # CSV quotes the cells that hold a comma; a float gets 6 decimals, a string stays as given
    assert list(csv.reader(io.StringIO(render(rows, "csv")))) == [
        ["cell", "accuracy", "loss", "error"],
        ["125000", "0.500000", "0.30000000000000004", ""],
        ["(0, 15)", "", "", error],
    ]
    # text right-aligns each column, two spaces apart, and a title heads it
    assert render(rows, "text", title="scope: test").splitlines() == [
        "scope: test",
        "   cell  accuracy                 loss  " + "error".rjust(len(error)),
        " 125000    0.5000  0.30000000000000004",
        "(0, 15)" + " " * (2 + 8 + 2 + 19 + 2) + error,  # two blank cells between
    ]
    assert not render(rows, "csv", title="scope: test").startswith("scope")


def test_every_csv_report_reads_back_at_one_width(truck_csv_run):
    tables = {path.name: read_csv(path) for path in truck_csv_run.glob("*.csv")}
    assert {
        "sender_confusion.csv", "sender_metrics.csv", "attack_confusion.csv",
        "bootstrap_accuracy.csv", "learning_curve_15.csv", "verdicts.csv",
    } <= set(tables)
    for name, rows in tables.items():
        assert len({len(row) for row in rows}) == 1, name
    # a sender label holds a comma, so it reads back whole only if it was quoted
    labels = ["(0, 0)", "(0, 15)", "(1, 11)"]
    assert tables["sender_confusion.csv"][0] == ["truth", *labels]
    assert [row[0] for row in tables["sender_confusion.csv"][1:]] == labels
    assert [row[0] for row in tables["sender_metrics.csv"][1:]] == [*labels, "accuracy", "macro"]


def test_bootstrap_csv_rows_hold_ordered_statistics(truck_csv_run):
    header, *rows = read_csv(truck_csv_run / "bootstrap_accuracy.csv")
    assert header == ["sa", "rounds", "min", "q1", "median", "q3", "max"]
    assert [row[:2] for row in rows] == [["0", "10"], ["11", "10"], ["15", "10"]]
    stats = [[float(cell) for cell in row[2:]] for row in rows]
    for lo, q1, median, q3, hi in stats:
        assert lo <= q1 <= median <= q3 <= hi
    assert any(lo < hi for lo, *_, hi in stats)  # not a run of equal accuracies only
    # each row holds the order statistics of the run's own bootstrap accuracies,
    # recomputed here by the train path on the capture the run wrote
    run = parse_config_text(TRUCK_CONFIG)

    def channel(name):
        contents = read_trace_file(truck_csv_run / name)
        return SampledTrace(contents.samples[0], contents.sample_rate, contents.start_time)

    samap = run.scenario.source_map()
    powers = {ecu: channel(f"power_{ecu:03d}.ctrc") for ecu in samap.ecus}
    decoded = decode_transmissions(channel("voltage.ctrc"), run.scenario.bus.bitrate, samap)
    truth = read_ground_truth(truck_csv_run / "ground_truth.csv")
    result = build_bundle(
        powers, normal_transmissions(decoded, truth), samap, run.pipeline, run.train
    )
    datasets = sorted(result.datasets.items(), key=lambda kv: kv[0][1])
    assert [sa for (_, sa), _ in datasets] == [0, 11, 15]
    for row, (_, ds) in zip(stats, datasets):
        acc = bootstrap_accuracy(ds, run.train).accuracies
        quartiles = np.percentile(acc, 25), np.median(acc), np.percentile(acc, 75)
        assert row == [acc.min(), *quartiles, acc.max()]


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


def test_ground_truth_without_normal_frames_prints_no_normal_rate(cfg_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("all", "--config", cfg_path, "--out", out) == 0
    # relabel every logged frame as an attack, keeping its time and sender
    truth = out / "ground_truth.csv"
    header, *rows = truth.read_text().splitlines()
    truth.write_text(
        "\n".join([header] + [row.replace(",normal", ",compromised_ecu") for row in rows]) + "\n"
    )
    capsys.readouterr()
    args = ("--traces", out, "--bundle", out / "bundle.cbnd", "--bitrate", 125000)
    assert run_cli("authenticate", *args, "--out", tmp_path / "auth") == 0
    printed = capsys.readouterr().out
    assert "attack->attack rate: " in printed
    assert "normal->normal rate" not in printed
    # with no normal frame there is no sender table to write
    assert "no sender tables: the capture holds no normal frames per ground truth" in printed
    assert (tmp_path / "auth" / "attack_confusion.txt").exists()
    assert not (tmp_path / "auth" / "sender_metrics.txt").exists()


def test_ground_truth_of_another_capture_fails_before_any_output(cfg_path, tmp_path, capsys):
    truck_cfg = tmp_path / "truck.cfg"
    truck_cfg.write_text(
        "scenario.preset = truck\nscenario.frames_per_sa = 20\nbus.sample_rate = 3000000\n"
        "bus.power_sample_rate = 1000000\nsim.seed = 5\npipeline.calib_len = 40000\n"
        "train.bootstrap_rounds = 10\n"
    )
    truck, lab = tmp_path / "truck", tmp_path / "lab"
    assert run_cli("simulate", "--config", truck_cfg, "--out", truck) == 0
    assert run_cli("train", "--config", truck_cfg, "--traces", truck, "--out", truck) == 0
    assert run_cli("simulate", "--config", cfg_path, "--out", lab) == 0
    truth = truck / "ground_truth.csv"
    truth.write_bytes((lab / "ground_truth.csv").read_bytes())
    capsys.readouterr()
    args = ("--traces", truck, "--bundle", truck / "bundle.cbnd", "--bitrate", 250000)
    assert run_cli("authenticate", *args, "--out", tmp_path / "au") == 2
    assert (
        f"error: {truth} does not log the frames of the capture in {truck}: "
        "no ground-truth frame within"
    ) in capsys.readouterr().err
    assert not (tmp_path / "au").exists()


def test_train_with_another_captures_ground_truth_fails_before_any_output(
    cfg_path, tmp_path, capsys
):
    # with the lab log, none of the truck capture's 20 added-module frames
    # would be dropped from training
    truck_cfg = tmp_path / "truck.cfg"
    truck_cfg.write_text(
        "scenario.preset = truck\nscenario.frames_per_sa = 20\nbus.sample_rate = 3000000\n"
        "bus.power_sample_rate = 1000000\nsim.seed = 5\npipeline.calib_len = 40000\n"
        "train.bootstrap_rounds = 10\n"
        "attack.0.kind = added_module\nattack.0.spoofed_sa = 0\nattack.0.count = 20\n"
    )
    truck, lab = tmp_path / "truck", tmp_path / "lab"
    assert run_cli("simulate", "--config", truck_cfg, "--out", truck) == 0
    assert run_cli("simulate", "--config", cfg_path, "--out", lab) == 0
    truth = truck / "ground_truth.csv"
    truth.write_bytes((lab / "ground_truth.csv").read_bytes())
    capsys.readouterr()
    out = tmp_path / "trained"
    assert run_cli("train", "--config", truck_cfg, "--traces", truck, "--out", out) == 2
    assert (
        f"error: {truth} does not log the frames of the capture in {truck}: "
        "no ground-truth frame within"
    ) in capsys.readouterr().err
    assert not out.exists()


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


def test_power_rate_at_or_below_twice_a_ripple_writes_no_capture(tmp_path, capsys):
    # lab ripples are 60e3 + 70e3 k Hz: at 540 kHz ECU 3's 270 kHz sits at Nyquist
    cfg = tmp_path / "aliased.cfg"
    cfg.write_text(TINY_CONFIG + "bus.power_sample_rate = 540000\n")
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert "power sample rate 540000 Hz is not above twice the 270000 Hz ripple of ECU 3" in err
    assert not out.exists()
    cfg.write_text(TINY_CONFIG + "bus.power_sample_rate = 540001\n")
    assert run_cli("simulate", "--config", cfg, "--out", out) == 2
    assert "340000 Hz ripple of ECU 4" in capsys.readouterr().err


def test_sweep_renders_failed_cells(tmp_path):
    cfg = tmp_path / "slow.cfg"
    cfg.write_text(TINY_CONFIG.replace("bus.sample_rate = 2000000", "bus.sample_rate = 1000000"))
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 2
    header, *rows = (out / "sweep_grid.txt").read_text().splitlines()
    assert header.split() == [
        "bitrate", "format", "program", "accuracy", "precision", "recall", "f_measure", "error"
    ]
    assert len(rows) == 12
    # the four metric cells are blank, so the error follows the levels after blanks
    assert rows[0] == (
        " 125000  standard        uniform" + " " * (2 + 8 + 2 + 9 + 2 + 6 + 2 + 9 + 2)
        + "sample rate 1000000 Hz is below 10x the bitrate 125000 bps"
    )
    assert all(row.endswith(f" Hz is below 10x the bitrate {row.split()[0]} bps") for row in rows)
    assert run_cli("sweep", "--config", cfg, "--out", out, "--format", "csv") == 2
    rows = read_csv(out / "sweep_grid.csv")[1:]
    assert len(rows) == 12
    assert rows[-1] == [
        "500000", "extended", "heterogeneous", "", "", "", "",
        "sample rate 1000000 Hz is below 10x the bitrate 500000 bps",
    ]
    for fields in rows:
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
        # sweep metrics come from each frame's argmax SA, whatever the threshold
        ["sweep", "--config", "x.cfg", "--out", "o", "--delta", "0.5"],
    ],
)
def test_subcommands_reject_options_they_do_not_read(argv, capsys):
    assert run_cli(*argv) == 1
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["0", "1", "1.5", "nan"])
@pytest.mark.parametrize("command", ["train", "authenticate", "all"])
def test_delta_outside_the_open_unit_interval_is_a_usage_error(tmp_path, command, delta, capsys):
    out = tmp_path / "out"
    argv = {
        "train": ["--config", "x.cfg", "--traces", tmp_path],
        "authenticate": ["--traces", tmp_path, "--bundle", "b", "--bitrate", "125000"],
        "all": ["--config", "x.cfg"],
    }[command]
    assert run_cli(command, *argv, "--out", out, "--delta", delta) == 1
    assert "--delta" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_with_fewer_than_one_job_is_a_usage_error(cfg_path, tmp_path, jobs, capsys):
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg_path, "--out", out, "--jobs", jobs) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "all"])
def test_negative_seed_is_a_usage_error(cfg_path, tmp_path, command, capsys):
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg_path, "--out", out, "--seed", "-1") == 1
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
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


def test_infinite_duration_is_a_config_error_at_its_line(tmp_path, capsys):
    cfg = tmp_path / "forever.cfg"
    cfg.write_text("scenario.preset = lab\nsim.duration = inf\nbus.bitrate = 250000\n")
    out = tmp_path / "o"
    assert run_cli("all", "--config", cfg, "--out", out) == 2
    assert "line 2: sim.duration: must be positive and finite, got inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, part",
    [
        ("ecu.0.ripple_frequency = nan", "ecu.0"),
        ("ecu.0.ripple_frequency = -60000", "ecu.0"),
        ("ecu.0.baseline_mean = inf", "ecu.0"),
        ("ecu.0.signature_amplitude = inf", "ecu.0"),
        ("ecu.0.noise_floor = inf", "ecu.0"),
        ("ecu.0.ripple_amplitude = inf", "ecu.0"),
        ("ecu.0.reception_ripple = nan", "ecu.0"),
        ("bus.voltage_noise = inf", "bus"),
        ("ecu.0.msg.0.period = inf", "ecu.0.msg.0"),
        ("ecu.0.msg.0.offset = nan", "ecu.0.msg.0"),
    ],
)
def test_non_finite_simulator_value_is_a_config_error_at_its_line(tmp_path, capsys, line, part):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"scenario.preset = lab\n{line}\nscenario.frames_per_sa = 20\nsim.seed = 3\n")
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", cfg, "--out", out) == 2
    assert f"line 2: {part}: " in capsys.readouterr().err
    assert not out.exists()


def test_negative_stream_offset_is_a_config_error_at_its_line(tmp_path, capsys):
    # the stream's first frames would be queued before the capture starts
    cfg = tmp_path / "early.cfg"
    cfg.write_text(
        "scenario.preset = lab\nscenario.frames_per_sa = 20\necu.0.msg.0.offset = -0.5\n"
    )
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert "line 3: ecu.0.msg.0: offset must be non-negative and finite, got -0.5" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, part, message",
    [
        ("ecu.0.baseline_mean = 1e5", "ecu.0", "largest power level 100002 plus 10 x noise 0.08"),
        ("bus.voltage_noise = 7000", "bus", "dominant level 2 plus 10 x noise 7000"),
    ],
)
def test_level_float16_cannot_store_is_a_config_error_at_its_line(
    tmp_path, capsys, line, part, message
):
    cfg = tmp_path / "loud.cfg"
    cfg.write_text(f"scenario.preset = lab\n{line}\nscenario.frames_per_sa = 20\n")
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"line 2: {part}: {message}" in err and "65504" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "authenticate"])
@pytest.mark.parametrize("name", ["voltage.ctrc", "power_003.ctrc"])
def test_version_1_trace_is_a_data_error_naming_its_version(
    cfg_path, tmp_path, capsys, command, name
):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    if command == "train":
        argv = ["--config", cfg_path]
    else:
        assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", out) == 0
        argv = ["--bundle", out / "bundle.cbnd", "--bitrate", 125000]
    # the file as version 1 wrote it: the same header over a float32 body
    raw = (out / name).read_bytes()
    body = np.frombuffer(raw[29:], dtype="<f2").astype("<f4")
    (out / name).write_bytes(raw[:4] + struct.pack("<H", 1) + raw[6:29] + body.tobytes())
    capsys.readouterr()
    assert run_cli(command, *argv, "--traces", out, "--out", tmp_path / "m") == 2
    assert f"error: {out / name}: unsupported trace version 1 " in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_attack_rows_without_attack_frames_are_empty(cfg_path, tmp_path):
    # a lab capture without attacks has no attack frames, so there is no attack
    # rate to print; 0 would read as 0 % detection
    for fmt, blank in (("csv", "attack,,"), ("text", "attack")):
        out = tmp_path / fmt
        assert run_cli("all", "--config", cfg_path, "--out", out, "--format", fmt) == 0
        ext = "csv" if fmt == "csv" else "txt"
        *_, attack = (out / f"attack_confusion.{ext}").read_text().splitlines()
        assert attack == blank
    rows = read_csv(tmp_path / "csv" / "attack_confusion.csv")
    assert rows == [["truth", "normal", "attack"], ["normal", "1.000000", "0.000000"],
                    ["attack", "", ""]]


def test_c_too_large_for_its_regularizer_still_trains(tmp_path):
    # 1 / (C * n) underflows to 0 at this C, so nothing regularizes the SVMs
    cfg = tmp_path / "huge_c.cfg"
    cfg.write_text(TINY_CONFIG + "train.c = 1e308\n")
    assert run_cli("all", "--config", cfg, "--out", tmp_path / "o") == 0
    assert "authentic" in (tmp_path / "o" / "verdicts.csv").read_text()


def test_missing_power_channel_is_reported(cfg_path, tmp_path, capsys):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    (out / "power_002.ctrc").unlink()
    assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", out) == 2
    assert "2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "authenticate"])
def test_voltage_trace_is_freed_before_any_power_trace_is_read(
    cfg_path, tmp_path, monkeypatch, command
):
    # nothing after decode reads the voltage trace, so it must not stay in
    # memory beside the power traces
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", out) == 0
    real_read = traceio.read_trace_file
    voltage, alive = [], []  # weak references to the voltage samples; liveness at each power read

    def spy(path):
        contents = real_read(path)
        owner = contents.samples if contents.samples.base is None else contents.samples.base
        if Path(path).name == "voltage.ctrc":
            voltage.append(weakref.ref(owner))
        else:
            alive.append(any(ref() is not None for ref in voltage))
        return contents

    monkeypatch.setattr(traceio, "read_trace_file", spy)
    if command == "train":
        argv = ["--config", cfg_path]
    else:
        argv = ["--bundle", out / "bundle.cbnd", "--bitrate", 125000]
    assert run_cli(command, *argv, "--traces", out, "--out", tmp_path / "m") == 0
    assert len(voltage) == 1 and alive and not any(alive)


@pytest.mark.parametrize("stray", ["power_1.ctrc", "power_x.ctrc"])
def test_power_trace_with_a_stray_name_is_a_data_error_naming_it(
    cfg_path, tmp_path, capsys, stray
):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", out) == 0
    # power_1.ctrc would otherwise stand in for ECU 1's power_001.ctrc
    (out / stray).write_bytes((out / "power_002.ctrc").read_bytes())
    capsys.readouterr()
    argv = ["--bundle", out / "bundle.cbnd", "--bitrate", 125000]
    assert run_cli("authenticate", *argv, "--traces", out, "--out", tmp_path / "m") == 2
    assert f"error: {out / stray}: not a power trace name" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


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


@pytest.mark.parametrize(
    "command, name, kind",
    [
        ("train", "voltage.ctrc", TraceKind.POWER),
        ("authenticate", "voltage.ctrc", TraceKind.POWER),
        ("train", "power_000.ctrc", TraceKind.VOLTAGE),
    ],
)
def test_trace_of_the_wrong_kind_is_a_data_error(cfg_path, tmp_path, capsys, command, name, kind):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    if command == "train":
        argv = ["--config", cfg_path]
    else:
        assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", out) == 0
        argv = ["--bundle", out / "bundle.cbnd", "--bitrate", 125000]
    contents = read_trace_file(out / name)
    write_trace_file(out / name, contents.samples, kind, contents.sample_rate)
    expected = TraceKind.VOLTAGE if kind is TraceKind.POWER else TraceKind.POWER
    capsys.readouterr()
    assert run_cli(command, *argv, "--traces", out, "--out", tmp_path / "m") == 2
    message = f"error: {out / name}: {kind.name} trace, expected {expected.name}"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


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


def write_rechecksummed(bundle, blob):
    bundle.write_bytes(blob + BUNDLE_FOOTER + struct.pack("<I", zlib.crc32(blob)))


def test_bundle_without_meta_section_is_data_error(cfg_path, tmp_path, capsys):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", out) == 0
    bundle = out / "bundle.cbnd"
    write_rechecksummed(bundle, bundle.read_bytes()[:6])  # the header, then no document
    capsys.readouterr()
    rc = run_cli(
        "authenticate", "--traces", out, "--bundle", bundle, "--out", out, "--bitrate", 125000
    )
    assert rc == 2
    assert f"{bundle}: malformed bundle" in capsys.readouterr().err


def test_bundle_with_a_wrong_ecu_count_is_data_error(cfg_path, tmp_path, capsys):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    assert run_cli("train", "--config", cfg_path, "--traces", out, "--out", out) == 0
    bundle = out / "bundle.cbnd"
    raw = bundle.read_bytes()
    doc = json.loads(raw[6:-8])
    # the lab map has five ECUs; the bundle now holds a model for four of them
    doc["ecus"].pop()
    write_rechecksummed(bundle, raw[:6] + json.dumps(doc, sort_keys=True).encode())
    capsys.readouterr()
    rc = run_cli(
        "authenticate", "--traces", out, "--bundle", bundle, "--out", out, "--bitrate", 125000
    )
    assert rc == 2
    assert "5 ECUs [0, 1, 2, 3, 4] need one model each, found 4" in capsys.readouterr().err


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


def test_bundle_at_another_power_rate_names_the_key_that_sets_it(cfg_path, tmp_path, capsys):
    slow_cfg = tmp_path / "slow_power.cfg"
    slow_cfg.write_text(TINY_CONFIG + "bus.power_sample_rate = 1000000\n")
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", slow_cfg, "--out", out) == 0
    assert read_trace_file(out / "power_000.ctrc").sample_rate == 1e6
    assert read_trace_file(out / "voltage.ctrc").sample_rate == 2e6
    assert run_cli("train", "--config", slow_cfg, "--traces", out, "--out", out) == 0
    other = tmp_path / "other"
    assert run_cli("simulate", "--config", cfg_path, "--out", other) == 0
    capsys.readouterr()
    rc = run_cli(
        "authenticate",
        "--traces", other,
        "--bundle", out / "bundle.cbnd",
        "--out", other,
        "--bitrate", 125000,
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "2000000 Hz" in err and "1000000 Hz" in err and "bus.power_sample_rate" in err
    assert not (other / "verdicts.csv").exists()


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
