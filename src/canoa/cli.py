"""Batch command-line front end.

One command per pipeline stage (simulate, train, authenticate, sweep)
plus an ``all`` convenience command. Every command is deterministic
under a fixed seed; exit codes are 0 on success, 1 on usage errors, and
2 on data errors (a sweep in which no cell completes is one). A run that
fails before its first write leaves no ``--out`` directory. ``CANOA_LOG``
selects the log level.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import traceio
from .authenticate import authenticate_all
from .bus import AttackKind, simulate
from .config import RunConfig, parse_config
from .errors import CanoaError, ConfigError, EmptyInput, FileFormatError, LengthMismatch
from .evaluate import ConfusionMatrix, MetricReport, metrics
from .frames import DecodedTransmission, SourceAddressMap, decode_transmissions
from .svm import bootstrap_accuracy
from .trace import SampledTrace
from .traceio import TraceKind
from .workflow import (
    align_truth,
    attack_confusion,
    build_bundle,
    factor_sweep,
    grid_cells,
    normal_transmissions,
    sender_confusion,
    usable_transmissions,
)

log = logging.getLogger("canoa.cli")

VOLTAGE_FILE = "voltage.ctrc"
GROUND_TRUTH_FILE = "ground_truth.csv"
BUNDLE_FILE = "bundle.cbnd"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def checked(cast, holds, rule: str):
    """An argparse type: ``cast`` of the argument, which must satisfy ``holds``;
    an argument that does not is a usage error that states ``rule``."""

    def parse(text: str):
        value = cast(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse names the type when the cast fails
    return parse


positive_int = checked(int, lambda v: v >= 1, "must be at least 1")
non_negative_int = checked(int, lambda v: v >= 0, "must be at least 0")
positive_finite = checked(float, lambda v: 0 < v < math.inf, "must be a positive finite number")
unit_interval = checked(float, lambda v: 0 < v < 1, "must lie in (0, 1)")


def power_file(index: int) -> str:
    return f"power_{index:03d}.ctrc"


# -------------------------------------------------------------- rendering


def render(rows, fmt: str, title: str = "") -> str:
    """One report table: CSV through ``csv.writer``, or text with right-aligned columns.

    A float has 6 decimals in CSV and 4 in text; any other cell is written as
    given. A title is a line above a text table; CSV holds only the rows.
    """
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [f"{c:.6f}" if isinstance(c, float) else c for c in row] for row in rows
        )
        return buf.getvalue()
    cells = [[f"{c:.4f}" if isinstance(c, float) else str(c) for c in row] for row in rows]
    widths = [max(map(len, col)) for col in zip(*cells)]
    lines = ["  ".join(c.rjust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    return "\n".join([title] + lines if title else lines) + "\n"


def confusion_rows(cm: ConfusionMatrix) -> list[list]:
    """Row-normalized rates; a truth label with no frames has empty cells, not 0."""
    rows = [["truth", *cm.labels]]
    for lab, rates, total in zip(cm.labels, cm.rates, cm.counts.sum(axis=1)):
        rows.append([lab, *(rates if total else [""] * len(rates))])
    return rows


def metric_rows(report: MetricReport) -> list[list]:
    rows = [["label", "precision", "recall", "f_measure", "support", "degenerate"]]
    for label, m in report.per_label.items():
        rows.append([label, m.precision, m.recall, m.f_measure, m.support, int(m.degenerate)])
    rows.append(["accuracy", report.accuracy, "", "", "", ""])
    rows.append(["macro", report.macro_precision, report.macro_recall, report.macro_f, "", ""])
    return rows


# ------------------------------------------------------------------ loading


def _load_run(args) -> RunConfig:
    run = parse_config(args.config)
    if args.seed is not None:
        run = dataclasses.replace(
            run,
            scenario=dataclasses.replace(run.scenario, seed=args.seed),
            train=dataclasses.replace(run.train, seed=args.seed),
        )
    delta = getattr(args, "delta", None)  # simulate and sweep take no --delta
    if delta is not None:
        run = dataclasses.replace(run, pipeline=dataclasses.replace(run.pipeline, delta=delta))
    return run


def _read_channel(path: Path, kind: TraceKind) -> SampledTrace:
    """The one channel of a trace file of the given kind."""
    contents = traceio.read_trace_file(path)
    channels = contents.samples.shape[0]
    if channels != 1:
        raise FileFormatError(f"{path}: {channels} channels, expected 1")
    if contents.kind is not kind:
        raise FileFormatError(f"{path}: {contents.kind.name} trace, expected {kind.name}")
    return SampledTrace(contents.samples[0], contents.sample_rate, contents.start_time)


def _decode_capture(
    traces_dir: Path, bitrate: float, samap: SourceAddressMap
) -> list[DecodedTransmission]:
    """The transmissions decoded from the capture's voltage trace. Nothing
    after decode reads that trace, so it is dropped before any power trace is read."""
    voltage_path = traces_dir / VOLTAGE_FILE
    if not voltage_path.exists():
        raise CanoaError(f"missing {voltage_path}")
    return decode_transmissions(_read_channel(voltage_path, TraceKind.VOLTAGE), bitrate, samap)


def _read_powers(traces_dir: Path) -> dict[int, SampledTrace]:
    """The capture's power traces, by ECU index."""
    powers = {}
    for path in sorted(traces_dir.glob("power_*.ctrc")):
        digits = path.stem.removeprefix("power_")
        if not (digits.isdecimal() and path.name == power_file(int(digits))):
            raise FileFormatError(f"{path}: not a power trace name such as {power_file(0)}")
        powers[int(digits)] = _read_channel(path, TraceKind.POWER)
    return powers


# ----------------------------------------------------------------- commands


def _align_truth(items, truth, truth_path: Path, traces_dir: Path):
    """align_truth; a log that does not pair with the capture is a FileFormatError naming both."""
    try:
        return align_truth(items, truth)
    except LengthMismatch as exc:
        raise FileFormatError(
            f"{truth_path} does not log the frames of the capture in {traces_dir}: {exc}"
        ) from None


def _out_dir(args) -> Path:
    """The ``--out`` directory, made just before the first write so a failed run leaves none."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    run = _load_run(args)
    voltage, powers, truth = simulate(run.scenario)
    out = _out_dir(args)
    traceio.write_trace_file(
        out / VOLTAGE_FILE, voltage.samples, TraceKind.VOLTAGE, voltage.sample_rate
    )
    for ecu, trace in zip(run.scenario.ecus, powers):
        traceio.write_trace_file(
            out / power_file(ecu.index), trace.samples, TraceKind.POWER, trace.sample_rate
        )
    traceio.write_ground_truth(out / GROUND_TRUTH_FILE, truth)
    print(
        f"simulated {len(truth)} frames ({truth.attack_count} attack) "
        f"over {run.scenario.duration:.3f}s at {run.scenario.bus.bitrate:.0f} bps"
    )
    print(f"wrote {VOLTAGE_FILE}, {len(powers)} power trace(s), {GROUND_TRUTH_FILE} in {out}")
    return 0


def cmd_train(args) -> int:
    run = _load_run(args)
    traces_dir = Path(args.traces)
    truth_path = traces_dir / GROUND_TRUTH_FILE
    if not truth_path.exists():
        raise CanoaError(f"missing {truth_path}")
    samap = run.scenario.source_map()
    decoded = _decode_capture(traces_dir, run.scenario.bus.bitrate, samap)
    powers = _read_powers(traces_dir)
    truth = traceio.read_ground_truth(truth_path)
    # a log of another capture would let its attack frames into training; a
    # frame that fails the CRC may have started at noise, so it is not matched
    _align_truth([d for d in decoded if d.crc_ok], truth, truth_path, traces_dir)
    training_set = normal_transmissions(decoded, truth)
    if len(training_set) < len(decoded):
        print(
            f"excluding {len(decoded) - len(training_set)} attack frame(s) from training "
            "per the ground-truth log"
        )
    result = build_bundle(powers, training_set, samap, run.pipeline, run.train)
    out = _out_dir(args)
    traceio.save_bundle(out / BUNDLE_FILE, result.bundle)

    report_lines = [
        f"transmissions: {len(result.transmissions)} (tau = {result.bundle.tau.value * 1e3:.4f} ms)"
    ]
    for ecu, (kept, retained) in result.pca.items():
        report_lines.append(f"ecu {ecu}: pca_components={kept} variance_retained={retained:.4f}")
    for sa, meta in result.meta.items():
        curve = result.curves[sa]
        report_lines.append(
            f"sa {sa} (ecu {samap.owners[sa]}): val_accuracy={meta.validation_accuracy:.4f} "
            f"iterations={meta.iterations} converged={meta.converged} "
            f"final_loss={curve.val_loss[-1]:.6f}"
        )
        rows = [["iteration", "train_loss", "val_loss"]]
        rows += [
            [i, repr(float(tr)), repr(float(va))]
            for i, (tr, va) in enumerate(zip(curve.train_loss, curve.val_loss))
        ]
        (out / f"learning_curve_{sa}.csv").write_text(render(rows, "csv"))
    rows = [["sa", "rounds", "min", "q1", "median", "q3", "max"]]
    for (ecu, sa), ds in sorted(result.datasets.items(), key=lambda kv: kv[0][1]):
        acc = bootstrap_accuracy(ds, run.train).accuracies
        stats = acc.min(), np.percentile(acc, 25), np.median(acc), np.percentile(acc, 75), acc.max()
        rows.append([sa, acc.size, *(repr(float(v)) for v in stats)])
    (out / "bootstrap_accuracy.csv").write_text(render(rows, "csv"))
    (out / "training_report.txt").write_text("\n".join(report_lines) + "\n")
    print("\n".join(report_lines))
    print(f"wrote {BUNDLE_FILE}, learning curves, bootstrap accuracies in {out}")
    return 0


def cmd_authenticate(args) -> int:
    traces_dir = Path(args.traces)
    bundle = traceio.load_bundle(args.bundle)
    if args.delta is not None:
        bundle = dataclasses.replace(bundle, delta=args.delta)
    decoded = _decode_capture(traces_dir, args.bitrate, bundle.samap)
    powers = _read_powers(traces_dir)
    usable = usable_transmissions(decoded, powers, bundle.tau)
    if not usable:
        crc_failed = sum(not d.crc_ok for d in decoded)
        raise EmptyInput(
            f"no usable transmission at --bitrate {args.bitrate:.0f}: "
            f"{len(decoded)} decoded, {crc_failed} failed the CRC"
        )
    verdicts = authenticate_all(usable, powers, bundle)
    # a ground-truth log that does not pair with the capture fails before any output
    truth_path = traces_dir / GROUND_TRUTH_FILE
    truth = traceio.read_ground_truth(truth_path) if truth_path.exists() else None
    if truth is not None:
        pairs = _align_truth(verdicts, truth, truth_path, traces_dir)
    out = _out_dir(args)
    traceio.write_verdicts(out / "verdicts.csv", verdicts, bundle.samap.sas, bundle.delta)
    ext = "csv" if args.format == "csv" else "txt"

    summary = [f"authenticated {len(verdicts)} transmissions ({len(decoded)} decoded)"]
    # attack frames claim an SA their sender does not own, so with ground truth
    # the sender tables cover only the frames it logs as normal
    sender_verdicts, scope = verdicts, "all authenticated frames"
    if truth is not None:
        sender_verdicts = [v for v, e in pairs if e.kind is AttackKind.NORMAL]
        scope = "normal frames per ground truth"
        cm_attack = attack_confusion(verdicts, truth)
        (out / f"attack_confusion.{ext}").write_text(render(confusion_rows(cm_attack), args.format))
        # a rate over no frames of its truth class is left out, not printed as 0
        for i, label in enumerate(cm_attack.labels):
            if cm_attack.counts[i].sum():
                summary.append(f"{label}->{label} rate: {cm_attack.rate(label, label):.4f}")
    if sender_verdicts:
        cm_sender = sender_confusion(sender_verdicts, bundle.samap)
        sender_report = metrics(cm_sender)
        for name, rows in (
            ("sender_confusion", confusion_rows(cm_sender)),
            ("sender_metrics", metric_rows(sender_report)),
        ):
            (out / f"{name}.{ext}").write_text(render(rows, args.format, title=f"scope: {scope}"))
        summary.append(f"sender accuracy ({scope}): {sender_report.accuracy:.4f}")
    else:
        summary.append(f"no sender tables: the capture holds no {scope}")
    print("\n".join(summary))
    print(f"wrote verdicts.csv and report tables in {out}")
    return 0


def cmd_sweep(args) -> int:
    run = _load_run(args)
    cells = grid_cells()
    grid = factor_sweep(
        run.scenario,
        cells=cells,
        pipeline_cfg=run.pipeline,
        train_cfg=run.train,
        jobs=args.jobs,
    )
    # one row per cell: its levels, then its metrics or the error that stopped it
    rows = [
        ["bitrate", "format", "program", "accuracy", "precision", "recall", "f_measure", "error"]
    ]
    for cell in cells:
        rep = grid.reports.get(cell)
        scores = (
            ["", "", "", "", grid.errors[cell]]
            if rep is None
            else [rep.accuracy, rep.macro_precision, rep.macro_recall, rep.macro_f, ""]
        )
        rows.append([int(cell.bitrate), cell.frame_format.value, cell.program.value, *scores])
    ext = "csv" if args.format == "csv" else "txt"
    content = render(rows, args.format)
    out = _out_dir(args)
    (out / f"sweep_grid.{ext}").write_text(content)
    print(content, end="")
    print(f"wrote sweep_grid.{ext} in {out} ({len(grid.reports)}/{len(cells)} cells complete)")
    if not grid.reports:
        raise EmptyInput(f"no sweep cell completed: {len(grid.errors)} of {len(cells)} failed")
    return 0


def cmd_all(args) -> int:
    cmd_simulate(args)
    args.traces = args.out
    cmd_train(args)
    args.bundle = str(Path(args.out) / BUNDLE_FILE)
    args.bitrate = _load_run(args).scenario.bus.bitrate
    return cmd_authenticate(args)


def build_parser() -> _Parser:
    parser = _Parser(prog="canoa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "config": dict(required=True, help="key=value run configuration"),
        "out": dict(required=True, help="output directory"),
        "seed": dict(type=non_negative_int, default=None, help="override the scenario seed"),
        "delta": dict(type=unit_interval, default=None, help="override the decision threshold"),
        "format": dict(choices=("csv", "text"), default="text", help="report table layout"),
    }

    def options(p, *names):
        for name in names:
            p.add_argument(f"--{name}", **shared[name])

    p_sim = sub.add_parser("simulate", help="synthesize traces and ground truth")
    options(p_sim, "config", "out", "seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_train = sub.add_parser("train", help="decode traces and train the per-SA models")
    options(p_train, "config", "out", "seed", "delta")
    p_train.add_argument("--traces", required=True, help="directory with trace files")
    p_train.set_defaults(func=cmd_train)

    p_auth = sub.add_parser("authenticate", help="attribute senders and classify attacks")
    options(p_auth, "out", "delta", "format")
    p_auth.add_argument("--traces", required=True, help="directory with trace files")
    p_auth.add_argument("--bundle", required=True, help="trained model bundle")
    p_auth.add_argument(
        "--bitrate", type=positive_finite, required=True, help="bus bitrate in bits/s"
    )
    p_auth.set_defaults(func=cmd_authenticate)

    p_sweep = sub.add_parser("sweep", help="run the bus-speed x format x program grid")
    options(p_sweep, "config", "out", "seed", "format")
    p_sweep.add_argument("--jobs", type=positive_int, default=1, help="parallel worker processes")
    p_sweep.set_defaults(func=cmd_sweep)

    p_all = sub.add_parser("all", help="simulate, train, and authenticate in one directory")
    options(p_all, "config", "out", "seed", "delta", "format")
    p_all.set_defaults(func=cmd_all)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("CANOA_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ConfigError, CanoaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
