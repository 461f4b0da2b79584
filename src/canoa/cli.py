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
import dataclasses
import logging
import math
import os
import sys
from pathlib import Path

from . import traceio
from .authenticate import authenticate_all
from .bus import AttackKind, simulate
from .config import RunConfig, parse_config
from .errors import CanoaError, ConfigError, EmptyInput, FileFormatError, LengthMismatch
from .evaluate import ConfusionMatrix, MetricReport, metrics
from .frames import decode_transmissions
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


def positive_int(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def positive_finite(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def unit_interval(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


def power_file(index: int) -> str:
    return f"power_{index:03d}.ctrc"


# -------------------------------------------------------------- rendering


def render_confusion(cm: ConfusionMatrix, fmt: str) -> str:
    names = [str(lab) for lab in cm.labels]
    if fmt == "csv":
        lines = ["truth," + ",".join(names)]
        for i, name in enumerate(names):
            lines.append(name + "," + ",".join(f"{r:.6f}" for r in cm.rates[i]))
        return "\n".join(lines) + "\n"
    width = max(12, max(len(n) for n in names) + 2)
    header = " " * width + "".join(n.rjust(width) for n in names)
    lines = [header]
    for i, name in enumerate(names):
        lines.append(name.rjust(width) + "".join(f"{r:{width}.4f}" for r in cm.rates[i]))
    return "\n".join(lines) + "\n"


def render_metrics(report: MetricReport, fmt: str) -> str:
    if fmt == "csv":
        lines = ["label,precision,recall,f_measure,support,degenerate"]
        for label, m in report.per_label.items():
            lines.append(
                f"{label},{m.precision:.6f},{m.recall:.6f},{m.f_measure:.6f},{m.support},{int(m.degenerate)}"
            )
        lines.append(f"accuracy,{report.accuracy:.6f},,,,")
        lines.append(
            f"macro,{report.macro_precision:.6f},{report.macro_recall:.6f},{report.macro_f:.6f},,"
        )
        return "\n".join(lines) + "\n"
    lines = [f"{'label':>16} {'precision':>10} {'recall':>10} {'f-measure':>10} {'support':>8}"]
    for label, m in report.per_label.items():
        flag = " *" if m.degenerate else ""
        lines.append(
            f"{str(label):>16} {m.precision:>10.4f} {m.recall:>10.4f} {m.f_measure:>10.4f} {m.support:>8}{flag}"
        )
    lines.append(f"accuracy: {report.accuracy:.4f}")
    lines.append(
        f"macro: precision={report.macro_precision:.4f} recall={report.macro_recall:.4f} f={report.macro_f:.4f}"
    )
    return "\n".join(lines) + "\n"


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


def _read_traces(traces_dir: Path) -> tuple[SampledTrace, dict[int, SampledTrace]]:
    voltage_path = traces_dir / VOLTAGE_FILE
    if not voltage_path.exists():
        raise CanoaError(f"missing {voltage_path}")
    voltage = _read_channel(voltage_path, TraceKind.VOLTAGE)
    powers = {}
    for path in sorted(traces_dir.glob("power_*.ctrc")):
        digits = path.stem.removeprefix("power_")
        if not (digits.isdecimal() and path.name == power_file(int(digits))):
            raise FileFormatError(f"{path}: not a power trace name such as {power_file(0)}")
        powers[int(digits)] = _read_channel(path, TraceKind.POWER)
    return voltage, powers


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
    voltage, powers = _read_traces(traces_dir)
    samap = run.scenario.source_map()
    decoded = decode_transmissions(voltage, run.scenario.bus.bitrate, samap)
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
        with open(out / f"learning_curve_{sa}.csv", "w") as fh:
            fh.write("iteration,train_loss,val_loss\n")
            for i, (tr, va) in enumerate(zip(curve.train_loss, curve.val_loss)):
                fh.write(f"{i},{float(tr)!r},{float(va)!r}\n")
    with open(out / "bootstrap_accuracy.csv", "w") as fh:
        fh.write("sa,rounds,min,q1,median,q3,max\n")
        for (ecu, sa), ds in sorted(result.datasets.items(), key=lambda kv: kv[0][1]):
            summary = bootstrap_accuracy(ds, run.train)
            q1, q3 = summary.quartiles
            fh.write(
                f"{sa},{summary.accuracies.size},{summary.minimum!r},{q1!r},"
                f"{summary.median!r},{q3!r},{summary.maximum!r}\n"
            )
    (out / "training_report.txt").write_text("\n".join(report_lines) + "\n")
    print("\n".join(report_lines))
    print(f"wrote {BUNDLE_FILE}, learning curves, bootstrap accuracies in {out}")
    return 0


def cmd_authenticate(args) -> int:
    traces_dir = Path(args.traces)
    bundle = traceio.load_bundle(args.bundle)
    if args.delta is not None:
        bundle = dataclasses.replace(bundle, delta=args.delta)
    voltage, powers = _read_traces(traces_dir)
    decoded = decode_transmissions(voltage, args.bitrate, bundle.samap)
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
        (out / f"attack_confusion.{ext}").write_text(render_confusion(cm_attack, args.format))
        # a rate over no frames of its truth class is left out, not printed as 0
        for i, label in enumerate(cm_attack.labels):
            if cm_attack.counts[i].sum():
                summary.append(f"{label}->{label} rate: {cm_attack.rate(label, label):.4f}")
    if sender_verdicts:
        cm_sender = sender_confusion(sender_verdicts, bundle.samap)
        sender_report = metrics(cm_sender)
        title = "" if args.format == "csv" else f"scope: {scope}\n"
        for name, table in (
            ("sender_confusion", render_confusion(cm_sender, args.format)),
            ("sender_metrics", render_metrics(sender_report, args.format)),
        ):
            (out / f"{name}.{ext}").write_text(title + table)
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
    if args.format == "csv":
        ext, levels, failed = "csv", "{},{},{},", ",,,,{}"
        scores = "{:.6f},{:.6f},{:.6f},{:.6f},"
        lines = ["bitrate,format,program,accuracy,precision,recall,f_measure,error"]
    else:
        ext, levels, failed = "txt", "{:>8} {:>9} {:>14} ", "FAILED: {}"
        scores = "{:>9.4f} {:>10.4f} {:>8.4f} {:>8.4f}"
        lines = [
            f"{'bitrate':>8} {'format':>9} {'program':>14} {'accuracy':>9} {'precision':>10} "
            f"{'recall':>8} {'f':>8}"
        ]
    for cell in cells:
        row = levels.format(int(cell.bitrate), cell.frame_format.value, cell.program.value)
        rep = grid.reports.get(cell)
        if rep is None:
            row += failed.format(grid.errors[cell])
        else:
            row += scores.format(rep.accuracy, rep.macro_precision, rep.macro_recall, rep.macro_f)
        lines.append(row)
    content = "\n".join(lines) + "\n"
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
        "format": dict(choices=("csv", "text"), default="text"),
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
