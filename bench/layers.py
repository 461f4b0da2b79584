"""The canoa layer boundaries the traced run wraps, and the per-layer metrics.

Each boundary is a public function (or method) of a ``canoa`` module. While
the tracer is installed, every module attribute that holds the function is
replaced by a wrapper that records a span, so calls made through names
imported into other modules are seen too. Nothing under ``src/`` changes.
The workloads call canoa through module attributes (``bus.simulate``, not a
name imported once), so their own calls are seen as well.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager

from spans import Tracer, self_times, untraced_time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _decode_counts(args, kwargs, result):
    ok = [d for d in result if d.crc_ok]
    return {
        "decoded": len(result),
        "crc_failed": len(result) - len(ok),
        "unmapped": sum(1 for d in ok if d.sa is None),
    }


def _segment_len(args, kwargs):
    trace = _arg(args, kwargs, 0, "trace")
    return _arg(args, kwargs, 3, "tau").sample_count(trace.sample_rate)


def _pca_counts(args, kwargs, result):
    rows, cols = _arg(args, kwargs, 0, "spectra").shape
    return {"rows": rows, "cols": cols}


def _train_counts(args, kwargs, result):
    meta = result[0].meta
    return {"models": 1, "epochs": meta.iterations, "converged": int(meta.converged)}


def _verdict_counts(args, kwargs, result):
    decisions = [v.decision.value for v in result]
    return {
        "frames": len(result),
        "added_module": decisions.count("added_module"),
        "impersonation": decisions.count("impersonation"),
        "ties": sum(1 for v in result if v.tie),
        "multiple_positive": sum(1 for v in result if v.multiple_positive),
    }


# (module, attribute, counter(args, kwargs, result) -> counts)
BOUNDARIES = [
    ("bus", "simulate", None),
    ("frames", "arbitrate", lambda a, k, r: {"requests": len(_arg(a, k, 0, "start_requests"))}),
    ("bus", "synth_voltage", lambda a, k, r: {"samples": r.samples.size}),
    (
        "bus",
        "synth_power",
        lambda a, k, r: {"samples": r.samples.size, "power_events": len(_arg(a, k, 1, "timeline"))},
    ),
    ("frames", "decode_transmissions", _decode_counts),
    ("traceio", "write_trace_file", None),
    ("traceio", "read_trace_file", lambda a, k, r: {"bytes_read": os.path.getsize(_arg(a, k, 0, "path"))}),
    ("traceio", "save_bundle", None),
    ("traceio", "load_bundle", None),
    ("features", "estimate_norm_stats", None),
    ("features", "ecu_spectra", lambda a, k, r: {"rows": r.shape[0], "fft_len": _segment_len(a, k)}),
    ("features", "extract_feature", lambda a, k, r: {"rows": 1, "fft_len": _segment_len(a, k)}),
    ("features", "fit_pca", _pca_counts),
    ("features", "PcaBasis.transform", None),
    ("svm", "train", _train_counts),
    ("svm", "platt_fit", None),
    (
        "svm",
        "bootstrap_accuracy",
        lambda a, k, r: {"rounds": _arg(a, k, 1, "cfg").bootstrap_rounds, "used": r.accuracies.size},
    ),
    ("authenticate", "authenticate_all", _verdict_counts),
    ("authenticate", "attribute", None),
    ("workflow", "build_bundle", None),
    (
        "workflow",
        "usable_transmissions",
        lambda a, k, r: {"in": len(_arg(a, k, 0, "decoded")), "out": len(r)},
    ),
    ("workflow", "normal_transmissions", None),
    ("workflow", "align_truth", None),
    ("evaluate", "confusion", None),
]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every boundary at every ``canoa`` module attribute that holds it."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "canoa"]
    patched = []
    try:
        for layer, attr, counter in BOUNDARIES:
            owner = sys.modules[f"canoa.{layer}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                patched.append((cls, method, original))
                setattr(cls, method, tracer.wrap(f"{layer}.{attr}", original, counter))
                continue
            original = getattr(owner, attr)
            traced = tracer.wrap(f"{layer}.{attr}", original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, key, original))
                        setattr(module, key, traced)
        yield
    finally:
        for obj, key, original in reversed(patched):
            setattr(obj, key, original)


# metric -> span names whose self times it sums
TIME_METRICS = {
    "bus.simulate_self_s": ("bus.simulate",),
    "frames.arbitrate_s": ("frames.arbitrate",),
    "bus.synth_voltage_s": ("bus.synth_voltage",),
    "bus.synth_power_s": ("bus.synth_power",),
    "frames.decode_s": ("frames.decode_transmissions",),
    "traceio.write_s": ("traceio.write_trace_file",),
    "traceio.read_s": ("traceio.read_trace_file",),
    "traceio.bundle_save_s": ("traceio.save_bundle",),
    "traceio.bundle_load_s": ("traceio.load_bundle",),
    "features.norm_stats_s": ("features.estimate_norm_stats",),
    "features.spectra_s": ("features.ecu_spectra", "features.extract_feature"),
    "features.fit_pca_s": ("features.fit_pca",),
    "features.transform_s": ("features.PcaBasis.transform",),
    "svm.train_s": ("svm.train",),
    "svm.platt_s": ("svm.platt_fit",),
    "svm.bootstrap_s": ("svm.bootstrap_accuracy",),
    "authenticate.batch_s": ("authenticate.authenticate_all",),
    "authenticate.attribute_s": ("authenticate.attribute",),
    "workflow.build_bundle_self_s": ("workflow.build_bundle",),
    "workflow.normal_tx_s": ("workflow.normal_transmissions",),
    "workflow.align_truth_s": ("workflow.align_truth",),
    "evaluate.confusion_s": ("evaluate.confusion",),
}

# metric -> (span names, count key, how the unit's span counts combine)
COUNT_METRICS = {
    "frames.requests": (("frames.arbitrate",), "requests", sum),
    "frames.decoded": (("frames.decode_transmissions",), "decoded", sum),
    "frames.crc_failed": (("frames.decode_transmissions",), "crc_failed", sum),
    "frames.unmapped": (("frames.decode_transmissions",), "unmapped", sum),
    "bus.samples": (("bus.synth_voltage", "bus.synth_power"), "samples", sum),
    "bus.power_events": (("bus.synth_power",), "power_events", sum),
    "traceio.bytes_read": (("traceio.read_trace_file",), "bytes_read", sum),
    "features.pca_rows": (("features.fit_pca",), "rows", sum),
    "features.pca_cols": (("features.fit_pca",), "cols", max),
    "features.spectra_rows": (("features.ecu_spectra", "features.extract_feature"), "rows", sum),
    "features.fft_len": (("features.ecu_spectra", "features.extract_feature"), "fft_len", max),
    "svm.epochs": (("svm.train",), "epochs", sum),
    "svm.bootstrap_rounds": (("svm.bootstrap_accuracy",), "rounds", sum),
    "authenticate.frames": (("authenticate.authenticate_all",), "frames", sum),
    "authenticate.added_module": (("authenticate.authenticate_all",), "added_module", sum),
    "authenticate.impersonation": (("authenticate.authenticate_all",), "impersonation", sum),
    "authenticate.ties": (("authenticate.authenticate_all",), "ties", sum),
    "authenticate.multiple_positive": (("authenticate.authenticate_all",), "multiple_positive", sum),
}

# metric -> (span name, numerator key, denominator key); sums over the unit
RATIO_METRICS = {
    "svm.converged_ratio": ("svm.train", "converged", "models"),
    "svm.bootstrap_used_ratio": ("svm.bootstrap_accuracy", "used", "rounds"),
    "workflow.usable_ratio": ("workflow.usable_transmissions", "out", "in"),
}


def _spans_of(metric: str) -> tuple[str, ...]:
    if metric in TIME_METRICS:
        return TIME_METRICS[metric]
    if metric in COUNT_METRICS:
        return COUNT_METRICS[metric][0]
    return (RATIO_METRICS[metric][0],)


def _unit_value(metric: str, rows: list):
    """A metric's value over the spans of one unit, given as (span, self time) rows."""
    if metric in TIME_METRICS:
        return sum(st for _, st in rows)
    if metric in COUNT_METRICS:
        _, key, combine = COUNT_METRICS[metric]
        return combine([s.counts[key] for s, _ in rows] or [0])
    _, num, den = RATIO_METRICS[metric]
    return (sum(s.counts[num] for s, _ in rows), sum(s.counts[den] for s, _ in rows))


def layer_metrics(tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer values for one cycle of the workload, and any count mismatches.

    A cycle is one set-up round, the pipeline pass and one monitor iteration.
    For each kind of unit a metric's spans occur in, a time is the lowest
    over the units of that kind, as the end-to-end timings are, and counts
    must repeat exactly across them; the kinds then add up (``max`` for a
    count that is a size, not a total).
    """
    spans = tracer.spans
    rows_by_unit: dict[str, list] = {}
    for s, st in zip(spans, self_times(spans)):
        rows_by_unit.setdefault(s.run_id, []).append((s, st))
    units_by_kind: dict[str, list] = {}
    for u in tracer.units:
        units_by_kind.setdefault(u.kind, []).append(u)

    values: dict[str, dict] = {}
    mismatches: list[str] = []
    for metric in [*TIME_METRICS, *COUNT_METRICS, *RATIO_METRICS]:
        names = _spans_of(metric)
        parts, samples = [], {}
        for kind, units in units_by_kind.items():
            rows = [[r for r in rows_by_unit.get(u.run_id, ()) if r[0].name in names] for u in units]
            if not any(rows):
                continue
            per_unit = [_unit_value(metric, r) for r in rows]
            samples[kind] = len(per_unit)
            if metric in TIME_METRICS:
                parts.append(min(per_unit))
                continue
            if any(v != per_unit[0] for v in per_unit):
                mismatches.append(f"{metric} differs across {kind} units: {per_unit}")
            parts.append(per_unit[0])
        if not parts:
            value = None
        elif metric in TIME_METRICS:
            value = sum(parts)
        elif metric in COUNT_METRICS:
            value = COUNT_METRICS[metric][2](parts)
        else:
            num, den = sum(p[0] for p in parts), sum(p[1] for p in parts)
            value = num / den if den else None
        values[metric] = {"value": value, "samples": samples}

    untraced = {
        kind: min(untraced_time(spans, u) for u in units)
        for kind, units in units_by_kind.items()
    }
    values["untraced_s"] = {
        "value": sum(untraced.values()) if untraced else None,
        "samples": {kind: len(units) for kind, units in units_by_kind.items()},
    }
    return values, mismatches


def top_self_span(tracer: Tracer) -> dict | None:
    """The single span with the largest self time."""
    if not tracer.spans:
        return None
    selfs = self_times(tracer.spans)
    i = max(range(len(selfs)), key=selfs.__getitem__)
    s = tracer.spans[i]
    return {"name": s.name, "self_s": selfs[i], "run_id": s.run_id, "counts": s.counts}
