"""canoa benchmark: one workload per process, end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload lab-train --seed 7 --seconds 10 --trace 0
    python3 -m pytest bench/tests -q    # self-test of the span arithmetic

A run has set-up rounds, one pipeline pass, and monitor iterations that
repeat until ``--seconds`` have passed (see ``workloads.py``). With
``--trace 0`` it reports the end-to-end metrics listed in ``BENCHMARK.json``.
With ``--trace 1`` it runs the timed section twice, untraced and then with
canoa's layer boundaries wrapped (see ``layers.py``), and reports the
per-layer metrics and the tracing overhead. A timing repeated within a run
is reported as its best repeat, and set-up time as the median of its rounds.

Every monitor iteration is checked: the acceptance suite's output bounds,
the frame accounting, batch and single-frame verdicts agreeing, and the
verdict digest repeating across iterations and across runs of the same
program at the same seed. A failed check makes the result ``correct: false``
and counts the iteration's frames as failed.

Standard output holds a table of every metric with its unit and sample
count (metrics that ``BENCHMARK.json`` does not list are marked "report
only"), then a JSON report line (machine, accounting, failures), then the
result object as the last line. Reports, span dumps and the digest record
are written to ``bench/out/``.

canoa is imported from ``src/`` of the checkout this script sits in; without
it the script exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def import_canoa() -> None:
    """Import canoa from this checkout's ``src/``; exit with code 2 without it."""
    if not (SRC / "canoa" / "__init__.py").is_file():
        print(f"error: no canoa source at {SRC / 'canoa'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import canoa

    if Path(canoa.__file__).resolve().parent != (SRC / "canoa").resolve():
        print(f"error: imported canoa from {canoa.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def time_import() -> float:
    """Wall time of a fresh interpreter importing canoa."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import canoa"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def machine(seed: int) -> dict:
    import numpy as np

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "seed": seed,
        "loadavg_start": loadavg,
    }


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` (absent outside a clone)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def program_digest() -> str:
    """Hash of the canoa sources, so recorded verdict digests are per program."""
    h = hashlib.sha256()
    for path in sorted((SRC / "canoa").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digest(key: str, digest: str) -> tuple[bool, str | None]:
    """Record ``digest`` under ``key``; False when an earlier run recorded another."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "digests.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    earlier = record.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return earlier == digest, earlier


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def median_of(values: list[float]) -> dict:
    return {"value": statistics.median(values), "samples": len(values)}


@dataclass
class Section:
    """The timed section once: the pipeline pass, then monitor iterations."""

    stages: dict[str, float]
    pipeline_pass_s: float
    iterations: list
    checks: list

    @property
    def pipeline_s(self) -> float:
        return self.pipeline_pass_s + min(it.total_s for it in self.iterations)


def timed_section(w, tracer, seconds: float, traced: bool) -> Section:
    """Run the pipeline pass, then monitor iterations until ``seconds`` have passed."""
    import workloads

    def unit(run_id, kind):
        return tracer.unit(run_id, kind) if traced else contextlib.nullcontext()

    t0 = time.perf_counter()
    with unit("pipeline", "pipeline"):
        stages = w.pipeline()
    pipeline_pass_s = time.perf_counter() - t0
    iterations, checks = [], []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        with unit(f"monitor-{len(iterations)}", "monitor"):
            it = w.iterate()
        checks.append(workloads.check(w, it))
        it.drop_outputs()
        iterations.append(it)
    return Section(stages, pipeline_pass_s, iterations, checks)


def end_to_end(w, section: Section, import_s, setup_s) -> dict:
    """Every end-to-end metric, each with its sample count.

    A timing repeated within the run is reported as its best (lowest time,
    highest rate) repeat: on a shared host the slower repeats measure other
    tenants. Set-up time is the median of its rounds.
    """
    iterations, checks = section.iterations, section.checks
    calls = sum(len(it.attribute_s) for it in iterations)

    def attribute_ms(q):
        # each iteration's percentile over its attribute() calls, best iteration
        return {
            "value": min(percentile(it.attribute_s, q) for it in iterations) * 1e3,
            "samples": calls,
        }

    def stage(key):
        # a stage of the pipeline pass, or the best of the set-up rounds it runs in
        values = [section.stages[key]] if key in section.stages else w.setup_timings[key]
        return {"value": min(values), "samples": len(values)}

    values = {
        "setup_s": {
            "value": statistics.median(import_s) + statistics.median(setup_s),
            "samples": len(setup_s),
        },
        "simulate_s": stage("simulate_s"),
        "train_s": stage("train_s"),
        "authenticate_fps": {
            "value": max(it.auth_frames / it.auth_s for it in iterations),
            "samples": len(iterations),
        },
        "attribute_p50_ms": attribute_ms(50),
        "attribute_p99_ms": attribute_ms(99),
        "pipeline_s": {"value": section.pipeline_s, "samples": len(iterations)},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "samples": 1,
        },
        "sender_accuracy": median_of([c["sender_accuracy"] for c in checks]),
        "normal_pass_rate": median_of([c["normal_pass_rate"] for c in checks]),
        "failed_ratio": median_of(
            [1 - c["accounting"]["verdicted"] / c["accounting"]["bus_frames"] for c in checks]
        ),
    }
    if checks[0]["attack_recall"] is not None:
        values["attack_recall"] = median_of([c["attack_recall"] for c in checks])
    return values


UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "train_s": "s",
    "authenticate_fps": "frames/s",
    "attribute_p50_ms": "ms",
    "attribute_p99_ms": "ms",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "sender_accuracy": "ratio",
    "normal_pass_rate": "ratio",
    "attack_recall": "ratio",
    "failed_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "traceio.bytes_read":
        return "bytes"
    return "count"


def run(args) -> int:
    t_start = time.perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_canoa()
    # imports are timed in fresh interpreters, before and after each set-up round
    import_s = [time_import()]

    import layers
    import workloads
    from spans import Tracer

    info = machine(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH / "_work" / f"{tag}-{os.getpid()}"
    w = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
    tracer = Tracer()
    setup_s = []
    try:
        with layers.installed(tracer) if args.trace else contextlib.nullcontext():
            for i in range(w.setup_rounds):
                t0 = time.perf_counter()
                with tracer.unit(f"setup-{i}", "setup"):
                    w.setup()
                setup_s.append(time.perf_counter() - t0)
                import_s.append(time_import())
            sections = [timed_section(w, tracer, args.seconds, traced=False)]
            if args.trace:
                sections.append(timed_section(w, tracer, args.seconds, traced=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures: list[str] = []
    checks = [c for section in sections for c in section.checks]
    # determinism: within this run, then against earlier runs of this program and seed
    digests = {c["digest"] for c in checks}
    if len(digests) != 1:
        failures.append(f"verdict digest differs across iterations: {sorted(digests)}")
    key = f"{args.workload}:seed{args.seed}:{program_digest()}"
    same, earlier = check_digest(key, checks[0]["digest"])
    if not same:
        failures.append(f"verdict digest {checks[0]['digest']} differs from an earlier run's {earlier}")

    attempted = failed = 0
    for c in checks:
        bus_frames = c["accounting"]["bus_frames"]
        attempted += bus_frames
        missed = [name for name, (ok, _) in c["gates"].items() if not ok]
        failed += bus_frames if missed else bus_frames - c["accounting"]["verdicted"]
        failures += [f"{n}: {c['gates'][n][1]}" for n in missed]

    if args.trace:
        values, mismatches = layers.layer_metrics(tracer)
        failures += mismatches
        untraced, traced = sections
        values["trace_overhead_s"] = {
            "value": traced.pipeline_s - untraced.pipeline_s,
            "samples": {"monitor": min(len(untraced.iterations), len(traced.iterations))},
        }
        units = {name: layer_unit(name) for name in values}
        wanted = spec["per_layer"]
        extra = {"top_self_span": layers.top_self_span(tracer), "spans": len(tracer.spans)}
    else:
        values = end_to_end(w, sections[0], import_s, setup_s)
        units = UNITS
        wanted = spec["end_to_end"]
        extra = {"import_s": import_s, "setup_rounds_s": setup_s}
    extra["iterations_s"] = [[it.total_s for it in s.iterations] for s in sections]
    extra["pipeline_pass_s"] = [s.pipeline_pass_s for s in sections]

    metrics = {}
    for m in wanted:
        entry = values.get(m["name"])
        if entry is None or entry["value"] is None:
            failures.append(f"metric {m['name']} was not measured")
            continue
        if units[m["name"]] != m["unit"]:
            failures.append(
                f"metric {m['name']} is in {units[m['name']]}, BENCHMARK.json says {m['unit']}"
            )
        metrics[m["name"]] = {"value": entry["value"], "unit": m["unit"]}

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{sum(len(s.iterations) for s in sections)} monitor iteration(s), "
        f"{time.perf_counter() - t_start:.1f} s wall"
    )
    for name, entry in values.items():
        if entry["value"] is None:
            continue
        flag = "" if name in metrics else "  (report only)"
        print(f"  {name:34s} {entry['value']:>16.6g} {units[name]:9s} n={entry['samples']}{flag}")
    for name, (ok, detail) in checks[0]["gates"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}: {detail}")
    for f in failures:
        print(f"  FAILED: {f}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": info,
        "program": program_digest(),
        "values": values,
        "accounting": checks[0]["accounting"],
        "decisions": checks[0]["decisions"],
        "digest": checks[0]["digest"],
        "failures": failures,
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1, default=str))
    if args.trace:
        (OUT / f"{tag}.spans.json").write_text(json.dumps(tracer.to_json()))
    print(json.dumps({"report": report}, default=str))
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("lab-train", "truck-attack-monitor"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        return run(args)
    except Exception:
        # a run that raises counts as failed; it still ends in a result line
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
