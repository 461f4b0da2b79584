"""The benchmark workloads, run through canoa's public API.

Every call into canoa goes through a module attribute (``bus.simulate``)
so the traced run's wrappers see it. A workload has three parts:

- set-up rounds: load the config, build the scenario, simulate it and write
  the capture (the truck workload also trains here); the last round's state
  is used;
- one pipeline pass, the training a researcher waits for per scenario;
- monitor iterations, repeated until the run's time is up: the
  ``canoa authenticate`` path over the capture, then one ``attribute()``
  call per usable frame, as an online monitor would make them.

Checks on an iteration's outputs run after it, outside its timing.

- ``lab-train``: ``configs/lab.cfg``. Set-up simulates and writes the
  capture; the pipeline pass is the ``canoa train`` path (read, decode,
  drop attack frames, ``build_bundle``, save, ``bootstrap_accuracy`` per
  dataset).
- ``truck-attack-monitor``: ``configs/truck_attack.cfg``. Set-up simulates,
  writes the capture and runs the train path; there is no pipeline pass, so
  PCA and SVM training do no timed work here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from canoa import authenticate, bus, config, evaluate, frames, svm, traceio, workflow
from canoa.authenticate import Decision
from canoa.bus import AttackKind
from canoa.trace import SampledTrace
from canoa.traceio import TraceKind

VOLTAGE_FILE = "voltage.ctrc"
GROUND_TRUTH_FILE = "ground_truth.csv"
BUNDLE_FILE = "bundle.cbnd"

# The acceptance suite's bounds (tests/test_acceptance.py, criteria 2 and 3).
LAB_TAU_MS, LAB_TAU_TOLERANCE = 1.02, 0.10
LAB_DIAGONAL_MIN = 0.99
TRUCK_ATTACK_RATE = 1.0
TRUCK_NORMAL_RATE_MIN = 0.99


def now() -> float:
    return time.perf_counter()


def load_run(path: Path, seed: int) -> config.RunConfig:
    """A config with its scenario and training seeds replaced, as ``--seed`` does."""
    run = config.parse_config(path)
    return config.RunConfig(
        scenario=dataclasses.replace(run.scenario, seed=seed),
        pipeline=run.pipeline,
        train=dataclasses.replace(run.train, seed=seed),
    )


def write_capture(out: Path, scenario, voltage, powers, truth) -> None:
    out.mkdir(parents=True, exist_ok=True)
    traceio.write_trace_file(
        out / VOLTAGE_FILE, voltage.samples, TraceKind.VOLTAGE, voltage.sample_rate
    )
    for ecu, trace in zip(scenario.ecus, powers):
        traceio.write_trace_file(
            out / f"power_{ecu.index:03d}.ctrc", trace.samples, TraceKind.POWER, trace.sample_rate
        )
    traceio.write_ground_truth(out / GROUND_TRUTH_FILE, truth)


def read_traces(capture: Path) -> tuple[SampledTrace, dict[int, SampledTrace]]:
    vfile = traceio.read_trace_file(capture / VOLTAGE_FILE)
    voltage = SampledTrace(vfile.samples[0], vfile.sample_rate, vfile.start_time)
    powers = {}
    for path in sorted(capture.glob("power_*.ctrc")):
        pfile = traceio.read_trace_file(path)
        powers[int(path.stem.split("_")[1])] = SampledTrace(
            pfile.samples[0], pfile.sample_rate, pfile.start_time
        )
    return voltage, powers


def train_from_capture(run: config.RunConfig, capture: Path) -> None:
    """The ``canoa train`` path, without its report files."""
    voltage, powers = read_traces(capture)
    samap = run.scenario.source_map()
    decoded = frames.decode_transmissions(voltage, run.scenario.bus.bitrate, samap)
    truth = traceio.read_ground_truth(capture / GROUND_TRUTH_FILE)
    training_set = workflow.normal_transmissions(decoded, truth)
    result = workflow.build_bundle(powers, training_set, samap, run.pipeline, run.train)
    traceio.save_bundle(capture / BUNDLE_FILE, result.bundle)
    for _, ds in sorted(result.datasets.items(), key=lambda kv: kv[0][1]):
        svm.bootstrap_accuracy(ds, run.train)


def simulate_capture(scenario, capture: Path) -> float:
    """Simulate the scenario and write the capture; the seconds ``simulate`` took."""
    t0 = now()
    voltage, powers, truth = bus.simulate(scenario)
    simulate_s = now() - t0
    write_capture(capture, scenario, voltage, powers, truth)
    return simulate_s


@dataclass
class Iteration:
    """One monitor iteration: timings plus the outputs the checks need."""

    bitrate: float
    auth_s: float = 0.0
    auth_frames: int = 0
    attribute_s: list[float] = field(default_factory=list)
    total_s: float = 0.0
    bundle: authenticate.ModelBundle | None = None
    truth: bus.GroundTruthLog | None = None
    powers: dict = field(default_factory=dict)
    decoded: list = field(default_factory=list)
    usable: list = field(default_factory=list)
    batch: list = field(default_factory=list)  # authenticate_all verdicts, one per usable frame
    single: list = field(default_factory=list)  # attribute() verdicts, one per usable frame

    def drop_outputs(self) -> None:
        """Free traces and verdicts once checked, so iterations do not pile up in memory."""
        self.bundle = self.truth = None
        self.powers, self.decoded, self.usable, self.batch, self.single = {}, [], [], [], []


def authenticate_capture(it: Iteration, capture: Path) -> None:
    """The ``canoa authenticate`` path, without its report files."""
    bundle = traceio.load_bundle(capture / BUNDLE_FILE)
    voltage, powers = read_traces(capture)
    decoded = frames.decode_transmissions(voltage, it.bitrate, bundle.samap)
    usable = workflow.usable_transmissions(decoded, powers, bundle.tau)
    verdicts = authenticate.authenticate_all(usable, powers, bundle)
    workflow.sender_confusion(verdicts, bundle.samap)
    truth = traceio.read_ground_truth(capture / GROUND_TRUTH_FILE)
    workflow.attack_confusion(verdicts, truth)
    it.bundle, it.truth, it.powers, it.decoded, it.usable = bundle, truth, powers, decoded, usable
    it.batch = verdicts


def attribute_each(it: Iteration) -> None:
    for tx in it.usable:
        t0 = now()
        verdict = authenticate.attribute(tx, it.powers, it.bundle)
        it.attribute_s.append(now() - t0)
        it.single.append(verdict)


class Workload:
    name: str
    config_file: str
    setup_rounds = 3

    def __init__(self, root: Path, work: Path, seed: int):
        self.config_path = root / "configs" / self.config_file
        self.capture = work / "capture"
        self.seed = seed
        self.setup_timings: dict[str, list[float]] = {}

    def setup(self) -> None:
        self.run = load_run(self.config_path, self.seed)
        self._note("simulate_s", simulate_capture(self.run.scenario, self.capture))

    def _note(self, key: str, seconds: float) -> None:
        self.setup_timings.setdefault(key, []).append(seconds)

    def pipeline(self) -> dict[str, float]:
        """The pipeline pass; returns its stage timings."""
        return {}

    def iterate(self) -> Iteration:
        it = Iteration(bitrate=self.run.scenario.bus.bitrate)
        t0 = now()
        authenticate_capture(it, self.capture)
        it.auth_s = now() - t0
        it.auth_frames = len(it.batch)
        attribute_each(it)
        it.total_s = now() - t0
        return it

    def gates(self, it: Iteration) -> dict[str, tuple[bool, str]]:
        raise NotImplementedError


class LabTrain(Workload):
    name = "lab-train"
    config_file = "lab.cfg"

    def pipeline(self) -> dict[str, float]:
        t0 = now()
        train_from_capture(self.run, self.capture)
        return {"train_s": now() - t0}

    def gates(self, it: Iteration) -> dict[str, tuple[bool, str]]:
        tau_ms = it.bundle.tau.value * 1e3
        cm = workflow.sender_confusion(normal_verdicts(it), it.bundle.samap)
        diagonal = [float(cm.rates[i, i]) for i in range(len(cm.labels))]
        return {
            "tau": (
                abs(tau_ms - LAB_TAU_MS) <= LAB_TAU_MS * LAB_TAU_TOLERANCE,
                f"tau={tau_ms:.4f} ms (1.02 +/- 10%)",
            ),
            "diagonal": (
                min(diagonal) >= LAB_DIAGONAL_MIN,
                f"sender-confusion diagonal={[round(d, 4) for d in diagonal]} (>= 0.99)",
            ),
        }


class TruckAttackMonitor(Workload):
    name = "truck-attack-monitor"
    config_file = "truck_attack.cfg"

    def __init__(self, root: Path, work: Path, seed: int):
        super().__init__(root, work, seed)
        self.bundle_digests: list[str] = []

    def setup(self) -> None:
        super().setup()
        t0 = now()
        train_from_capture(self.run, self.capture)
        self._note("train_s", now() - t0)
        digest = hashlib.sha256((self.capture / BUNDLE_FILE).read_bytes()).hexdigest()
        self.bundle_digests.append(digest)

    def gates(self, it: Iteration) -> dict[str, tuple[bool, str]]:
        cm = workflow.attack_confusion(it.batch, it.truth)
        attack_rate = cm.rate("attack", "attack")
        normal_rate = cm.rate("normal", "normal")
        bundles = len(set(self.bundle_digests))
        return {
            "attack_rate": (
                attack_rate == TRUCK_ATTACK_RATE,
                f"attack->attack={attack_rate:.4f} (= 1.0)",
            ),
            "normal_rate": (
                normal_rate >= TRUCK_NORMAL_RATE_MIN,
                f"normal->normal={normal_rate:.4f} (>= 0.99)",
            ),
            "bundle_repeats": (
                bundles == 1,
                f"{len(self.bundle_digests)} set-up rounds gave {bundles} distinct bundle(s)",
            ),
        }


WORKLOADS = {w.name: w for w in (LabTrain, TruckAttackMonitor)}


# ------------------------------------------------------------------- checks


def normal_verdicts(it: Iteration) -> list:
    pairs = workflow.align_truth(it.single, it.truth)
    return [v for v, e in pairs if e.kind is AttackKind.NORMAL]


def verdict_digest(verdicts) -> str:
    h = hashlib.sha256()
    for v in verdicts:
        h.update(f"{v.t!r},{v.claimed_sa},{v.attributed_sa},{v.decision.value}\n".encode())
    return h.hexdigest()


def frame_accounting(it: Iteration) -> dict:
    """Bus frames split by how they ended; ``balanced`` when the sides agree.

    A bus frame counts as decoded when a decoded transmission starts within
    half a bit time of it. A decoded transmission that matches no bus frame,
    or a frame already matched, leaves the sum unbalanced.
    """
    bus_t = np.array([e.t for e in it.truth.entries])
    dec_t = np.array([d.t for d in it.decoded])
    matched = np.zeros(bus_t.size, dtype=bool)
    if dec_t.size and bus_t.size:
        idx = np.searchsorted(bus_t, dec_t)
        lo = np.clip(idx - 1, 0, bus_t.size - 1)
        hi = np.clip(idx, 0, bus_t.size - 1)
        nearest = np.where(np.abs(dec_t - bus_t[lo]) <= np.abs(dec_t - bus_t[hi]), lo, hi)
        close = np.abs(bus_t[nearest] - dec_t) <= 0.5 / it.bitrate
        matched[nearest[close]] = True
    ok = [d for d in it.decoded if d.crc_ok]
    mapped = sum(1 for d in ok if d.sa is not None)
    counts = {
        "bus_frames": int(bus_t.size),
        "verdicted": len(it.single),
        "undecoded": int(bus_t.size - matched.sum()),
        "crc_failed": len(it.decoded) - len(ok),
        "unmapped": len(ok) - mapped,
        "out_of_window": mapped - len(it.usable),
    }
    counts["balanced"] = sum(counts.values()) - counts["bus_frames"] == counts["bus_frames"]
    return counts


def check(w: Workload, it: Iteration) -> dict:
    """Gates, frame accounting, quality ratios and the verdict digest of an iteration."""
    gates = w.gates(it)
    agree = sum(
        (a.decision, a.attributed_sa) == (b.decision, b.attributed_sa)
        for a, b in zip(it.batch, it.single)
    )
    gates["batch_matches_single"] = (
        agree == len(it.batch) == len(it.single),
        f"{agree}/{len(it.batch)} authenticate_all verdicts match attribute()",
    )
    accounting = frame_accounting(it)
    gates["accounting"] = (accounting["balanced"], f"frame accounting {accounting}")
    cm_attack = workflow.attack_confusion(it.single, it.truth)
    has_attacks = bool(cm_attack.counts[1].sum())
    normal = normal_verdicts(it)
    return {
        "gates": gates,
        "accounting": accounting,
        "digest": verdict_digest(it.single),
        "sender_accuracy": evaluate.metrics(
            workflow.sender_confusion(normal, it.bundle.samap)
        ).accuracy,
        "normal_pass_rate": cm_attack.rate("normal", "normal"),
        "attack_recall": cm_attack.rate("attack", "attack") if has_attacks else None,
        "decisions": {d.value: sum(v.decision is d for v in it.single) for d in Decision},
    }
