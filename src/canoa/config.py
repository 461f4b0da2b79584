"""Plain-text key=value run configuration.

A config names either a scenario preset (``scenario.preset = lab``) with
a few knobs, or a fully explicit scenario via ``ecu.<k>.*`` and
``attack.<i>.*`` keys, plus pipeline and training parameters. Unknown
keys are rejected with their line number. Every knob has a documented
default; parsing an empty file yields the stock lab scenario.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .bus import (
    AttackKind,
    AttackSpec,
    BusConfig,
    EcuSpec,
    MessageSchedule,
    PowerProfile,
    ProgramActivity,
    Scenario,
    lab_scenario,
    truck_scenario,
)
from .errors import ConfigError
from .frames import FrameFormat
from .svm import TrainConfig
from .workflow import PipelineConfig


def _parse_int(raw: str) -> int:
    return int(raw, 0)  # accepts decimal and 0x...


def _parse_float(raw: str) -> float:
    return float(raw)


def _parse_split(raw: str) -> tuple[float, float, float]:
    parts = [float(p) for p in raw.split(",")]
    if len(parts) != 3:
        raise ValueError("split needs three comma-separated ratios")
    return tuple(parts)  # type: ignore[return-value]


_CHOICES = {
    "format": {"standard", "extended"},
    "program": {"uniform", "heterogeneous"},
    "preset": {"lab", "truck", "custom"},
    "kind": {"compromised_ecu", "added_module", "hijack_transmission"},
}

# key pattern -> (value parser, choices key or None)
_SCHEMA: list[tuple[re.Pattern, object, str | None]] = [
    (re.compile(r"^scenario\.preset$"), str, "preset"),
    (re.compile(r"^scenario\.frames_per_sa$"), _parse_int, None),
    (re.compile(r"^scenario\.program$"), str, "program"),
    (re.compile(r"^bus\.bitrate$"), _parse_float, None),
    (re.compile(r"^bus\.format$"), str, "format"),
    (re.compile(r"^bus\.sample_rate$"), _parse_float, None),
    (re.compile(r"^bus\.voltage_noise$"), _parse_float, None),
    (re.compile(r"^sim\.duration$"), _parse_float, None),
    (re.compile(r"^sim\.seed$"), _parse_int, None),
    (re.compile(r"^ecu\.\d+\.baseline_mean$"), _parse_float, None),
    (re.compile(r"^ecu\.\d+\.baseline_noise$"), _parse_float, None),
    (re.compile(r"^ecu\.\d+\.signature_amplitude$"), _parse_float, None),
    (re.compile(r"^ecu\.\d+\.ripple_frequency$"), _parse_float, None),
    (re.compile(r"^ecu\.\d+\.ripple_amplitude$"), _parse_float, None),
    (re.compile(r"^ecu\.\d+\.reception_ripple$"), _parse_float, None),
    (re.compile(r"^ecu\.\d+\.noise_floor$"), _parse_float, None),
    (re.compile(r"^ecu\.\d+\.program$"), str, "program"),
    (re.compile(r"^ecu\.\d+\.msg\.\d+\.sa$"), _parse_int, None),
    (re.compile(r"^ecu\.\d+\.msg\.\d+\.period$"), _parse_float, None),
    (re.compile(r"^ecu\.\d+\.msg\.\d+\.offset$"), _parse_float, None),
    (re.compile(r"^ecu\.\d+\.msg\.\d+\.dlc$"), _parse_int, None),
    (re.compile(r"^ecu\.\d+\.msg\.\d+\.prefix$"), _parse_int, None),
    (re.compile(r"^ecu\.\d+\.msg\.\d+\.count$"), _parse_int, None),
    (re.compile(r"^attack\.\d+\.kind$"), str, "kind"),
    (re.compile(r"^attack\.\d+\.spoofed_sa$"), _parse_int, None),
    (re.compile(r"^attack\.\d+\.attacker$"), _parse_int, None),
    (re.compile(r"^attack\.\d+\.count$"), _parse_int, None),
    (re.compile(r"^attack\.\d+\.victim_sa$"), _parse_int, None),
    (re.compile(r"^attack\.\d+\.prefix$"), _parse_int, None),
    (re.compile(r"^pipeline\.components$"), _parse_int, None),
    (re.compile(r"^pipeline\.tukey_alpha$"), _parse_float, None),
    (re.compile(r"^pipeline\.delta$"), _parse_float, None),
    (re.compile(r"^pipeline\.calib_len$"), _parse_int, None),
    (re.compile(r"^train\.epsilon$"), _parse_float, None),
    (re.compile(r"^train\.max_iters$"), _parse_int, None),
    (re.compile(r"^train\.c$"), _parse_float, None),
    (re.compile(r"^train\.split$"), _parse_split, None),
    (re.compile(r"^train\.bootstrap_rounds$"), _parse_int, None),
    (re.compile(r"^train\.batch_size$"), _parse_int, None),
]


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    pipeline: PipelineConfig
    train: TrainConfig


def _parse_lines(text: str) -> dict[str, tuple[object, int]]:
    values: dict[str, tuple[object, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("expected key = value", line=lineno)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in values:
            raise ConfigError(f"duplicate key {key}", line=lineno)
        for pattern, parser, choices in _SCHEMA:
            if pattern.match(key):
                try:
                    value = parser(raw)
                except ValueError as exc:
                    raise ConfigError(f"{key}: {exc}", line=lineno) from None
                if choices and value not in _CHOICES[choices]:
                    raise ConfigError(
                        f"{key}: must be one of {sorted(_CHOICES[choices])}", line=lineno
                    )
                values[key] = (value, lineno)
                break
        else:
            raise ConfigError(f"unknown key {key}", line=lineno)
    return values


class _View:
    """Typed access to parsed values with defaults."""

    def __init__(self, values: dict[str, tuple[object, int]]):
        self._values = values

    def get(self, key: str, default=None):
        if key in self._values:
            return self._values[key][0]
        return default

    def keys_under(self, prefix: str) -> list[str]:
        return [k for k in self._values if k.startswith(prefix)]

    def indexes(self, head: str) -> list[int]:
        found = set()
        pattern = re.compile(rf"^{head}\.(\d+)\.")
        for k in self._values:
            m = pattern.match(k)
            if m:
                found.add(int(m.group(1)))
        return sorted(found)


def _build_attacks(view: _View) -> tuple[AttackSpec, ...]:
    attacks = []
    for i in view.indexes("attack"):
        kind = view.get(f"attack.{i}.kind")
        if kind is None:
            raise ConfigError(f"attack.{i}.kind is required")
        spoofed = view.get(f"attack.{i}.spoofed_sa")
        if spoofed is None:
            raise ConfigError(f"attack.{i}.spoofed_sa is required")
        kw = dict(
            kind=AttackKind(kind),
            spoofed_sa=spoofed,
            attacker=view.get(f"attack.{i}.attacker"),
            count=view.get(f"attack.{i}.count", 0),
            victim_sa=view.get(f"attack.{i}.victim_sa"),
        )
        prefix = view.get(f"attack.{i}.prefix")
        if prefix is not None:
            kw["id_prefix"] = prefix
        attacks.append(AttackSpec(**kw))
    return tuple(attacks)


def _build_custom_scenario(view: _View) -> Scenario:
    ecu_ids = view.indexes("ecu")
    if not ecu_ids:
        raise ConfigError("custom scenario needs at least one ecu.<k>.msg.<j> stream")
    duration = view.get("sim.duration")
    if duration is None:
        raise ConfigError("sim.duration is required for custom scenarios")
    ecus = []
    for k in ecu_ids:
        profile = PowerProfile(
            baseline_mean=view.get(f"ecu.{k}.baseline_mean", 1.0),
            baseline_noise=view.get(f"ecu.{k}.baseline_noise", 0.08),
            signature_amplitude=view.get(f"ecu.{k}.signature_amplitude", 1.0),
            ripple_frequency_hz=view.get(f"ecu.{k}.ripple_frequency", 60e3 + 70e3 * k),
            ripple_amplitude=view.get(f"ecu.{k}.ripple_amplitude", 0.2),
            reception_ripple=view.get(f"ecu.{k}.reception_ripple", 0.15),
            noise_floor_offset=view.get(f"ecu.{k}.noise_floor", 0.0),
            program=ProgramActivity(view.get(f"ecu.{k}.program", "uniform")),
        )
        schedules = []
        pattern = re.compile(rf"^ecu\.{k}\.msg\.(\d+)\.")
        msg_ids = sorted({int(m.group(1)) for key in view.keys_under(f"ecu.{k}.msg.")
                          if (m := pattern.match(key))})
        for j in msg_ids:
            sa = view.get(f"ecu.{k}.msg.{j}.sa")
            period = view.get(f"ecu.{k}.msg.{j}.period")
            if sa is None or period is None:
                raise ConfigError(f"ecu.{k}.msg.{j} needs both sa and period")
            schedules.append(
                MessageSchedule(
                    sa=sa,
                    period_s=period,
                    offset_s=view.get(f"ecu.{k}.msg.{j}.offset", 0.0),
                    dlc=view.get(f"ecu.{k}.msg.{j}.dlc", 8),
                    id_prefix=view.get(f"ecu.{k}.msg.{j}.prefix", 0x00F0 + k),
                    count=view.get(f"ecu.{k}.msg.{j}.count"),
                )
            )
        if not schedules:
            raise ConfigError(f"ecu.{k} defines no message streams")
        ecus.append(EcuSpec(index=k, schedules=tuple(schedules), profile=profile))
    bus = BusConfig(
        bitrate=view.get("bus.bitrate", 125_000.0),
        format=FrameFormat(view.get("bus.format", "extended")),
        sample_rate=view.get("bus.sample_rate", 10e6),
        voltage_noise=view.get("bus.voltage_noise", 0.05),
    )
    return Scenario(
        bus=bus,
        ecus=tuple(ecus),
        duration=duration,
        seed=view.get("sim.seed", 0),
        attacks=_build_attacks(view),
    )


def _build_preset_scenario(view: _View, preset: str) -> Scenario:
    attacks = _build_attacks(view)
    common = dict(
        frames_per_sa=view.get("scenario.frames_per_sa", 1000),
        seed=view.get("sim.seed", 7 if preset == "lab" else 21),
        attacks=attacks,
    )
    if preset == "lab":
        scenario = lab_scenario(
            sample_rate=view.get("bus.sample_rate", 2e6),
            bitrate=view.get("bus.bitrate", 125_000.0),
            fmt=FrameFormat(view.get("bus.format", "extended")),
            program=ProgramActivity(view.get("scenario.program", "uniform")),
            **common,
        )
    else:
        scenario = truck_scenario(
            sample_rate=view.get("bus.sample_rate", 3e6),
            **common,
        )
    duration = view.get("sim.duration")
    if duration is not None:
        import dataclasses

        scenario = dataclasses.replace(scenario, duration=duration)
    return scenario


def parse_config_text(text: str) -> RunConfig:
    values = _parse_lines(text)
    view = _View(values)
    preset = view.get("scenario.preset", "lab" if not view.indexes("ecu") else "custom")
    try:
        if preset == "custom":
            scenario = _build_custom_scenario(view)
        else:
            scenario = _build_preset_scenario(view, preset)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    pipeline = PipelineConfig(
        n_components=view.get("pipeline.components", 50),
        tukey_alpha=view.get("pipeline.tukey_alpha", 0.25),
        delta=view.get("pipeline.delta", 0.5),
        calib_len=view.get("pipeline.calib_len", 100_000),
    )
    train = TrainConfig(
        epsilon=view.get("train.epsilon", 1e-4),
        max_iters=view.get("train.max_iters", 400),
        c=view.get("train.c", 1.0),
        split=view.get("train.split", (0.6, 0.2, 0.2)),
        bootstrap_rounds=view.get("train.bootstrap_rounds", 100),
        seed=view.get("sim.seed", scenario.seed),
        batch_size=view.get("train.batch_size", 64),
    )
    return RunConfig(scenario=scenario, pipeline=pipeline, train=train)


def parse_config(path: Path | str) -> RunConfig:
    return parse_config_text(Path(path).read_text())
