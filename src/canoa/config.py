"""Plain-text ``key = value`` run configuration.

Every key sets one field of one dataclass and is parsed by that field's
type (an ``int`` in any base, a ``float``, an enum value, or comma-separated
tuple parts); a key left out keeps the field's own default. ``bus.*`` sets
the :class:`BusConfig`, ``ecu.<k>.*`` the :class:`PowerProfile` of ECU
``k``, ``ecu.<k>.msg.<j>.*`` its ``j``-th :class:`MessageSchedule`,
``attack.<i>.*`` an :class:`AttackSpec`, ``sim.*`` the :class:`Scenario`
(``sim.seed`` also seeds training), ``pipeline.*`` the
:class:`PipelineConfig` and ``train.*`` the :class:`TrainConfig`.

The scenario is built in three steps. ``scenario.preset = lab`` (the
default) or ``truck`` calls its preset function with the keys that match
its parameters (``scenario.frames_per_sa`` is one); ``custom`` (the default
when ``ecu.*`` keys are given) starts from the ``ecu.<k>.msg.<j>`` streams,
ECU ``k`` getting ripple frequency ``60e3 + 70e3·k`` and ID prefix
``0x00F0 + k``. Every other scenario key then overrides that base,
``scenario.program`` before ``ecu.<k>.program``. A key no step can apply
(an ECU or stream the preset lacks, ``scenario.frames_per_sa`` on a custom
scenario) is a :class:`ConfigError` at its line, and so is a negative
``sim.seed``, an ``attack.<i>.count``, ``ecu.<k>.msg.<j>.count`` or
``scenario.frames_per_sa`` below 1, a ``sim.duration`` that is not
positive and finite, or a ``bus.sample_rate`` or
``bus.power_sample_rate`` that is not a whole number of Hz. A value a
dataclass rejects is one at the last line that set one of its fields. An
SA that two ECUs share is one under ``ecu.<k>``, at the last line that set
an SA of the two ECUs. An attack the ECUs rule out (its spoofed SA has no
owner, or its attacker is no ECU or owns that SA) is one at the later of
the attack's last line and the last line that set any ECU's SA, under
that line's ``attack.<i>`` or ``ecu.<k>``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import re
import types
import typing
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .bus import (
    AttackSpec,
    BusConfig,
    EcuSpec,
    MessageSchedule,
    PowerProfile,
    Scenario,
    lab_scenario,
    truck_scenario,
)
from .errors import ConfigError
from .svm import TrainConfig
from .workflow import PipelineConfig

_PRESETS = {"lab": lab_scenario, "truck": truck_scenario, "custom": None}

# section -> (the dataclass or preset whose annotations type its keys, the key names)
_SECTIONS = {
    "bus": (BusConfig, ("bitrate", "format", "sample_rate", "voltage_noise",
                        "power_sample_rate")),
    "sim": (Scenario, ("duration", "seed")),
    "scenario": (lab_scenario, ("frames_per_sa", "program")),
    "ecu": (PowerProfile, ("baseline_mean", "baseline_noise", "signature_amplitude",
                           "ripple_frequency", "ripple_amplitude", "reception_ripple",
                           "noise_floor", "program")),
    "msg": (MessageSchedule, ("sa", "period", "offset", "dlc", "prefix", "count")),
    "attack": (AttackSpec, ("kind", "spoofed_sa", "attacker", "count", "prefix")),
    "pipeline": (PipelineConfig, ("components", "tukey_alpha", "delta", "calib_len")),
    "train": (TrainConfig, ("epsilon", "max_iters", "c", "split", "bootstrap_rounds",
                            "batch_size")),
}
_INDEXES = {"ecu": 1, "attack": 1, "msg": 2}
# (section, field) -> the least value a line may give it
_LEAST = {("sim", "seed"): 0, ("attack", "count"): 1, ("msg", "count"): 1,
          ("scenario", "frames_per_sa"): 1}
# values a line must give as a positive, finite number: the simulator cannot run forever
_POSITIVE_FINITE = {("sim", "duration")}
# rates a line must give as a whole number of Hz: trace files store them as integers
_WHOLE = {("bus", "sample_rate"), ("bus", "power_sample_rate")}
# key name -> field name, where the two differ
_FIELD = {
    "ripple_frequency": "ripple_frequency_hz",
    "noise_floor": "noise_floor_offset",
    "period": "period_s",
    "offset": "offset_s",
    "prefix": "id_prefix",
    "components": "n_components",
}
_KEY_NAME = {field: name for name, field in _FIELD.items()}
_KEY = re.compile(
    r"(?P<head>[a-z]+)(?:\.(?P<i>[0-9]+)(?:\.msg\.(?P<j>[0-9]+))?)?\.(?P<name>\w+)"
)


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    pipeline: PipelineConfig
    train: TrainConfig


@dataclass(frozen=True)
class _Value:
    key: str
    value: object
    line: int


# (section, indexes, field name) -> the value a line gave it
_Values = dict[tuple[str, tuple[int, ...], str], _Value]


def _parse(tp, raw: str):
    """``raw`` as a value of type ``tp``."""
    if typing.get_origin(tp) is types.UnionType:  # X | None; a written value is never None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    if typing.get_origin(tp) is tuple:
        parts, args = raw.split(","), typing.get_args(tp)
        if len(parts) != len(args):
            raise ValueError(f"needs {len(args)} comma-separated values")
        return tuple(_parse(a, p) for a, p in zip(args, parts))
    if tp is int:
        return int(raw, 0)  # accepts decimal and 0x...
    if issubclass(tp, Enum) and raw not in {m.value for m in tp}:
        raise ValueError(f"must be one of {sorted(m.value for m in tp)}")
    return tp(raw)


def _slot(key: str) -> tuple[str, tuple[int, ...], str] | None:
    """The (section, indexes, field) a key sets, or None for an unknown key."""
    m = _KEY.fullmatch(key)
    if m is None:
        return None
    head, name = m["head"], m["name"]
    section = "msg" if m["j"] is not None and head == "ecu" else head
    indexes = tuple(int(x) for x in (m["i"], m["j"]) if x is not None)
    if section not in _SECTIONS or len(indexes) != _INDEXES.get(section, 0):
        return None
    if name not in _SECTIONS[section][1] and key != "scenario.preset":
        return None
    return section, indexes, _FIELD.get(name, name)


def _parse_lines(text: str) -> _Values:
    values: _Values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("expected key = value", line=lineno)
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        slot = _slot(key)
        if slot is None:
            raise ConfigError(f"unknown key {key}", line=lineno)
        if slot in values:
            raise ConfigError(f"duplicate key {key}", line=lineno)
        section, _, field = slot
        tp = typing.get_type_hints(_SECTIONS[section][0]).get(field, str)  # str: scenario.preset
        try:
            value = _parse(tp, raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}", line=lineno) from None
        least = _LEAST.get((section, field))
        if least is not None and value < least:
            raise ConfigError(f"{key}: must be at least {least}, got {value}", line=lineno)
        if (section, field) in _POSITIVE_FINITE and not 0 < value < math.inf:
            raise ConfigError(f"{key}: must be positive and finite, got {value}", line=lineno)
        if (section, field) in _WHOLE and not value.is_integer():
            raise ConfigError(f"{key}: must be a whole number of Hz, got {value}", line=lineno)
        values[slot] = _Value(key, value, lineno)
    return values


def _pop(values: _Values, section: str, indexes=(), fields=None) -> dict[str, _Value]:
    """Remove and return one object's values by field name (only ``fields``, if given)."""
    slots = [
        s for s in values if s[:2] == (section, indexes) and (fields is None or s[2] in fields)
    ]
    return {s[2]: values.pop(s) for s in slots}


def _indexes(values: _Values, section: str) -> list[tuple[int, ...]]:
    return sorted({s[1] for s in values if s[0] == section})


def _build(target, name: str, given: dict[str, _Value], line: int | None = None, **fixed):
    """Call ``target`` (a dataclass or preset) or replace fields of it (a dataclass instance).

    ``fixed`` and then the given values are its arguments. A missing required field or a
    ValueError is a ConfigError at ``line``, by default the last given line.
    """
    kw = {**fixed, **{field: v.value for field, v in given.items()}}
    if line is None:
        line = max((v.line for v in given.values()), default=None)
    if isinstance(target, type):
        for f in dataclasses.fields(target):
            required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
            if required and f.name not in kw:
                raise ConfigError(f"{name}.{_KEY_NAME.get(f.name, f.name)} is required", line=line)
    elif dataclasses.is_dataclass(target):
        target = functools.partial(dataclasses.replace, target)
    try:
        return target(**kw)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}", line=line) from None


def _custom_ecus(values: _Values) -> list[EcuSpec]:
    """One ECU per ``k`` with a stream per ``ecu.<k>.msg.<j>``, under the per-index defaults."""
    streams: dict[int, list[MessageSchedule]] = {}
    for k, j in _indexes(values, "msg"):
        given = _pop(values, "msg", (k, j))
        streams.setdefault(k, []).append(
            _build(MessageSchedule, f"ecu.{k}.msg.{j}", given, id_prefix=0x00F0 + k)
        )
    if not streams:
        raise ConfigError("custom scenario needs at least one ecu.<k>.msg.<j> stream")
    return [
        EcuSpec(k, tuple(s), PowerProfile(ripple_frequency_hz=60e3 + 70e3 * k))
        for k, s in streams.items()
    ]


def _override_ecu(ecu: EcuSpec, values: _Values, program: dict[str, _Value]) -> EcuSpec:
    k = ecu.index
    profile = _build(ecu.profile, f"ecu.{k}", {**program, **_pop(values, "ecu", (k,))})
    schedules = tuple(
        _build(s, f"ecu.{k}.msg.{j}", _pop(values, "msg", (k, j)))
        for j, s in enumerate(ecu.schedules)
    )
    return dataclasses.replace(ecu, profile=profile, schedules=schedules)


def _scenario(preset: str, values: _Values) -> Scenario:
    lines = [v.line for s, v in values.items() if s[0] not in ("pipeline", "train")]
    line = max(lines, default=None)
    last: dict[str, int] = {}  # attack.<i>, ecu.<k> -> the last line that set it, or its SAs
    for (section, indexes, field), v in values.items():
        if section == "attack" or (section, field) == ("msg", "sa"):
            part = f"{'attack' if section == 'attack' else 'ecu'}.{indexes[0]}"
            last[part] = max(last.get(part, 0), v.line)
    make = _PRESETS[preset]
    if make is None:
        base, bus, ecus = Scenario, BusConfig(), _custom_ecus(values)
    else:
        params = set(inspect.signature(make).parameters)
        given = {}
        for section in ("scenario", "bus", "sim"):
            given.update(_pop(values, section, fields=params))
        base = _build(make, f"{preset} preset", given)
        bus, ecus = base.bus, base.ecus
    program = _pop(values, "scenario", fields={"program"})
    bus = _build(bus, "bus", _pop(values, "bus"))
    ecus = tuple(_override_ecu(ecu, values, program) for ecu in ecus)
    attacks = {
        f"attack.{i}": _build(AttackSpec, f"attack.{i}", _pop(values, "attack", (i,)))
        for (i,) in _indexes(values, "attack")
    }
    scenario = _build(base, "sim", _pop(values, "sim"), line=line, bus=bus, ecus=(), attacks=())
    # Scenario checks the ECUs' SAs against each other, then every attack against the
    # ECUs. The ECUs join one at a time, those whose SAs no line set first, so an SA
    # that two ECUs share is reported under the one set last. An attack the ECUs rule
    # out is reported at the later of its own last line and the last line that set an SA.
    for ecu in sorted(ecus, key=lambda e: last.get(f"ecu.{e.index}", 0)):
        name = f"ecu.{ecu.index}"
        scenario = _build(scenario, name, {}, line=last.get(name), ecus=scenario.ecus + (ecu,))
    scenario = dataclasses.replace(scenario, ecus=ecus)
    sas_set = [(at, name) for name, at in last.items() if name.startswith("ecu.")]
    for name, atk in attacks.items():
        at, part = max([(last[name], name), *sas_set])
        scenario = _build(scenario, part, {}, line=at, attacks=scenario.attacks + (atk,))
    return scenario


def parse_config_text(text: str) -> RunConfig:
    values = _parse_lines(text)
    chosen = values.pop(("scenario", (), "preset"), None)
    default = "custom" if any(s[0] in ("ecu", "msg") for s in values) else "lab"
    preset = chosen.value if chosen else default
    if preset not in _PRESETS:
        raise ConfigError(f"scenario.preset: must be one of {sorted(_PRESETS)}", line=chosen.line)
    scenario = _scenario(preset, values)
    pipeline = _build(PipelineConfig, "pipeline", _pop(values, "pipeline"))
    train = _build(TrainConfig, "train", _pop(values, "train"), seed=scenario.seed)
    if values:
        first = min(values.values(), key=lambda v: v.line)
        raise ConfigError(f"{first.key} does not apply to the {preset} scenario", line=first.line)
    return RunConfig(scenario=scenario, pipeline=pipeline, train=train)


def parse_config(path: Path | str) -> RunConfig:
    return parse_config_text(Path(path).read_text())
