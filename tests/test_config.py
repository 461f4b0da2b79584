"""Run-configuration parsing tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canoa.bus import AttackKind, ProgramActivity
from canoa.config import parse_config_text
from canoa.errors import ConfigError
from canoa.frames import FrameFormat


def test_empty_config_yields_lab_defaults():
    run = parse_config_text("")
    assert len(run.scenario.ecus) == 5
    assert run.scenario.bus.bitrate == 125_000.0
    assert run.pipeline.n_components == 5
    assert run.pipeline.delta == 0.5
    assert run.train.epsilon == 1e-4
    assert run.train.split == (0.6, 0.2, 0.2)
    assert run.train.bootstrap_rounds == 100


def test_preset_with_overrides():
    run = parse_config_text(
        """
        # truck preset, fewer frames
        scenario.preset = truck
        scenario.frames_per_sa = 50
        sim.seed = 99
        pipeline.delta = 0.4
        train.c = 2.0
        """
    )
    assert run.scenario.source_map().owners == {0: 0, 15: 0, 11: 1}
    assert run.scenario.seed == 99
    assert run.pipeline.delta == 0.4
    assert run.train.c == 2.0


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config_text("scenario.preset = lab\nbogus.knob = 3\n")
    assert err.value.line == 2
    assert "bogus.knob" in str(err.value)


def test_bad_value_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config_text("bus.bitrate = fast\n")
    assert err.value.line == 1


def test_bad_choice_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("bus.format = canfd\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("sim.seed = 1\nsim.seed = 2\n")


def test_zero_duration_is_config_error():
    with pytest.raises(ConfigError):
        parse_config_text("scenario.preset = lab\nsim.duration = 0\n")


def test_explicit_custom_scenario():
    run = parse_config_text(
        """
        bus.bitrate = 250000
        bus.format = extended
        bus.sample_rate = 3000000
        sim.duration = 0.5
        sim.seed = 3
        ecu.0.baseline_mean = 1.1
        ecu.0.program = heterogeneous
        ecu.0.msg.0.sa = 7
        ecu.0.msg.0.period = 0.004
        ecu.0.msg.0.dlc = 6
        ecu.1.msg.0.sa = 9
        ecu.1.msg.0.period = 0.005
        ecu.1.msg.0.offset = 0.002
        attack.0.kind = added_module
        attack.0.spoofed_sa = 7
        attack.0.count = 10
        """
    )
    sc = run.scenario
    assert sc.bus.bitrate == 250_000.0
    assert sc.bus.format is FrameFormat.EXTENDED
    assert sc.duration == 0.5
    assert len(sc.ecus) == 2
    assert sc.ecus[0].profile.baseline_mean == 1.1
    assert sc.ecus[0].profile.program is ProgramActivity.HETEROGENEOUS
    assert sc.ecus[0].schedules[0].sa == 7
    assert sc.ecus[0].schedules[0].dlc == 6
    assert sc.ecus[1].schedules[0].offset_s == 0.002
    assert len(sc.attacks) == 1
    assert sc.attacks[0].kind is AttackKind.ADDED_MODULE


def test_custom_scenario_requires_duration():
    with pytest.raises(ConfigError):
        parse_config_text("ecu.0.msg.0.sa = 1\necu.0.msg.0.period = 0.01\n")


def test_hex_values_accepted():
    run = parse_config_text(
        """
        sim.duration = 0.2
        ecu.0.msg.0.sa = 0x0B
        ecu.0.msg.0.period = 0.01
        ecu.0.msg.0.prefix = 0x00F7
        """
    )
    assert run.scenario.ecus[0].schedules[0].sa == 11
    assert run.scenario.ecus[0].schedules[0].id_prefix == 0x00F7


def test_attack_requires_kind_and_sa():
    with pytest.raises(ConfigError):
        parse_config_text("scenario.preset = lab\nattack.0.count = 5\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("sim.seed = -3", "sim.seed: must be at least 0, got -3"),
        ("attack.0.count = 0", "attack.0.count: must be at least 1, got 0"),
        ("attack.0.count = -5", "attack.0.count: must be at least 1, got -5"),
    ],
)
def test_negative_seed_and_empty_attack_stream_fail_at_their_line(line, message):
    attack = "attack.0.kind = added_module\nattack.0.spoofed_sa = 1\n"
    with pytest.raises(ConfigError, match=message) as err:
        parse_config_text(f"scenario.preset = lab\n{line}\n{attack}")
    assert err.value.line == 2
    with pytest.raises(ConfigError, match="attack.0.count is required"):
        parse_config_text(attack)


def test_power_sample_rate_defaults_to_the_bus_rate():
    bus = parse_config_text("bus.sample_rate = 3000000\n").scenario.bus
    assert bus.power_sample_rate is None and bus.power_rate == 3e6
    bus = parse_config_text("bus.sample_rate = 3000000\nbus.power_sample_rate = 1e6\n").scenario.bus
    assert bus.sample_rate == 3e6 and bus.power_rate == 1e6
    with pytest.raises(ConfigError, match="power sample rate must be positive") as err:
        parse_config_text("bus.power_sample_rate = 0\nbus.sample_rate = 3000000\n")
    assert err.value.line == 1


@pytest.mark.parametrize("key", ["bus.sample_rate", "bus.power_sample_rate"])
def test_fractional_sample_rate_fails_at_its_line(key):
    text = f"scenario.preset = lab\n{key} = 1000000.5\nscenario.frames_per_sa = 10\n"
    with pytest.raises(ConfigError, match=f"{key}: must be a whole number of Hz") as err:
        parse_config_text(text)
    assert err.value.line == 2


def test_shipped_configs_parse():
    from pathlib import Path

    for name in ("lab.cfg", "truck.cfg", "truck_attack.cfg", "sweep.cfg"):
        run = parse_config_text((Path(__file__).parent.parent / "configs" / name).read_text())
        assert run.scenario.duration > 0


# Every config key (index 0 standing for any index) with a value no preset,
# custom default or base text below gives it.
NON_DEFAULT = {
    "scenario.frames_per_sa": "30",
    "scenario.program": "heterogeneous",
    "bus.bitrate": "500000",
    "bus.format": "standard",
    "bus.sample_rate": "5000000",
    "bus.voltage_noise": "0.3",
    "bus.power_sample_rate": "1500000",
    "sim.duration": "0.75",
    "sim.seed": "1234",
    "ecu.0.baseline_mean": "1.7",
    "ecu.0.baseline_noise": "0.01",
    "ecu.0.signature_amplitude": "2.5",
    "ecu.0.ripple_frequency": "333000",
    "ecu.0.ripple_amplitude": "0.45",
    "ecu.0.reception_ripple": "0.05",
    "ecu.0.noise_floor": "0.5",
    "ecu.0.program": "heterogeneous",
    "ecu.0.msg.0.sa": "0x40",
    "ecu.0.msg.0.period": "0.1",
    "ecu.0.msg.0.offset": "0.0005",
    "ecu.0.msg.0.dlc": "3",
    "ecu.0.msg.0.prefix": "0x0123",
    "ecu.0.msg.0.count": "17",
    "attack.0.kind": "compromised_ecu",
    "attack.0.spoofed_sa": "2",
    "attack.0.attacker": "1",
    "attack.0.count": "5",
    "attack.0.prefix": "0x00AA",
    "pipeline.components": "20",
    "pipeline.tukey_alpha": "0.5",
    "pipeline.delta": "0.3",
    "pipeline.calib_len": "50000",
    "train.epsilon": "1e-3",
    "train.max_iters": "50",
    "train.c": "2.5",
    "train.split": "0.5,0.3,0.2",
    "train.bootstrap_rounds": "30",
    "train.batch_size": "16",
}

ATTACK = {"attack.0.kind": "added_module", "attack.0.spoofed_sa": "1", "attack.0.count": "1"}
BASES = {
    "lab": {"scenario.preset": "lab", **ATTACK},
    "truck": {"scenario.preset": "truck", **ATTACK, "attack.0.spoofed_sa": "0"},
    "custom": {
        "sim.duration": "0.5",
        "ecu.0.msg.0.sa": "1",
        "ecu.0.msg.0.period": "0.01",
        "ecu.1.msg.0.sa": "2",
        "ecu.1.msg.0.period": "0.01",
        **ATTACK,
    },
}


def as_text(pairs):
    return "\n".join(f"{k} = {v}" for k, v in pairs.items())


@pytest.mark.parametrize("preset", sorted(BASES))
@pytest.mark.parametrize("key", sorted(NON_DEFAULT))
def test_every_key_applies_or_is_rejected_at_its_line(key, preset):
    base = BASES[preset]
    pairs = {k: v for k, v in base.items() if k != key}
    pairs[key] = NON_DEFAULT[key]  # always the last line
    try:
        run = parse_config_text(as_text(pairs))
    except ConfigError as err:
        assert err.line == len(pairs), str(err)
        return
    assert run != parse_config_text(as_text(base))


def test_preset_takes_the_keys_it_would_otherwise_drop():
    lab = parse_config_text(
        "scenario.preset = lab\necu.0.noise_floor = 0.5\nbus.voltage_noise = 0.3\n"
        "ecu.0.msg.0.period = 0.1\n"
    )
    assert lab.scenario.ecus[0].profile.noise_floor_offset == 0.5
    assert lab.scenario.ecus[1].profile.noise_floor_offset == 0.0
    assert lab.scenario.bus.voltage_noise == 0.3
    assert lab.scenario.ecus[0].schedules[0].period_s == 0.1
    truck = parse_config_text(
        "scenario.preset = truck\nbus.bitrate = 500000\nbus.format = standard\n"
        "scenario.program = heterogeneous\necu.1.program = uniform\n"
    )
    assert truck.scenario.bus.bitrate == 500_000.0
    assert truck.scenario.bus.format is FrameFormat.STANDARD
    programs = [e.profile.program for e in truck.scenario.ecus]
    assert programs == [ProgramActivity.HETEROGENEOUS, ProgramActivity.UNIFORM]


@pytest.mark.parametrize(
    "text",
    [
        "scenario.preset = lab\necu.9.noise_floor = 0.5",
        "scenario.preset = truck\necu.1.msg.1.period = 0.01",
        "sim.duration = 0.5\necu.0.msg.0.sa = 1\necu.0.msg.0.period = 0.01\n"
        "scenario.frames_per_sa = 10",
    ],
)
def test_inapplicable_key_is_rejected_with_its_line(text):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert err.value.line == len(text.splitlines())
    assert "does not apply" in str(err.value)


@pytest.mark.parametrize(
    "line",
    [
        "train.max_iters = 0",
        "train.batch_size = 0",
        "train.epsilon = 0",
        "train.c = 0",
        "train.c = inf",
        "train.c = nan",
        "sim.duration = inf",
        "train.bootstrap_rounds = 9",
        "train.split = 0.5,0.5",
        "pipeline.tukey_alpha = 2",
        "pipeline.components = 0",
        "pipeline.delta = 1",
        "pipeline.calib_len = 10",
        "bus.bitrate = 0",
        "bus.sample_rate = inf",
        "bus.power_sample_rate = 0",
        "bus.power_sample_rate = -1000000",
        "bus.power_sample_rate = nan",
        "bus.power_sample_rate = inf",
        "ecu.0.msg.0.period = 0",
        "ecu.0.msg.0.dlc = 9",
        "ecu.0.msg.0.dlc = -1",
        "ecu.0.msg.0.sa = 300",
        "ecu.0.msg.0.sa = -1",
        "ecu.0.baseline_noise = nan",
        "ecu.0.baseline_noise = -0.01",
        # an attack kind and a key the simulator does not have
        "attack.0.kind = hijack_transmission",
        "attack.0.victim_sa = 1",
    ],
)
def test_bad_training_and_pipeline_values_fail_at_parse_time(line):
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"scenario.preset = lab\n{line}\n")
    assert err.value.line == 2


KEYS = [k.replace(".0.", ".{i}.") for k in NON_DEFAULT] + ["scenario.preset"]
VALUES = sorted(set(NON_DEFAULT.values())) + [
    "0", "-1", "nan", "inf", "-inf", "1e400", "0x10", "lab", "truck", "custom", "normal",
    "added_module", "compromised_ecu", "1,2", "0.6,0.2,0.2", "nan,nan,nan", "",
]


@st.composite
def config_lines(draw):
    key = draw(st.sampled_from(KEYS)).format(i=draw(st.sampled_from([0, 1, 2, 15])))
    value = draw(
        st.one_of(
            st.sampled_from(VALUES),
            st.integers(-2, 2).map(str),
            st.integers(-(10**6), 10**6).map(str),
            st.floats().map(repr),
            st.text(max_size=6),
        )
    )
    return f"{key} = {value}"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(config_lines(), max_size=8))
def test_drawn_configs_parse_or_raise_config_error(lines):
    try:
        parse_config_text("\n".join(lines))
    except ConfigError:
        pass
