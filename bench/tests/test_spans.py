"""Self-test of the traced run's arithmetic on synthetic spans.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
from spans import Span, Tracer, Unit, covered_length, self_times, untraced_time  # noqa: E402


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1, 3), (2, 4)], 0.0, 10.0) == 3.0
    assert covered_length([(1, 2), (5, 6)], 0.0, 10.0) == 2.0
    assert covered_length([(-5, 1), (9, 15)], 0.0, 10.0) == 2.0
    assert covered_length([(11, 12)], 0.0, 10.0) == 0.0


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span("root", 0.0, 10.0, None, "u"),
        Span("a", 1.0, 3.0, 0, "u"),
        Span("a.child", 1.5, 2.5, 1, "u"),
        Span("b", 2.0, 4.0, 0, "u"),  # overlaps a: covered once, not twice
        Span("c", 8.0, 12.0, 0, "u"),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 1.0, 2.0, 4.0])


def test_untraced_time_counts_gaps_between_top_level_spans():
    spans = [
        Span("x", 0.0, 10.0, None, "u"),
        Span("x.child", 1.0, 2.0, 0, "u"),
        Span("y", 12.0, 15.0, None, "u"),
        Span("other-unit", 15.0, 20.0, None, "v"),
    ]
    assert untraced_time(spans, Unit("u", "timed", 0.0, 20.0)) == pytest.approx(7.0)


def test_tracer_links_parents_and_records_only_inside_units():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, lambda a, k, r: {"out": r})

    def outer_fn(x):
        return inner(x) * 2

    outer = tracer.wrap("outer", outer_fn)
    assert outer(1) == 4
    assert tracer.spans == []
    with tracer.unit("pass-0", "timed"):
        outer(1)
    names = [(s.name, s.parent, s.run_id) for s in tracer.spans]
    assert names == [("outer", None, "pass-0"), ("inner", 0, "pass-0")]
    assert tracer.spans[1].counts == {"out": 2}
    assert all(s.start <= s.end for s in tracer.spans)


def test_tracer_keeps_the_span_of_a_call_that_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    traced = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        with tracer.unit("pass-0", "timed"):
            traced()
    assert [s.name for s in tracer.spans] == ["boom"]
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._stack == []


def _synthetic(decoded_per_pass):
    tracer = Tracer()
    t = 0.0
    for i, decoded in enumerate(decoded_per_pass):
        run_id = f"pass-{i}"
        tracer.spans.append(Span("frames.decode_transmissions", t, t + 1.0 + i, None, run_id,
                                 {"decoded": decoded, "crc_failed": 0, "unmapped": 0}))
        tracer.units.append(Unit(run_id, "monitor", t, t + 4.0))
        t += 10.0
    return tracer


def test_layer_metrics_take_lowest_times_and_exact_counts():
    values, mismatches = layers.layer_metrics(_synthetic([500, 500, 500]))
    assert mismatches == []
    assert values["frames.decode_s"]["value"] == pytest.approx(1.0)
    assert values["frames.decode_s"]["samples"] == {"monitor": 3}
    assert values["frames.decoded"]["value"] == 500
    assert values["untraced_s"]["value"] == pytest.approx(1.0)
    assert values["features.fit_pca_s"]["value"] is None


def test_layer_metrics_add_up_the_kinds_of_one_cycle():
    tracer = _synthetic([500, 500])
    tracer.spans.append(Span("frames.decode_transmissions", 100.0, 105.0, None, "pipeline",
                             {"decoded": 40, "crc_failed": 1, "unmapped": 0}))
    tracer.units.append(Unit("pipeline", "pipeline", 100.0, 106.0))
    values, mismatches = layers.layer_metrics(tracer)
    assert mismatches == []
    assert values["frames.decode_s"]["value"] == pytest.approx(5.0 + 1.0)
    assert values["frames.decoded"]["value"] == 540
    assert values["frames.crc_failed"]["value"] == 1
    assert values["untraced_s"]["value"] == pytest.approx(1.0 + 2.0)


def test_layer_metrics_flag_counts_that_do_not_repeat():
    _, mismatches = layers.layer_metrics(_synthetic([500, 499]))
    assert any("frames.decoded" in m for m in mismatches)
