"""Tests of the benchmark's own accounting.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import LAYERS, layer_metrics, resolve  # noqa: E402
from reference import reference  # noqa: E402
from run import END_TO_END_UNITS, _units  # noqa: E402
from tracer import PROBE, Tracer, load, reduce_spans  # noqa: E402
from workloads import EXPECTED_FILE, WORKLOADS, result_digest  # noqa: E402


class FakeClock:
    """A clock that advances only when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _toy_tree(tracer: Tracer, clock: FakeClock):
    """root(1) -> [a(2) -> b(3), b(4)], with own work noted in parentheses."""

    def b(seconds):
        clock.advance(seconds)

    def a():
        clock.advance(2)
        traced_b(3)

    def root():
        clock.advance(1)
        traced_a()
        traced_b(4)

    traced_b = tracer.wrap("b", b)
    traced_a = tracer.wrap("a", a)
    return tracer.wrap("root", root)


def test_self_times_partition_the_total():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    _toy_tree(tracer, clock)()
    layers = reduce_spans(tracer.spans)
    assert {name: times.self_s for name, times in layers.items()} == {
        "root": 1.0, "a": 2.0, "b": 7.0,
    }
    assert {name: times.calls for name, times in layers.items()} == {"root": 1, "a": 1, "b": 2}
    assert sum(times.self_s for times in layers.values()) == clock.now == 10.0
    names = [span[0] for span in tracer.spans]
    parents = [names[span[3]] if span[3] >= 0 else None for span in tracer.spans]
    assert list(zip(names, parents)) == [("root", None), ("a", "root"), ("b", "a"), ("b", "root")]


def test_a_raising_callee_still_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def failing():
        clock.advance(2)
        raise ValueError("boom")

    traced_failing = tracer.wrap("failing", failing)

    def caller():
        clock.advance(1)
        with pytest.raises(ValueError):
            traced_failing()
        clock.advance(3)

    tracer.wrap("caller", caller)()
    assert None not in tracer.spans
    layers = reduce_spans(tracer.spans)
    assert layers["failing"].self_s == 2.0
    assert layers["caller"].self_s == 4.0
    assert tracer._stack == []


def test_reentry_into_the_innermost_layer_is_counted_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.advance(1)

    traced_inner = tracer.wrap("store", inner)
    tracer.wrap("store", lambda: (clock.advance(1), traced_inner()))()
    layers = reduce_spans(tracer.spans)
    assert layers["store"].calls == 1
    assert layers["store"].self_s == 2.0


def test_probe_time_is_charged_to_no_layer():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    probed = tracer.wrap("layer", lambda: clock.advance(1), after=lambda *_: clock.advance(5))
    tracer.wrap("root", lambda: (clock.advance(1), probed()))()
    layers = reduce_spans(tracer.spans)
    assert layers["root"].self_s == 1.0
    assert layers["layer"].self_s == 1.0
    assert layers[PROBE].self_s == 5.0
    metrics = layer_metrics([layers], {}, clock.now - layers[PROBE].self_s)
    assert metrics["trace.attributed_share"] == pytest.approx(1.0)


def test_dump_and_load_round_trip(tmp_path):
    clock = FakeClock()
    tracer = Tracer(run_id=11, clock=clock)
    _toy_tree(tracer, clock)()
    tracer.count("events", 3)
    spans = list(tracer.spans)
    tracer.dump(str(tmp_path / "spans"))
    assert tracer.spans == []
    assert load(str(tmp_path / "spans")) == (spans, {"events": 3})
    assert {span[4] for span in spans} == {11}


def test_every_layer_target_exists():
    pytest.importorskip("repro.cli")
    places, missing = resolve()
    assert missing == []
    assert {layer.span for layer, _target, _holder, _name in places} == {
        layer.span for layer in LAYERS
    }


def test_metrics_match_the_benchmark_definition():
    definition = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = layer_metrics([{}], {}, 1.0)
    metrics["trace.overhead_s"] = 0.0
    assert {name: _units(name) for name in metrics} == {
        metric["name"]: metric["unit"] for metric in definition["per_layer"]
    }
    assert {name: _units(name) for name in END_TO_END_UNITS} == {
        metric["name"]: metric["unit"] for metric in definition["end_to_end"]
    }
    assert [workload["name"] for workload in definition["workloads"]] == list(WORKLOADS)
    assert len(LAYERS) == len({layer.span for layer in LAYERS})


def test_expectations_cover_every_workload_at_the_default_and_held_out_seed():
    recorded = json.loads(EXPECTED_FILE.read_text())["workloads"]
    assert sorted(recorded) == sorted(WORKLOADS)
    for seeds in recorded.values():
        assert {"7", "4242"} <= set(seeds)


def test_digest_ignores_only_the_execution_metadata():
    document = {"result": {"submitted_transactions": 3, "execution": "sharded", "shard_count": 2}}
    other = {"result": {"submitted_transactions": 3, "execution": "shared-clock", "shard_count": 1}}
    assert result_digest(document) == result_digest(other)
    other["result"]["submitted_transactions"] = 4
    assert result_digest(document) != result_digest(other)


def test_the_reference_workload_is_unchanged():
    # Every end-to-end time is scaled by this workload's duration; a change to
    # it would make the numbers of earlier commits incomparable.
    assert reference() == 34908140658
