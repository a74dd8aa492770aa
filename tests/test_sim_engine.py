"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator

#: Small float times drawn from a coarse grid so same-time collisions are common.
event_times = st.integers(min_value=0, max_value=4).map(lambda tick: tick * 0.5)


def test_initial_clock_is_zero(sim):
    assert sim.now == 0.0
    assert sim.pending_events == 0
    assert sim.processed_events == 0


def test_events_run_in_time_order(sim):
    seen = []
    sim.schedule(2.0, lambda: seen.append("b"))
    sim.schedule(1.0, lambda: seen.append("a"))
    sim.schedule(3.0, lambda: seen.append("c"))
    sim.run_until_empty()
    assert seen == ["a", "b", "c"]
    assert sim.now == pytest.approx(3.0)


def test_same_time_events_run_in_scheduling_order(sim):
    seen = []
    for label in ("first", "second", "third"):
        sim.schedule(1.0, seen.append, label)
    sim.run_until_empty()
    assert seen == ["first", "second", "third"]


def test_schedule_passes_arguments(sim):
    results = []
    sim.schedule(0.5, lambda a, b: results.append(a + b), 2, 3)
    sim.run_until_empty()
    assert results == [5]


def test_clock_advances_to_event_time(sim):
    times = []
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.schedule(4.0, lambda: times.append(sim.now))
    sim.run_until_empty()
    assert times == [pytest.approx(1.5), pytest.approx(4.0)]


def test_run_until_limit_stops_early(sim):
    seen = []
    sim.schedule(1.0, seen.append, 1)
    sim.schedule(10.0, seen.append, 2)
    sim.run(until=5.0)
    assert seen == [1]
    assert sim.now == pytest.approx(5.0)
    assert sim.pending_events == 1


def test_run_until_extends_clock_even_without_events(sim):
    sim.run(until=7.0)
    assert sim.now == pytest.approx(7.0)


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_before_now_rejected(sim):
    sim.schedule(5.0, lambda: None)
    sim.run_until_empty()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_cancelled_events_are_skipped(sim):
    seen = []
    event = sim.schedule(1.0, seen.append, "cancelled")
    sim.schedule(2.0, seen.append, "kept")
    event.cancel()
    sim.run_until_empty()
    assert seen == ["kept"]
    assert sim.processed_events == 1


def test_events_scheduled_during_run_are_processed(sim):
    seen = []

    def chain(step):
        seen.append(step)
        if step < 3:
            sim.schedule(1.0, chain, step + 1)

    sim.schedule(1.0, chain, 1)
    sim.run_until_empty()
    assert seen == [1, 2, 3]
    assert sim.now == pytest.approx(3.0)


def test_reentrant_run_is_rejected(sim):
    def nested():
        with pytest.raises(SimulationError):
            sim.run_until_empty()

    sim.schedule(1.0, nested)
    sim.run_until_empty()


def test_processed_event_count(sim):
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda: None)
    sim.run_until_empty()
    assert sim.processed_events == 3


def test_fresh_simulators_are_independent():
    first = Simulator()
    second = Simulator()
    first.schedule(1.0, lambda: None)
    first.run_until_empty()
    assert second.now == 0.0
    assert second.pending_events == 0


# ----------------------------------------------------------------- properties
@given(times=st.lists(event_times, min_size=1, max_size=20))
def test_property_events_run_in_time_then_scheduling_order(times):
    """Events execute sorted by time; ties break in scheduling order."""
    sim = Simulator()
    seen = []
    for index, time in enumerate(times):
        sim.schedule(time, seen.append, (time, index))
    sim.run_until_empty()
    assert seen == sorted(seen)
    assert sim.processed_events == len(times)
    assert sim.now == pytest.approx(max(times))


@given(
    times=st.lists(event_times, min_size=1, max_size=20),
    cancel_mask=st.lists(st.booleans(), min_size=20, max_size=20),
)
def test_property_cancelled_events_are_skipped_and_not_counted(times, cancel_mask):
    """Cancelled events never run and are excluded from ``processed_events``."""
    sim = Simulator()
    seen = []
    events = [sim.schedule(time, seen.append, index) for index, time in enumerate(times)]
    cancelled = set()
    for index, event in enumerate(events):
        if cancel_mask[index]:
            event.cancel()
            cancelled.add(index)
    sim.run_until_empty()
    kept = [index for index in range(len(times)) if index not in cancelled]
    assert sorted(seen) == kept
    assert sim.processed_events == len(kept)
    assert not cancelled & set(seen)


@given(
    times=st.lists(event_times, min_size=0, max_size=20),
    until=st.integers(min_value=0, max_value=6).map(lambda tick: tick * 0.5),
)
def test_property_run_until_advances_clock_to_exactly_until(times, until):
    """``run(until=...)`` always leaves the clock at exactly ``until``."""
    sim = Simulator()
    for time in times:
        sim.schedule(time, lambda: None)
    sim.run(until=until)
    assert sim.now == until
    assert sim.processed_events == sum(1 for time in times if time <= until)
    assert sim.pending_events == sum(1 for time in times if time > until)


@settings(max_examples=25)
@given(trigger_time=event_times, use_until=st.booleans())
def test_property_reentrant_run_raises_and_simulation_continues(trigger_time, use_until):
    """``run()`` from inside a callback raises, whenever the callback fires."""
    sim = Simulator()
    seen = []

    def nested():
        with pytest.raises(SimulationError):
            sim.run(until=trigger_time + 1.0 if use_until else None)
        seen.append("nested")

    sim.schedule(trigger_time, nested)
    sim.schedule(trigger_time + 0.5, seen.append, "after")
    sim.run_until_empty()
    assert seen == ["nested", "after"]


# ------------------------------------------------------- post fast-path + bugs
def test_post_runs_callback_without_returning_a_handle(sim):
    seen = []
    assert sim.post(1.0, seen.append, "posted") is None
    assert sim.post_at(2.0, seen.append, "posted-at") is None
    sim.run_until_empty()
    assert seen == ["posted", "posted-at"]
    assert sim.processed_events == 2


def test_post_and_schedule_share_tie_break_order(sim):
    seen = []
    sim.post(1.0, seen.append, "first")
    sim.schedule(1.0, seen.append, "second")
    sim.post_at(1.0, seen.append, "third")
    sim.run_until_empty()
    assert seen == ["first", "second", "third"]


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_delay_rejected(sim, delay):
    with pytest.raises(SimulationError, match="non-finite"):
        sim.schedule(delay, lambda: None)
    with pytest.raises(SimulationError, match="non-finite"):
        sim.post(delay, lambda: None)
    assert sim.pending_events == 0


@pytest.mark.parametrize("time", [float("nan"), float("inf")])
def test_non_finite_absolute_time_rejected(sim, time):
    with pytest.raises(SimulationError, match="non-finite"):
        sim.schedule_at(time, lambda: None)
    with pytest.raises(SimulationError, match="non-finite"):
        sim.post_at(time, lambda: None)
    assert sim.pending_events == 0


def test_run_until_nan_rejected(sim):
    with pytest.raises(SimulationError, match="NaN"):
        sim.run(until=float("nan"))


def test_cancel_immediately_drops_pending_count(sim):
    events = [sim.schedule(1.0 + index, lambda: None) for index in range(3)]
    assert sim.pending_events == 3
    events[1].cancel()
    assert sim.pending_events == 2
    events[1].cancel()  # idempotent
    assert sim.pending_events == 2
    sim.run_until_empty()
    assert sim.processed_events == 2


def test_cancel_storm_of_100k_timeouts_keeps_queue_bounded(sim):
    """Regression: cancelled events used to stay queued forever.

    A retry storm arms and cancels 100k timeouts; compaction must keep the
    physically retained entries bounded (and ``pending_events`` exact)
    instead of letting the queue grow with every cancelled watchdog.
    """
    events = [
        sim.schedule(5.0 + (index % 97) * 0.01, lambda: None) for index in range(100_000)
    ]
    for event in events:
        event.cancel()
    stats = sim.queue_stats()
    assert sim.pending_events == 0
    assert stats["queued_entries"] <= 1024, stats
    sim.run_until_empty()
    assert sim.processed_events == 0


def test_mid_run_cancellation_storm_is_compacted(sim):
    timeouts = [sim.schedule(50.0, lambda: None) for _ in range(5_000)]

    def cancel_all():
        for event in timeouts:
            event.cancel()

    sim.schedule(1.0, cancel_all)
    seen = []
    sim.schedule(2.0, seen.append, "after")
    sim.run_until_empty()
    assert seen == ["after"]
    assert sim.pending_events == 0
    assert sim.queue_stats()["queued_entries"] <= 1024
    assert sim.now == pytest.approx(2.0)  # no cancelled timeout ever ran


def test_queue_stats_reports_live_and_cancelled(sim):
    kept = sim.schedule(1.0, lambda: None)
    cancelled = sim.schedule(2.0, lambda: None)
    cancelled.cancel()
    stats = sim.queue_stats()
    assert stats["live"] == 1
    assert stats["cancelled"] == 1
    assert stats["queued_entries"] == 2
    assert not kept.cancelled and cancelled.cancelled


# ------------------------------------------------------------------- profiler
def test_engine_profiler_reports_events_and_depth_histogram(sim):
    from repro.sim.profile import EngineProfiler

    for index in range(10):
        sim.schedule(0.5 * (index % 4), lambda: None)
    profiler = EngineProfiler(sim)
    with profiler:
        sim.run_until_empty()
    report = profiler.report()
    assert report["events"] == 10
    assert report["batches"] >= 1
    assert report["wall_seconds"] > 0.0
    assert report["events_per_sec"] > 0.0
    assert sum(report["depth_histogram"].values()) == report["batches"]
    # Detached afterwards: further runs are not recorded.
    sim.schedule(1.0, lambda: None)
    sim.run_until_empty()
    assert profiler.report()["events"] == 10


def test_attaching_two_profilers_is_rejected(sim):
    from repro.sim.profile import EngineProfiler

    with EngineProfiler(sim):
        with pytest.raises(SimulationError):
            sim.attach_profiler(EngineProfiler(sim))
    sim.detach_profiler()  # no-op when nothing is attached
