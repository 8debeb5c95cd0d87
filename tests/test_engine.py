"""Unit tests for the discrete-event engine."""

import pytest

from repro.simulation.engine import Event, EventKind, SimulationEngine, SimulationError


def test_events_fire_in_time_order():
    engine = SimulationEngine()
    fired = []
    engine.schedule(5.0, lambda e, ev: fired.append("b"))
    engine.schedule(1.0, lambda e, ev: fired.append("a"))
    engine.schedule(9.0, lambda e, ev: fired.append("c"))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    engine = SimulationEngine()
    seen = []
    engine.schedule(3.5, lambda e, ev: seen.append(e.now))
    engine.run()
    assert seen == [3.5]
    assert engine.now == 3.5


def test_same_time_events_fire_in_schedule_order():
    engine = SimulationEngine()
    fired = []
    for label in "abc":
        engine.schedule(2.0, lambda e, ev, l=label: fired.append(l))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_kind_priority_orders_same_instant_events():
    engine = SimulationEngine()
    fired = []
    engine.schedule(1.0, lambda e, ev: fired.append("auction"), kind=EventKind.AUCTION)
    engine.schedule(1.0, lambda e, ev: fired.append("finish"), kind=EventKind.JOB_FINISH)
    engine.schedule(1.0, lambda e, ev: fired.append("lease"), kind=EventKind.LEASE_EXPIRY)
    engine.run()
    assert fired == ["finish", "lease", "auction"]


def test_cancelled_event_does_not_fire():
    engine = SimulationEngine()
    fired = []
    event = engine.schedule(1.0, lambda e, ev: fired.append("x"))
    assert engine.cancel(event) is True
    engine.run()
    assert fired == []


def test_cancel_twice_returns_false():
    engine = SimulationEngine()
    event = engine.schedule(1.0, lambda e, ev: None)
    assert engine.cancel(event) is True
    assert engine.cancel(event) is False


def test_scheduling_in_past_raises():
    engine = SimulationEngine(start_time=10.0)
    with pytest.raises(SimulationError):
        engine.schedule(5.0, lambda e, ev: None)


def test_schedule_at_current_instant_fires():
    engine = SimulationEngine()
    fired = []

    def first(e, ev):
        fired.append("first")
        e.schedule(e.now, lambda e2, ev2: fired.append("second"))

    engine.schedule(1.0, first)
    engine.run()
    assert fired == ["first", "second"]


def test_run_until_is_inclusive_and_stops_clock():
    engine = SimulationEngine()
    fired = []
    engine.schedule(1.0, lambda e, ev: fired.append(1.0))
    engine.schedule(2.0, lambda e, ev: fired.append(2.0))
    engine.schedule(5.0, lambda e, ev: fired.append(5.0))
    engine.run(until=2.0)
    assert fired == [1.0, 2.0]
    assert engine.now == 2.0
    assert engine.pending == 1


def test_run_max_events_bound():
    engine = SimulationEngine()
    for t in range(5):
        engine.schedule(float(t), lambda e, ev: None)
    executed = engine.run(max_events=3)
    assert executed == 3
    assert engine.pending == 2


def test_stop_during_callback():
    engine = SimulationEngine()
    fired = []

    def stopper(e, ev):
        fired.append("stop")
        e.stop()

    engine.schedule(1.0, stopper)
    engine.schedule(2.0, lambda e, ev: fired.append("late"))
    engine.run()
    assert fired == ["stop"]


def test_peek_time_skips_cancelled():
    engine = SimulationEngine()
    first = engine.schedule(1.0, lambda e, ev: None)
    engine.schedule(2.0, lambda e, ev: None)
    engine.cancel(first)
    assert engine.peek_time() == 2.0


def test_events_processed_counts():
    engine = SimulationEngine()
    for t in range(4):
        engine.schedule(float(t), lambda e, ev: None)
    engine.run()
    assert engine.events_processed == 4


def test_run_is_not_reentrant():
    engine = SimulationEngine()

    def nested(e, ev):
        with pytest.raises(SimulationError):
            e.run()

    engine.schedule(1.0, nested)
    engine.run()


def test_event_repr_mentions_state():
    event = Event(time=1.0, kind=EventKind.GENERIC, callback=lambda e, ev: None)
    assert "pending" in repr(event)
