"""Engine event-ordering, cancellation, and clock semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SimulationError
from repro.sim.engine import Engine, Signal, PRIO_HW, PRIO_LATE


def test_events_fire_in_time_order():
    eng = Engine()
    log = []
    eng.schedule(30, log.append, "c")
    eng.schedule(10, log.append, "a")
    eng.schedule(20, log.append, "b")
    eng.run()
    assert log == ["a", "b", "c"]
    assert eng.now == 30


def test_equal_time_fires_in_priority_then_insertion_order():
    eng = Engine()
    log = []
    eng.schedule(10, log.append, "late", priority=PRIO_LATE)
    eng.schedule(10, log.append, "first")
    eng.schedule(10, log.append, "second")
    eng.schedule(10, log.append, "hw", priority=PRIO_HW)
    eng.run()
    assert log == ["hw", "first", "second", "late"]


def test_cancel_prevents_firing():
    eng = Engine()
    log = []
    ev = eng.schedule(10, log.append, "x")
    eng.schedule(5, ev.cancel)
    eng.run()
    assert log == []
    assert not ev.pending


def test_cancel_is_idempotent():
    eng = Engine()
    ev = eng.schedule(10, lambda: None)
    ev.cancel()
    ev.cancel()
    eng.run()


def test_stale_handle_cancel_does_not_hit_a_later_event():
    # A handle kept past its firing must not alias the next scheduled
    # event: cancelling it is a no-op, whatever was scheduled since.
    eng = Engine()
    out = []
    ev1 = eng.schedule(10, out.append, "first")
    eng.run()
    ev2 = eng.schedule(10, out.append, "second")
    ev1.cancel()
    eng.run()
    assert out == ["first", "second"]
    assert ev2 is not ev1


def test_cancelled_event_counter_stays_exact():
    eng = Engine()
    out = []
    keep = eng.schedule(30, out.append, "keep")
    drop = eng.schedule(10, out.append, "drop")
    assert eng.queue_length == 2
    drop.cancel()
    assert eng.queue_length == 1
    drop.cancel()  # idempotent: counted once
    assert eng.queue_length == 1
    eng.run()
    assert out == ["keep"]
    assert eng.queue_length == 0
    assert keep.pending is False


def test_queue_length_tracks_schedule_cancel_fire():
    eng = Engine()
    events = [eng.schedule(10 * (i + 1), lambda: None) for i in range(5)]
    assert eng.queue_length == 5
    events[2].cancel()
    assert eng.queue_length == 4
    events[4].cancel()
    assert eng.queue_length == 3
    eng.run()
    assert eng.queue_length == 0
    assert eng.events_fired == 3
    assert not any(ev.pending for ev in events)


def test_cancelled_head_skipped_in_run_until():
    eng = Engine()
    out = []
    head = eng.schedule(5, out.append, "cancelled-head")
    eng.schedule(10, out.append, "kept")
    head.cancel()
    eng.run_until(7)  # drains past the tombstone only
    assert out == []
    assert eng.now == 7
    assert eng.queue_length == 1
    eng.run()
    assert out == ["kept"]
    assert eng._queue == []


def test_cancelled_head_skipped_in_step():
    eng = Engine()
    out = []
    head = eng.schedule(5, out.append, "cancelled-head")
    eng.schedule(10, out.append, "kept")
    head.cancel()
    assert eng.step() is True  # fires "kept", skipping the tombstone
    assert out == ["kept"]
    assert eng.step() is False
    assert eng.events_fired == 1


def test_cancelled_mid_batch_same_timestamp():
    # Tombstone *inside* a same-instant batch: the batched drain must
    # skip it without dropping later events.
    eng = Engine()
    out = []
    eng.schedule(10, out.append, "a")
    victim = eng.schedule(10, out.append, "victim")
    eng.schedule(10, out.append, "b")
    eng.schedule(20, out.append, "later")
    victim.cancel()
    eng.run()
    assert out == ["a", "b", "later"]
    assert eng.queue_length == 0


def test_schedule_into_past_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-1, lambda: None)
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.schedule_at(5, lambda: None)


def test_run_until_advances_clock_even_without_events():
    eng = Engine()
    eng.run_until(1000)
    assert eng.now == 1000


def test_run_until_does_not_fire_future_events():
    eng = Engine()
    log = []
    eng.schedule(50, log.append, "early")
    eng.schedule(150, log.append, "late")
    eng.run_until(100)
    assert log == ["early"]
    assert eng.now == 100
    eng.run_until(200)
    assert log == ["early", "late"]


def test_run_until_inclusive_boundary():
    eng = Engine()
    log = []
    eng.schedule(100, log.append, "attime")
    eng.run_until(100)
    assert log == ["attime"]


def test_run_until_past_rejected():
    eng = Engine()
    eng.run_until(100)
    with pytest.raises(SimulationError):
        eng.run_until(50)


def test_events_scheduled_during_run_fire():
    eng = Engine()
    log = []

    def cascade():
        log.append("a")
        eng.schedule(5, log.append, "b")

    eng.schedule(10, cascade)
    eng.run()
    assert log == ["a", "b"]
    assert eng.now == 15


def test_stop_halts_run():
    eng = Engine()
    log = []
    eng.schedule(10, log.append, "a")
    eng.schedule(20, eng.stop)
    eng.schedule(30, log.append, "b")
    eng.run()
    assert log == ["a"]
    # Remaining event still queued.
    assert eng.queue_length == 1


def test_queue_length_and_peek():
    eng = Engine()
    assert eng.peek_time() is None
    eng.schedule(10, lambda: None)
    ev = eng.schedule(5, lambda: None)
    assert eng.queue_length == 2
    assert eng.peek_time() == 5
    ev.cancel()
    assert eng.queue_length == 1
    assert eng.peek_time() == 10


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=50))
def test_arbitrary_schedules_fire_sorted(delays):
    eng = Engine()
    fired = []
    for d in delays:
        eng.schedule(d, lambda d=d: fired.append(eng.now))
    eng.run()
    assert fired == sorted(delays)
    assert eng.events_fired == len(delays)


class TestSignal:
    def test_fire_wakes_all_subscribers(self):
        eng = Engine()
        sig = Signal(eng, "irq")
        got = []
        sig.subscribe(got.append)
        sig.subscribe(got.append)
        assert sig.fire("payload") == 2
        assert got == ["payload", "payload"]

    def test_subscriptions_are_one_shot(self):
        eng = Engine()
        sig = Signal(eng)
        got = []
        sig.subscribe(got.append)
        sig.fire(1)
        sig.fire(2)
        assert got == [1]

    def test_subscribe_during_fire_not_woken_same_edge(self):
        eng = Engine()
        sig = Signal(eng)
        got = []

        def resub(payload):
            got.append(payload)
            sig.subscribe(got.append)

        sig.subscribe(resub)
        sig.fire("x")
        assert got == ["x"]
        sig.fire("y")
        assert got == ["x", "y"]

    def test_unsubscribe(self):
        eng = Engine()
        sig = Signal(eng)
        got = []
        sig.subscribe(got.append)
        sig.unsubscribe(got.append)
        sig.unsubscribe(got.append)  # idempotent
        sig.fire(1)
        assert got == []

    def test_fire_count_and_payload(self):
        eng = Engine()
        sig = Signal(eng)
        sig.fire("a")
        sig.fire("b")
        assert sig.fire_count == 2
        assert sig.last_payload == "b"


class TestPeekTime:
    def test_empty_queue_returns_none(self):
        assert Engine().peek_time() is None

    def test_returns_next_pending_time_without_advancing(self):
        eng = Engine()
        eng.schedule(30, lambda: None)
        eng.schedule(10, lambda: None)
        assert eng.peek_time() == 10
        assert eng.now == 0

    def test_skips_cancelled_head_lazily(self):
        eng = Engine()
        first = eng.schedule(10, lambda: None)
        eng.schedule(20, lambda: None)
        eng.schedule(30, lambda: None)
        first.cancel()
        assert eng.peek_time() == 20
        # The cancelled head was popped, not re-scanned on the next call.
        assert len(eng._queue) == 2

    def test_all_cancelled_drains_to_none(self):
        eng = Engine()
        events = [eng.schedule(t, lambda: None) for t in (10, 20, 30)]
        for ev in events:
            ev.cancel()
        assert eng.peek_time() is None
        assert eng._queue == []

    def test_mass_cancellation_keeps_only_survivor(self):
        # Regression: peek_time used to sort the whole heap per call; the
        # lazy-pop version must still find the single survivor among many
        # cancelled entries and discard the rest.
        eng = Engine()
        doomed = [eng.schedule(t, lambda: None) for t in range(1, 1001)]
        survivor = eng.schedule(5000, lambda: None)
        for ev in doomed:
            ev.cancel()
        assert eng.peek_time() == 5000
        assert len(eng._queue) == 1
        survivor.cancel()
        assert eng.peek_time() is None

    def test_peek_does_not_disturb_firing_order(self):
        eng = Engine()
        log = []
        cancelled = eng.schedule(1, log.append, "x")
        eng.schedule(5, log.append, "a")
        eng.schedule(7, log.append, "b")
        cancelled.cancel()
        assert eng.peek_time() == 5
        eng.run()
        assert log == ["a", "b"]
        assert eng.now == 7
