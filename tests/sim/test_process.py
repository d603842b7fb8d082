"""Coroutine process semantics: timeouts, signals, interrupts, crashes."""

import pickle

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import Engine, Signal
from repro.sim.process import Process, Timeout, WaitSignal, Interrupted


def test_timeout_sequence():
    eng = Engine()
    log = []

    def body():
        log.append(("start", eng.now))
        yield Timeout(100)
        log.append(("mid", eng.now))
        yield Timeout(50)
        log.append(("end", eng.now))

    Process(eng, body(), "p")
    eng.run()
    assert log == [("start", 0), ("mid", 100), ("end", 150)]


def test_process_result():
    eng = Engine()

    def body():
        yield Timeout(10)
        return 42

    p = Process(eng, body())
    eng.run()
    assert not p.alive
    assert p.result == 42


def test_wait_signal_receives_payload():
    eng = Engine()
    sig = Signal(eng, "s")
    got = []

    def body():
        payload = yield WaitSignal(sig)
        got.append(payload)

    Process(eng, body())
    eng.schedule(25, sig.fire, "hello")
    eng.run()
    assert got == ["hello"]


def test_interrupt_timeout_wait():
    eng = Engine()
    log = []

    def body():
        try:
            yield Timeout(1000)
            log.append("not-reached")
        except Interrupted as e:
            log.append(("interrupted", e.reason, eng.now))
            yield Timeout(10)
            log.append(("resumed", eng.now))

    p = Process(eng, body())
    eng.schedule(300, p.interrupt, "preempt")
    eng.run()
    assert log == [("interrupted", "preempt", 300), ("resumed", 310)]


def test_interrupt_during_timeout_lands_at_once_and_stale_handle_is_inert():
    """A Timeout resumes through the no-arg path; an interrupt during the
    wait is thrown in at the same instant; and cancel() on the wait's
    now-stale handle cancels nothing."""
    eng = Engine()
    log = []

    def body():
        try:
            yield Timeout(1000)
        except Interrupted as exc:
            log.append(("interrupted", eng.now, str(exc)))
        yield Timeout(50)
        log.append(("resumed", eng.now))

    p = Process(eng, body())
    eng.run_until(0)
    stale = p._pending_event
    assert stale.pending and stale.args == ()
    eng.schedule(300, p.interrupt, "irq")
    eng.run_until(300)
    assert log == [("interrupted", 300, "interrupted: 'irq'")]
    assert not stale.pending
    stale.cancel()
    assert p._pending_event is not stale and p._pending_event.pending
    eng.run()
    assert log == [("interrupted", 300, "interrupted: 'irq'"), ("resumed", 350)]


def test_interrupted_message_and_pickle():
    exc = Interrupted(("core", 3))
    assert str(exc) == "interrupted: ('core', 3)"
    assert pickle.loads(pickle.dumps(exc)).reason == ("core", 3)


def test_interrupt_signal_wait():
    eng = Engine()
    sig = Signal(eng)
    log = []

    def body():
        try:
            yield WaitSignal(sig)
        except Interrupted:
            log.append("intr")

    p = Process(eng, body())
    eng.schedule(10, p.interrupt)
    eng.run()
    assert log == ["intr"]
    # The signal no longer has stale subscribers.
    assert sig.fire() == 0


def test_interrupt_while_parked_on_a_reused_wait_is_not_resumed_by_a_later_fire():
    """One WaitSignal descriptor yielded again and again (the kernel's idle
    wait): an interrupt unsubscribes the process, so a later fire of the
    signal does not resume it a second time."""
    eng = Engine()
    sig = Signal(eng)
    wait = WaitSignal(sig)
    log = []

    def body():
        for _ in range(3):
            try:
                payload = yield wait
                log.append(("woken", payload, eng.now))
            except Interrupted:
                log.append(("intr", eng.now))
                yield Timeout(100)

    p = Process(eng, body())
    eng.schedule(10, sig.fire, "a")
    eng.schedule(20, p.interrupt)
    eng.schedule(50, sig.fire, "stale")  # the process is in its Timeout
    eng.schedule(200, sig.fire, "b")
    eng.run()
    assert log == [("woken", "a", 10), ("intr", 20), ("woken", "b", 200)]
    assert not p.alive


def test_processes_on_one_signal_unsubscribe_independently():
    """Each process subscribes its own bound resume; interrupting one
    removes only its subscription, never the other process's."""
    eng = Engine()
    sig = Signal(eng)
    log = []

    def body(name):
        try:
            payload = yield WaitSignal(sig)
            log.append((name, payload))
        except Interrupted:
            log.append((name, "intr"))

    first = Process(eng, body("first"))
    second = Process(eng, body("second"))
    eng.run()
    assert first._resume != second._resume
    assert first.interrupt()
    eng.run()
    assert sig.fire("go") == 1
    eng.run()
    assert log == [("first", "intr"), ("second", "go")]
    assert not first.interrupt() and not second.interrupt()


def test_interrupt_from_an_earlier_waiter_of_the_same_fire_wins():
    """Two processes wait on one signal and the first one's wake-up
    interrupts the second: the second sees only the interrupt, never the
    payload, and its next Timeout resumes it exactly once."""
    eng = Engine()
    sig = Signal(eng)
    log = []
    procs = {}

    def waker():
        yield WaitSignal(sig)
        assert procs["sleeper"].interrupt("from waker")
        assert not procs["sleeper"].interrupt("twice")

    def sleeper():
        try:
            payload = yield WaitSignal(sig)
            log.append(("woken", payload))
        except Interrupted as exc:
            log.append(("intr", exc.reason, eng.now))
        for _ in range(2):
            try:
                yield Timeout(100)
                log.append(("timeout", eng.now))
            except Interrupted as exc:
                log.append(("late intr", exc.reason, eng.now))

    Process(eng, waker())
    procs["sleeper"] = Process(eng, sleeper())
    eng.run()
    sig.fire("go")
    eng.run()
    assert log == [("intr", "from waker", 0), ("timeout", 100), ("timeout", 200)]
    assert not procs["sleeper"].alive
    assert eng.peek_time() is None


MARK = object()


def test_preempt_timeout_wait_sends_the_marker_and_stale_handle_is_inert():
    """preempt() cancels the pending Timeout and sends the marker as the
    wait's value at the same instant; cancel() on the wait's now-stale
    handle cancels nothing."""
    eng = Engine()
    log = []

    def body():
        got = yield Timeout(1000)
        log.append(("woken", got is MARK, eng.now))
        got = yield Timeout(50)
        log.append(("resumed", got, eng.now))

    p = Process(eng, body())
    eng.run_until(0)
    stale = p._pending_event
    assert stale.pending
    eng.schedule(300, p.preempt, MARK)
    eng.run_until(300)
    assert log == [("woken", True, 300)]
    assert not stale.pending
    stale.cancel()
    assert p._pending_event is not stale and p._pending_event.pending
    eng.run()
    assert log == [("woken", True, 300), ("resumed", None, 350)]
    assert eng.events_fired == 4  # start, preempt, its resume, the 50 ps wait


def test_preempt_signal_wait_unsubscribes_so_a_later_fire_does_not_resume():
    """preempt() on a signal wait takes the process off the signal: a
    later fire wakes nobody, and the process sees only the marker."""
    eng = Engine()
    sig = Signal(eng)
    wait = WaitSignal(sig)
    log = []

    def body():
        log.append((yield wait))
        log.append((yield Timeout(100)))

    p = Process(eng, body())
    eng.run()
    assert p.preempt(MARK)
    assert not p.preempt(MARK)  # already resuming
    assert sig.fire("stale") == 0
    eng.run()
    assert log == [MARK, None]
    assert not p.alive


def test_preempt_from_an_earlier_waiter_of_the_same_fire_wins():
    """Two processes wait on one signal and the first one's wake-up
    preempts the second: the second sees only the marker, never the
    payload, and its next Timeout resumes it exactly once."""
    eng = Engine()
    sig = Signal(eng)
    log = []
    procs = {}

    def waker():
        yield WaitSignal(sig)
        assert procs["sleeper"].preempt(MARK)
        assert not procs["sleeper"].preempt(MARK)

    def sleeper():
        got = yield WaitSignal(sig)
        log.append(("marker" if got is MARK else got, eng.now))
        for _ in range(2):
            got = yield Timeout(100)
            log.append(("late marker" if got is MARK else "timeout", eng.now))

    Process(eng, waker())
    procs["sleeper"] = Process(eng, sleeper())
    eng.run()
    sig.fire("go")
    eng.run()
    assert log == [("marker", 0), ("timeout", 100), ("timeout", 200)]
    assert not procs["sleeper"].alive
    assert eng.peek_time() is None


def test_preempt_dead_process_returns_false():
    eng = Engine()

    def body():
        yield Timeout(1)

    p = Process(eng, body())
    eng.run()
    assert p.preempt(MARK) is False


def test_interrupt_dead_process_returns_false():
    eng = Engine()

    def body():
        yield Timeout(1)

    p = Process(eng, body())
    eng.run()
    assert p.interrupt() is False


def test_uncaught_interrupt_terminates_quietly():
    eng = Engine()

    def body():
        yield Timeout(1000)

    p = Process(eng, body())
    eng.schedule(10, p.interrupt, "die")
    eng.run()
    assert not p.alive
    assert isinstance(p.exception, Interrupted)


def test_exception_in_process_propagates():
    eng = Engine()

    def body():
        yield Timeout(10)
        raise ValueError("boom")

    Process(eng, body())
    with pytest.raises(ValueError, match="boom"):
        eng.run()


def test_process_start_is_asynchronous():
    eng = Engine()
    log = []

    def body():
        log.append("started")
        yield Timeout(1)

    Process(eng, body())
    assert log == []  # not started synchronously
    eng.run()
    assert log == ["started"]


def test_unsupported_yield_raises():
    eng = Engine()

    def body():
        yield "nonsense"

    Process(eng, body())
    with pytest.raises(Exception):
        eng.run()


def test_repro_error_propagates_and_marks_process_dead():
    # ReproError subclasses are fatal engine/model invariant failures:
    # they escape with their original type, and the process is dead with
    # the error recorded on it.
    eng = Engine()

    def crasher():
        yield Timeout(10)
        raise SimulationError("invariant broken")

    crash = Process(eng, crasher(), "crash")
    with pytest.raises(SimulationError, match="invariant broken"):
        eng.run()
    assert not crash.alive
    assert isinstance(crash.exception, SimulationError)
