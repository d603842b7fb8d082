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
