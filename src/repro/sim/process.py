"""Generator-based coroutine processes with interruptible waits.

A :class:`Process` wraps a Python generator. The generator yields wait
descriptors; the process resumes when the wait completes. Another model
component can end a wait early in one of two ways:

* :meth:`Process.preempt` sends a marker value in place of the wait's
  result (how the CPU model delivers a hardware interrupt: the kernel's
  one interruptible point compares what its ``yield`` returned with the
  core's marker, and no exception is raised);
* :meth:`Process.interrupt` throws an :class:`Interrupted` exception into
  the generator at its wait point (how the SPM forcibly aborts a resident
  guest, wherever the guest is waiting).

Supported yields:

* ``Timeout(dt)`` — resume ``dt`` picoseconds later,
* ``WaitSignal(sig)`` — resume when ``sig.fire()`` is called (payload is the
  value of the yield expression).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Optional

from repro.common.errors import SimulationError
from repro.sim.engine import PRIO_DEFAULT, Engine, Event, Signal


class Interrupted(Exception):
    """Thrown into a process generator at its wait point by ``interrupt()``."""

    def __init__(self, reason: Any = None):
        # The message is formatted only when asked for.
        super().__init__(reason)
        self.reason = reason

    def __str__(self) -> str:
        return f"interrupted: {self.reason!r}"


class Timeout:
    """Wait descriptor: resume after ``delay`` picoseconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = delay


class WaitSignal:
    """Wait descriptor: resume when the signal fires; yields the payload."""

    __slots__ = ("signal",)

    def __init__(self, signal: Signal):
        self.signal = signal


class _Divert:
    """Stands in for a process's generator until its next resume, which
    sends ``send`` (a preemption marker) or throws ``throw`` (an
    :class:`Interrupted`) into the real generator instead of the payload.

    Only :meth:`Process._end_wait` installs one, in the rare case a
    signal's fire has taken the wait but not resumed it yet, so the
    per-event resume path carries no check for it.
    """

    __slots__ = ("_proc", "_gen", "_send", "_throw")

    def __init__(self, proc: "Process", send: Any, throw: Optional[BaseException]):
        self._proc = proc
        self._gen = proc._gen
        self._send = send
        self._throw = throw

    def send(self, _payload: Any) -> Any:
        gen = self._proc._gen = self._gen
        if self._throw is not None:
            return gen.throw(self._throw)
        return gen.send(self._send)


class Process:
    """A coroutine scheduled on an :class:`Engine`.

    The process starts on the engine's *next* event at the current
    timestamp (not synchronously inside the constructor) so that creation
    order at one instant doesn't change model behaviour mid-callback.
    """

    def __init__(self, engine: Engine, gen: Generator, name: str = "proc"):
        self.engine = engine
        self.name = name
        self._gen = gen
        self.alive = True
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        #: ``_step`` bound once: every wait resumes through this one object
        #: (the engine event's callback, or the signal subscription), so a
        #: resume allocates no bound method and no closure, and
        #: ``Signal.unsubscribe`` finds it by identity.
        self._resume = self._step
        self._pending_event: Optional[Event] = None
        self._pending_signal: Optional[Signal] = None
        self._pending_event = engine.schedule(0, self._resume)

    # -- lifecycle -------------------------------------------------------

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        """Resume the generator: send ``send`` into it, or throw ``throw``.

        A ``Timeout`` (and the start) schedules the bound method with no
        arguments, so the engine drain takes its plain ``fn()`` call; a
        ``WaitSignal`` subscribes it, so ``Signal.fire`` sends the payload.

        A ``Timeout`` resume is pushed onto the engine's heap here, with
        the ``(time, priority, seq)`` that ``Engine.schedule`` would give
        it, unless an instance-level ``schedule`` wrapper (the sanitizer)
        is attached: that test is made per wait, never cached, so the
        wrapper sees every wait.
        """
        self._pending_event = None
        self._pending_signal = None
        try:
            if throw is not None:
                item = self._gen.throw(throw)
            else:
                item = self._gen.send(send)
        except StopIteration as stop:
            self._finish(result=getattr(stop, "value", None))
            return
        # Coroutine boundary: _finish records the crash (an escaped
        # interrupt terminates the process) and re-raises every
        # non-Interrupted exception with its original type.
        except Exception as exc:  # simlint: disable=broad-except -- _finish re-raises
            self._finish(exception=exc)
            return
        # Exact-type dispatch: the two descriptors are final classes.
        kind = type(item)
        if kind is Timeout:
            engine = self.engine
            if "schedule" in engine.__dict__:
                self._pending_event = engine.schedule(item.delay, self._resume)
                return
            # Engine.schedule, inline: most resumes end in a Timeout wait.
            delay = item.delay
            if delay < 0:
                raise SimulationError(f"cannot schedule into the past (delay={delay})")
            time = engine.now + delay
            seq = engine._seq = engine._seq + 1
            ev = self._pending_event = Event(time, PRIO_DEFAULT, seq, self._resume, ())
            heappush(engine._queue, (time, PRIO_DEFAULT, seq, ev))
        elif kind is WaitSignal:
            sig = item.signal
            self._pending_signal = sig
            sig.subscribe(self._resume)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported item {item!r}"
            )

    def _finish(self, result: Any = None, exception: Optional[BaseException] = None) -> None:
        self.alive = False
        self.result = result
        self.exception = exception
        if exception is not None and not isinstance(exception, Interrupted):
            raise exception

    # -- external control --------------------------------------------------

    def preempt(self, marker: Any) -> bool:
        """End the process's wait now and send ``marker`` as its result.

        The marker arrives as the value of the ``yield`` that waited, in a
        delay-0 event; nothing is thrown or allocated beyond that event.
        Returns True if the process was waiting and will receive the
        marker; False if it is dead or already resuming.
        """
        return self._end_wait(marker, None)

    def interrupt(self, reason: Any = None) -> bool:
        """Throw :class:`Interrupted` into the process at its wait point.

        Returns True if the process was waiting and has been scheduled to
        receive the interrupt; False if it is dead or already resuming.
        """
        return self._end_wait(None, Interrupted(reason))

    def _end_wait(self, send: Any, throw: Optional[BaseException]) -> bool:
        """Withdraw the pending wait and resume with ``send``/``throw``."""
        if not self.alive:
            return False
        ev = self._pending_event
        if ev is not None and ev.fn is not None:
            ev.cancel()
            self._pending_event = None
        elif self._pending_signal is not None:
            sig, self._pending_signal = self._pending_signal, None
            if not sig.unsubscribe(self._resume):
                # The signal is firing and has yet to reach this process
                # (an earlier waiter's wake-up is ending its wait). That
                # fire's resume cannot be withdrawn, so it delivers the
                # marker or the interrupt instead of the payload.
                self._gen = _Divert(self, send, throw)
                return True
        else:
            return False
        self.engine.schedule(0, self._resume, send, throw)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"Process({self.name!r}, {state})"
