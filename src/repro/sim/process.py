"""Generator-based coroutine processes with interruptible waits.

A :class:`Process` wraps a Python generator. The generator yields wait
descriptors; the process resumes when the wait completes, or an
:class:`Interrupted` exception is thrown into it if another model component
calls :meth:`Process.interrupt` (how the CPU model preempts a running
phase, and how kernels cancel sleeping threads).

Supported yields:

* ``Timeout(dt)`` — resume ``dt`` picoseconds later,
* ``WaitSignal(sig)`` — resume when ``sig.fire()`` is called (payload is the
  value of the yield expression).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.common.errors import SimulationError
from repro.sim.engine import Engine, Event, Signal


class Interrupted(Exception):
    """Thrown into a process generator at its wait point by ``interrupt()``."""

    def __init__(self, reason: Any = None):
        # The message is formatted only when asked for: an interrupt lands
        # on every hardware IRQ, and almost none is ever printed.
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


class _ThrowOnSend:
    """Stands in for a process's generator until its next resume, which
    throws ``exc`` into the real generator instead of sending a value.

    Only :meth:`Process.interrupt` installs one, in the rare case a
    signal's fire has taken the wait but not resumed it yet, so the
    per-event resume path carries no check for it.
    """

    __slots__ = ("_proc", "_gen", "_exc")

    def __init__(self, proc: "Process", exc: BaseException):
        self._proc = proc
        self._gen = proc._gen
        self._exc = exc

    def send(self, _payload: Any) -> Any:
        self._proc._gen = self._gen
        return self._gen.throw(self._exc)


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
        The engine's ``schedule`` is looked up per wait, never cached, so
        an instance-level wrapper (the sanitizer) sees every wait.
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
            self._pending_event = self.engine.schedule(item.delay, self._resume)
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

    def interrupt(self, reason: Any = None) -> bool:
        """Throw :class:`Interrupted` into the process at its wait point.

        Returns True if the process was waiting and has been scheduled to
        receive the interrupt; False if it is dead or already resuming.
        """
        if not self.alive:
            return False
        if self._pending_event is not None and self._pending_event.pending:
            self._pending_event.cancel()
            self._pending_event = None
        elif self._pending_signal is not None:
            sig, self._pending_signal = self._pending_signal, None
            if not sig.unsubscribe(self._resume):
                # The signal is firing and has yet to reach this process
                # (an earlier waiter's wake-up is interrupting it). That
                # fire's resume cannot be withdrawn, so it delivers the
                # interrupt instead of the payload.
                self._gen = _ThrowOnSend(self, Interrupted(reason))
                return True
        else:
            return False
        self.engine.schedule(0, self._resume, None, Interrupted(reason))
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"Process({self.name!r}, {state})"
