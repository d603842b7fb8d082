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

from typing import Any, Callable, Generator, Optional

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
        self._pending_event: Optional[Event] = None
        self._pending_signal: Optional[Signal] = None
        self._signal_cb: Optional[Callable] = None
        self._pending_event = engine.schedule(0, self._step)

    # -- lifecycle -------------------------------------------------------

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        """Resume the generator: send ``send`` into it, or throw ``throw``.

        A ``Timeout`` (and the start) schedules the bound method with no
        arguments, so the engine drain takes its plain ``fn()`` call.
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
        self._arm(item)

    def _arm(self, item: Any) -> None:
        if isinstance(item, Timeout):
            self._pending_event = self.engine.schedule(item.delay, self._step)
        elif isinstance(item, WaitSignal):
            sig = item.signal

            def _cb(payload, _self=self):
                _self._signal_cb = None
                _self._pending_signal = None
                _self._step(payload)

            self._signal_cb = _cb
            self._pending_signal = sig
            sig.subscribe(_cb)
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
        elif self._pending_signal is not None and self._signal_cb is not None:
            self._pending_signal.unsubscribe(self._signal_cb)
            self._signal_cb = None
            self._pending_signal = None
        else:
            return False
        self.engine.schedule(0, self._step, None, Interrupted(reason))
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"Process({self.name!r}, {state})"
