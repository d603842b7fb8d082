"""Runtime sanitizer for the discrete-event engine.

:class:`InvariantChecker` wraps a live :class:`~repro.sim.engine.Engine`
and revalidates the contracts model code is supposed to uphold, on every
scheduling operation and every fired event:

* the simulated clock is monotonic (it never moves backwards, even if a
  model pokes ``engine.now`` directly);
* nothing schedules into the past;
* the event queue stays under a watermark (runaway feedback loops show up
  as unbounded queues long before they exhaust memory);
* ``Engine.step`` is never re-entered from inside an event callback
  (models must schedule follow-up work, not recursively drain the queue).

The checker shadows the engine's ``step`` and ``schedule`` bound methods
on the instance, so the engine itself stays branch-free on the hot path
when the sanitizer is off. ``Engine.schedule_at`` forwards to
``schedule`` and so is checked too; ``Engine.run``/``run_until`` detect
the ``step`` shadow and fire every event through it instead of through
the inline drain. Enable it per-process with ``REPRO_SANITIZE=1`` or
the CLI's ``--sanitize`` flag (see ``repro.hw.machine``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.common.errors import SimulationError
from repro.sim.engine import Engine, Event, PRIO_DEFAULT


class InvariantChecker:
    """Attach runtime invariant checks to an engine (detachable)."""

    def __init__(self, engine: Engine, *, max_queue: int = 2_000_000):
        if max_queue <= 0:
            raise SimulationError("max_queue watermark must be positive")
        self.engine = engine
        self.max_queue = max_queue
        #: peak raw queue length observed (includes cancelled entries)
        self.high_watermark = 0
        #: number of invariant evaluations performed
        self.checks = 0
        #: number of events stepped under the checker
        self.events_checked = 0
        self._last_time = engine.now
        self._in_step = False
        self._orig_step: Callable[[], bool] = engine.step
        self._orig_schedule = engine.schedule
        # Shadow the bound methods on the instance.
        engine.step = self._checked_step  # type: ignore[method-assign]
        engine.schedule = self._checked_schedule  # type: ignore[method-assign]
        engine.sanitizer = self  # type: ignore[attr-defined]

    # -- wrappers ----------------------------------------------------------

    def _checked_schedule(
        self, delay: int, fn: Callable, *args: Any, priority: int = PRIO_DEFAULT
    ) -> Event:
        self.checks += 1
        now = self.engine.now
        time = now + delay
        if not isinstance(time, int):
            raise SimulationError(
                f"non-integer timestamp {time!r} scheduled (timestamps are "
                "integer picoseconds)"
            )
        if delay < 0:
            raise SimulationError(
                f"sanitizer: schedule into the past (t={time} < now={now})"
            )
        ev = self._orig_schedule(delay, fn, *args, priority=priority)
        qlen = len(self.engine._queue)
        if qlen > self.high_watermark:
            self.high_watermark = qlen
        if qlen > self.max_queue:
            raise SimulationError(
                f"sanitizer: event queue exceeded watermark "
                f"({qlen} > {self.max_queue}); likely a runaway scheduling loop"
            )
        return ev

    def _checked_step(self) -> bool:
        self.checks += 1
        if self._in_step:
            raise SimulationError(
                "sanitizer: Engine.step() re-entered from inside an event "
                "callback; schedule follow-up work instead of draining the "
                "queue recursively"
            )
        before = self.engine.now
        if before < self._last_time:
            raise SimulationError(
                f"sanitizer: simulated clock went backwards "
                f"(now={before} < last observed {self._last_time})"
            )
        self._in_step = True
        try:
            fired = self._orig_step()
        finally:
            self._in_step = False
        if self.engine.now < before:
            raise SimulationError(
                f"sanitizer: event moved the clock backwards "
                f"(now={self.engine.now} < {before})"
            )
        self._last_time = self.engine.now
        if fired:
            self.events_checked += 1
        return fired

    # -- lifecycle ---------------------------------------------------------

    def detach(self) -> None:
        """Restore the engine's unwrapped methods."""
        self.engine.step = self._orig_step  # type: ignore[method-assign]
        self.engine.schedule = self._orig_schedule  # type: ignore[method-assign]
        if getattr(self.engine, "sanitizer", None) is self:
            self.engine.sanitizer = None  # type: ignore[attr-defined]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InvariantChecker(events={self.events_checked}, "
            f"watermark={self.high_watermark})"
        )


def attach_if_enabled(engine: Engine) -> Optional[InvariantChecker]:
    """Attach a checker when ``REPRO_SANITIZE`` is set (the env hook used
    by :class:`repro.hw.machine.Machine`)."""
    import os

    if os.environ.get("REPRO_SANITIZE", "") in ("", "0"):
        return None
    return InvariantChecker(engine)
