"""The discrete-event core: clock, event queue, signals.

Determinism contract
--------------------
Two events scheduled for the same instant fire in (priority, insertion
order). All model code is single-threaded Python over integer timestamps,
so a given (platform config, root seed) pair always produces bit-identical
traces. The test suite relies on this.

Every ``schedule`` allocates a fresh :class:`Event`, so a handle stays
valid for as long as it is held: ``cancel()`` on an event that already
fired (or was already cancelled) is a no-op. Periodic work re-arms itself
with a plain ``schedule`` at the end of its callback (see
``hw/devices.PeriodicDevice`` and ``faults/watchdog.Watchdog``).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.common.errors import SimulationError

# Priorities: lower fires first at equal timestamps. Hardware (interrupt
# delivery) beats software wakeups, which beat bookkeeping.
PRIO_HW = 0
PRIO_DEFAULT = 10
PRIO_LATE = 20


class Event:
    """A scheduled callback. Returned by :meth:`Engine.schedule` for cancellation."""

    __slots__ = ("time", "priority", "seq", "fn", "args")

    def __init__(self, time: int, priority: int, seq: int, fn: Callable, args: Tuple):
        self.time = time
        self.priority = priority
        self.seq = seq
        #: The callback; None once the event has fired or been cancelled.
        self.fn: Optional[Callable] = fn
        self.args = args

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent; a no-op once fired.

        The heap entry stays behind as a tombstone that the run loops and
        :meth:`Engine.peek_time` discard when it reaches the head.
        """
        self.fn = None
        self.args = ()  # break reference cycles early

    @property
    def pending(self) -> bool:
        return self.fn is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.pending else "done"
        return f"Event(t={self.time}, prio={self.priority}, seq={self.seq}, {state})"


class Engine:
    """Event queue + simulated clock (integer picoseconds)."""

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: List[Tuple[int, int, int, Event]] = []
        self._seq = 0
        self._running = False
        self.events_fired = 0

    # -- scheduling ------------------------------------------------------

    def schedule(
        self,
        delay: int,
        fn: Callable,
        *args: Any,
        priority: int = PRIO_DEFAULT,
        _heappush=heapq.heappush,
        _Event=Event,
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` picoseconds from now.

        This is the one scheduling entry point (``schedule_at`` forwards
        here), called once per fired event in self-rescheduling workloads,
        so the heap push and Event constructor are bound as defaults to
        skip the global lookups. The runtime sanitizer shadows this method
        on the instance, so its checks see every call when attached.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        seq = self._seq = self._seq + 1
        ev = _Event(time, priority, seq, fn, args)
        _heappush(self._queue, (time, priority, seq, ev))
        return ev

    def schedule_at(self, time: int, fn: Callable, *args: Any, priority: int = PRIO_DEFAULT) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (t={time} < now={self.now})"
            )
        return self.schedule(time - self.now, fn, *args, priority=priority)

    # -- execution -------------------------------------------------------

    def step(self) -> bool:
        """Fire the next pending event. Returns False when the queue is empty.

        This is the observable single-event entry point: the sanitizer
        shadows it on the instance, and ``run``/``run_until`` then fire
        every event through it instead of through the inline drain.
        """
        if self.peek_time() is None:
            return False
        time, _prio, _seq, ev = heapq.heappop(self._queue)
        if time < self.now:
            raise SimulationError("event queue time went backwards")
        self.now = time
        fn, args = ev.fn, ev.args
        ev.fn, ev.args = None, ()  # mark fired
        self.events_fired += 1
        fn(*args)
        return True

    def run(self) -> None:
        """Run until the queue drains."""
        self._run(None)

    def run_until(self, t: int) -> None:
        """Run all events strictly up to and including time ``t``.

        The clock is left at exactly ``t`` even if the last event fired
        earlier, so callers can interleave ``run_until`` with direct state
        inspection at known instants.
        """
        if t < self.now:
            raise SimulationError(f"run_until into the past (t={t} < now={self.now})")
        self._run(t)
        if self.now < t:
            self.now = t

    def _run(self, limit: Optional[int]) -> None:
        """Fire events up to ``limit`` (None = until the queue drains).

        The inline :meth:`_drain` is the fast path. An instance-level
        ``step`` wrapper (the sanitizer) takes the stepwise loop instead,
        which dispatches every event through ``self.step()``.
        """
        self._running = True
        try:
            if "step" not in self.__dict__:
                self._drain(limit)
                return
            while self._running:
                head = self.peek_time()
                if head is None or (limit is not None and head > limit):
                    break
                self.step()
        finally:
            self._running = False

    def _drain(self, limit: Optional[int]) -> None:
        """The hot fire loop: pop, skip tombstones, fire — all inline.

        Batching tricks that pay for the structure (measured on the
        ``repro bench`` engine churn with interleaved CPU-time rounds):

        * no-arg callbacks (the overwhelmingly common case) call ``fn()``
          directly, skipping the slow ``fn(*args)`` unpacking path;
        * every pending event at one instant drains in an inner loop that
          touches the clock once — fan-out patterns (signal broadcasts,
          lockstep ticks) skip the re-compare/re-store per event;
        * ``events_fired`` accumulates in a local flushed in the
          ``finally`` instead of an attribute update per event.
        """
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        try:
            while self._running and queue:
                entry = pop(queue)
                ev = entry[3]
                fn = ev.fn
                if fn is None:
                    continue
                time = entry[0]
                if limit is not None and time > limit:
                    # Bounded drain: the head is beyond the horizon. Put it
                    # back (seq preserved, so ordering is untouched) — one
                    # extra push per run_until call, not per event.
                    heapq.heappush(queue, entry)
                    break
                if time < self.now:
                    raise SimulationError("event queue time went backwards")
                self.now = time
                # Same-instant batch: the clock is already set for every
                # event fired by this inner loop.
                while True:
                    args = ev.args
                    ev.fn = None
                    ev.args = ()  # mark fired
                    fired += 1
                    if args:
                        fn(*args)
                    else:
                        fn()
                    if not queue or queue[0][0] != time or not self._running:
                        break
                    ev = pop(queue)[3]
                    fn = ev.fn
                    if fn is None:
                        # Tombstone mid-batch: fall back to the outer loop
                        # (it re-runs the full skip/limit logic).
                        break
        finally:
            self.events_fired += fired

    def stop(self) -> None:
        """Stop a ``run``/``run_until`` loop from inside an event callback."""
        self._running = False

    @property
    def queue_length(self) -> int:
        """Pending (uncancelled, unfired) events; scans the heap."""
        return sum(1 for entry in self._queue if entry[3].fn is not None)

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next pending event, or None.

        Cancelled events at the head of the heap are popped lazily, so the
        amortised cost is O(log n) per call rather than the O(n log n) a
        full sort would pay — ``peek_time`` sits on scheduler idle paths.
        """
        queue = self._queue
        while queue and queue[0][3].fn is None:
            heapq.heappop(queue)
        return queue[0][0] if queue else None


class Signal:
    """Broadcast wakeup: processes/callbacks subscribe, ``fire`` wakes all.

    Subscriptions are one-shot (consistent with how OS wait-queues are used
    in the models: re-arm explicitly if you want the next edge too).
    """

    def __init__(self, engine: Engine, name: str = ""):
        self._engine = engine
        self.name = name
        self._waiters: List[Callable[[Any], None]] = []
        self.fire_count = 0
        self.last_payload: Any = None

    def subscribe(self, callback: Callable[[Any], None]) -> None:
        self._waiters.append(callback)

    def unsubscribe(self, callback: Callable[[Any], None]) -> bool:
        """Drop ``callback`` from the next edge; False if it was not on it.

        A callback that an edge already being fired has taken is not on the
        next edge: this cannot stop that fire from calling it.
        """
        try:
            self._waiters.remove(callback)
        except ValueError:
            return False
        return True

    def fire(self, payload: Any = None) -> int:
        """Wake all current subscribers immediately (same timestamp).

        Returns the number of waiters woken. Waiters subscribed during the
        firing are *not* woken by this edge.
        """
        self.fire_count += 1
        self.last_payload = payload
        waiters, self._waiters = self._waiters, []
        for cb in waiters:
            cb(payload)
        return len(waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"
