"""Thread objects and the items a thread body may yield.

A thread's *body* is a Python generator: it yields work phases
(:mod:`repro.kernels.phases`) and control items (below); the owning
kernel's dispatch loop interprets them. Bodies never see interrupts —
preemption and VM exits happen entirely in kernel frames while the body
is suspended, so bodies survive arbitrary slicing.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional

from repro.common.errors import ConfigurationError, SimulationError
from repro.sim.engine import Engine, Signal
from repro.sim.process import WaitSignal

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernels.phases import PricingContext


class ThreadState(Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DEAD = "dead"


class Sleep:
    """Block the thread for `duration_ps` (kernel decides wake granularity)."""

    __slots__ = ("duration_ps",)

    def __init__(self, duration_ps: int):
        if duration_ps < 0:
            raise ConfigurationError("negative sleep")
        self.duration_ps = duration_ps


class YieldCpu:
    """Voluntarily let the scheduler pick again (sched_yield)."""

    __slots__ = ()


class Hypercall:
    """Invoke the hypervisor. Result is sent back into the body."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, **args: Any):
        self.name = name
        self.args = args


class WaitEvent:
    """Block until a Signal fires (kernel wait-queue).

    `ready` is an optional predicate checked *at block time*: if it is
    already true the thread does not block — closing the classic lost-
    wakeup race between deciding to wait and actually waiting.
    """

    __slots__ = ("signal", "ready")

    def __init__(self, signal: Signal, ready=None):
        self.signal = signal
        self.ready = ready


class TouchMemory:
    """Functionally access a virtual address in the current context.

    Exercises the full translation + TrustZone path; a guest touching an
    address outside its stage-2 mapping takes a data abort, which the SPM
    turns into an ABORT exit (the isolation-demonstration hook).
    """

    __slots__ = ("va", "access")

    def __init__(self, va: int, access: str = "r"):
        self.va = va
        self.access = access


class ReadPmu:
    """Read a performance counter (architectural feature access).

    Native/primary threads get the value; secondary VMs take a trap —
    Hafnium disallows the PMU for guests (paper Section IV-b).
    """

    __slots__ = ("event",)

    def __init__(self, event: int):
        self.event = event


class Pollute:
    """Declare a cache/TLB footprint side effect on the current core.

    Background threads yield this when they run: their working set
    displaces whatever the previous occupant (e.g. a VCPU thread's guest)
    had resident — the noise-coupling mechanism of the reproduction.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str = "kthread"):
        self.kind = kind


class BarrierWait:
    """Spin-wait at a barrier (HPC OpenMP-style active waiting).

    Carries per-thread arrival bookkeeping so that the wait survives VM
    exits: a re-entered kernel loop must not re-arrive.
    """

    __slots__ = ("barrier", "arrived", "start_gen")

    def __init__(self, barrier: "SpinBarrier"):
        self.barrier = barrier
        self.arrived = False
        self.start_gen = -1


class SpinBarrier:
    """An N-party spin barrier shared by the threads of one workload."""

    def __init__(self, engine: Engine, parties: int, name: str = "barrier"):
        if parties < 1:
            raise ConfigurationError("barrier needs at least one party")
        self.engine = engine
        self.parties = parties
        self.name = name
        self.count = 0
        self.generation = 0
        self.signal = Signal(engine, f"{name}.release")
        #: the spin-wait on ``signal``, shared by every waiting thread
        self.release_wait = WaitSignal(self.signal)
        self.episodes = 0

    def arrive(self) -> bool:
        """Register arrival. Returns True when this arrival releases all."""
        self.count += 1
        if self.count >= self.parties:
            self.count = 0
            self.generation += 1
            self.episodes += 1
            self.signal.fire(self.generation)
            return True
        return False


class Thread:
    """A schedulable entity (kernel thread or user task)."""

    _next_tid = [1]

    def __init__(
        self,
        name: str,
        body: Generator,
        *,
        cpu: int = 0,
        priority: int = 100,
        kind: str = "user",
        aspace: str = "default",
    ):
        self.tid = Thread._next_tid[0]
        Thread._next_tid[0] += 1
        self.name = name
        self.body = body
        self.cpu = cpu              # home CPU slot (pinning)
        self.priority = priority    # lower value = more important
        self.kind = kind            # "user" | "kthread" | "idle" | "vcpu"
        self.aspace = aspace        # address-space key for warmth tracking
        self.state = ThreadState.NEW
        self.current_item: Optional[Any] = None
        self.pending_send: Any = None
        #: non-None marks the thread for forcible termination (fault
        #: injection / recovery); the owning kernel reaps it at the next
        #: dispatch boundary via ``KernelBase.kill_thread``.
        self.crashed: Optional[str] = None
        # Scheduler bookkeeping (used by whichever scheduler owns it).
        self.vruntime: float = 0.0
        self.quantum_left_ps: int = 0
        self.last_dispatch_ps: int = 0
        # Statistics.
        self.cpu_time_ps = 0
        self.wakeups = 0
        self.preemptions = 0
        self.exit_value: Any = None
        self.done_signal: Optional[Signal] = None
        #: the owning kernel's reusable pricing context for this thread's
        #: phase slices (see ``KernelBase._pricing_ctx``)
        self.pricing: Optional["PricingContext"] = None

    def next_item(self) -> Optional[Any]:
        """Resume the body; returns the next yielded item or None when the
        body finished (thread should die)."""
        if self.state == ThreadState.DEAD:
            raise SimulationError(f"resuming dead thread {self.name}")
        send, self.pending_send = self.pending_send, None
        try:
            if not self._started_flag or not hasattr(self.body, "send"):
                # First resume, or a plain-iterator body (which cannot
                # receive values): pump with next().
                self._started_flag = True
                return next(self.body)
            return self.body.send(send)
        except StopIteration as stop:
            self.exit_value = getattr(stop, "value", None)
            return None

    _started_flag = False

    @property
    def alive(self) -> bool:
        return self.state != ThreadState.DEAD

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Thread({self.name!r}, tid={self.tid}, {self.state.value}, cpu={self.cpu})"
