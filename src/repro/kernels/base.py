"""Shared kernel machinery: dispatch loop, IRQ paths, phase slicing.

One scheduling-loop implementation serves every kernel role in the paper's
three configurations:

* **native** — the loop runs directly as each physical core's process
  (bare-metal Kitten, the baseline of Figure 4);
* **primary** — same, but physical IRQs bounce through EL2 first and the
  kernel may invoke hypercalls (``vcpu_run`` from its per-VCPU threads);
* **secondary / super-secondary (guest)** — the *same loop generator* is
  driven by the SPM inside the primary's VCPU thread; instead of handling
  physical interrupts or idling, it raises :class:`~repro.kernels.exits.VmExit`
  exceptions that the SPM catches (the VM-exit path).

``_schedule_loop`` is a CPU slot's one dispatch loop: each pass tests the
boundary once (thread left RUNNING, killed, need_resched, IRQ pending),
then steps the current item once: a phase slice, a barrier arrival or
spin, or a control item. The interrupt path has one copy of each step:
``_wait_unmasked`` is the only interruptible point (phase slices, barrier
spins and idle all wait through it). The GIC CPU interface is the one
record of a pending IRQ: the loop tests ``iface.peek()`` with no yield
between that test and the wait, so it never waits with an IRQ pending.
A hardware IRQ ends its wait as a value: the core's ``preemption``
marker, sent by :meth:`~repro.sim.process.Process.preempt`, which the
wait tells from a completed one by identity. The interruption then lands
in ``_irq_path``: the host IRQ path, or a ``VmExitIntr`` for guests.
``_tick_done`` is the one tick handler's work (the physical timer PPI,
handled inline in ``_irq_path`` on hosts; the injected virtual timer in
``handle_virq`` on guests); ``_resched`` and ``_retire`` are the one
resched-IPI and thread-death steps. Only the SPM's forced abort still
throws (``Process.interrupt``), and its ``Interrupted`` ends a guest's
run wherever the guest waits.

All persistent execution state (current thread, in-progress phase,
scheduler bookkeeping) lives in :class:`CpuSlot`/:class:`Thread` objects,
never in generator frames — so a guest loop generator can die at every VM
exit and be recreated at the next ``vcpu_run`` with perfect continuity.

Subclasses (Kitten, Linux) provide the scheduler: ``enqueue``,
``dequeue_next``, ``on_tick``, ``should_preempt_on_wake``, ``quantum_ps``,
plus their tick rate and handler-cost class.

Per-event budget. The tick and VM-exit round trip runs a handful of
engine events per core every 4 ms of simulated time, and each event
resumes this module's generators. Code on that path follows two rules:

* no per-event allocation, beyond the engine's ``Event`` and the
  exception that carries a VM exit — a hardware IRQ allocates nothing
  but its ``Event``, fixed costs are ready ``Timeout`` waits priced at
  build, the idle and phase-slice waits are per-slot descriptors and the
  barrier wait is the barrier's own, a thread's ``PricingContext`` is
  reused while its key holds, and the process resumes through one bound
  method, which pushes a ``Timeout`` resume onto the heap itself;
* a sub-generator is built only when it has work — the IRQ-pending test
  (``iface.peek() is not None``) is inlined before
  entering ``_irq_path``, ``_deliver_virqs`` is entered only with a
  deliverable vIRQ, the host idle wait, the tick handler and the
  running thread's dispatch run with no frame of their own (a slice
  resumes ``_schedule_loop``, ``_phase_slice``, ``_wait_unmasked``), and
  an idle primary tick's six events make ~55 Python calls
  (``tests/kernels/test_tick_budget.py`` holds it and per-cell ceilings).

Both keep the simulation exact: the same events, in the same order, with
the same RNG draws.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, TYPE_CHECKING

from repro.common.errors import (
    ConfigurationError,
    HardwareFault,
    HypercallError,
    SecurityViolation,
    SimulationError,
)
from repro.common.units import hz_to_period_ps, ms
from repro.hw.cpu import Core
from repro.hw.gic import PPI_PHYS_TIMER, PPI_VIRT_TIMER
from repro.hw.pmu import EVT_IRQS, PmuTrapError
from repro.kernels.exits import VmExitAbort, VmExitIntr, VmExitWfi
from repro.kernels.phases import Phase, PricingContext
from repro.kernels.thread import (
    BarrierWait,
    Hypercall,
    Pollute,
    ReadPmu,
    Sleep,
    Thread,
    ThreadState,
    TouchMemory,
    WaitEvent,
    YieldCpu,
)
from repro.hw.perfmodel import TranslationInfo, NATIVE_TRANSLATION
from repro.sim.engine import Signal
from repro.sim.process import Interrupted, Process, Timeout, WaitSignal

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.machine import Machine
    from repro.hafnium.spm import Spm
    from repro.hafnium.vm import Vcpu

SGI_RESCHED = 1

# Roles a kernel instance can play (paper Figure 3).
ROLE_NATIVE = "native"
ROLE_PRIMARY = "primary"
ROLE_SECONDARY = "secondary"
ROLE_SUPER = "super-secondary"

GUEST_ROLES = (ROLE_SECONDARY, ROLE_SUPER)


def _priced(ps: int) -> Optional[Timeout]:
    """A ``CostParams`` path cost as a ready wait, or None when it is
    zero: the path then yields nothing for it."""
    return Timeout(ps) if ps > 0 else None


class CpuSlot:
    """One schedulable CPU: a physical core (native/primary kernels) or a
    VCPU (guest kernels). All per-CPU scheduler state hangs off the slot."""

    def __init__(self, kernel: "KernelBase", index: int):
        self.kernel = kernel
        self.index = index
        self.core: Optional[Core] = None       # resolved physical core
        self.vcpu: Optional["Vcpu"] = None      # set for guest slots
        self.current: Optional[Thread] = None
        self.last_thread: Optional[Thread] = None
        self.need_resched = False
        self.runqueue: List[Thread] = []        # scheduler-managed
        self.wake_signal = Signal(kernel.machine.engine, f"{kernel.name}.cpu{index}.wake")
        #: the idle wait on ``wake_signal``, built once: every idle pass
        #: yields this same descriptor
        self.idle_wait = WaitSignal(self.wake_signal)
        #: the phase-slice wait, re-armed in place: ``Process`` reads its
        #: delay the instant it is yielded, so one descriptor serves them all
        self.slice_wait = Timeout(0)
        self.tick_armed = False
        self.ticks = 0
        self.idle_ps = 0
        #: fault injection: while `Engine.now < stall_until_ps` this CPU
        #: wedges (consumes time without dispatching) — a modeled lockup.
        self.stall_until_ps = 0
        self.stalls = 0

    def __repr__(self) -> str:  # pragma: no cover
        cur = self.current.name if self.current else "-"
        return f"CpuSlot({self.kernel.name}, cpu{self.index}, cur={cur})"


class KernelBase:
    """Common kernel model. See module docstring."""

    #: overridden by subclasses
    KERNEL_KIND = "generic"
    TICK_POLLUTION = "tick.kitten"
    TICK_HANDLER_CYCLES = 1_500
    VIRQ_HANDLER_CYCLES = 1_200

    def __init__(
        self,
        machine: "Machine",
        name: str,
        *,
        num_cpus: Optional[int] = None,
        tick_hz: float = 10.0,
        role: str = ROLE_NATIVE,
        trans: Optional[TranslationInfo] = None,
        jitter_sigma: float = 0.0025,
    ):
        self.machine = machine
        self.name = name
        self.role = role
        self.is_guest = role in GUEST_ROLES
        self.trans = trans if trans is not None else NATIVE_TRANSLATION
        self.tick_hz = tick_hz
        self.tick_period_ps = hz_to_period_ps(tick_hz) if tick_hz > 0 else 0
        n = num_cpus if num_cpus is not None else machine.soc.num_cores
        self.slots: List[CpuSlot] = [CpuSlot(self, i) for i in range(n)]
        self.threads: List[Thread] = []
        self.spm: Optional["Spm"] = None        # set when under Hafnium
        self.vm_id: Optional[int] = None
        self.shutdown = False
        #: fault injection: a requested kernel panic (reason string). The
        #: next dispatch boundary raises it — guests abort their VM, hosts
        #: stop scheduling (the node-level failure the paper's isolation
        #: argument is about containing).
        self.panic_requested: Optional[str] = None
        self._timer_channel = "virt" if self.is_guest else "phys"
        self._tick_ppi = PPI_VIRT_TIMER if self.is_guest else PPI_PHYS_TIMER
        self._jitter_stream = machine.rng.stream(f"jitter.{name}")
        self._jitter_sigma = jitter_sigma
        #: bound once: a thread's reused PricingContext holds this object,
        #: and its identity keys the context to this kernel
        self._jitter = self._jitter_factor
        # Every fixed kernel-path cost (these paths run IRQ-masked), priced
        # once as a ready wait. CostParams may zero the first four (see
        # _priced); the handler constants below them are never zero.
        perf = machine.perf
        self._irq_entry = _priced(perf.event_cost("irq_entry"))
        self._irq_exit = _priced(perf.event_cost("irq_exit"))
        self._el2_bounce = _priced(perf.event_cost("el2_irq_bounce"))
        self._ctxsw = _priced(perf.event_cost("ctxsw"))
        self._tick_handler = Timeout(perf.cycles(self.TICK_HANDLER_CYCLES))
        self._vtick_handler = Timeout(perf.cycles(self.VIRQ_HANDLER_CYCLES))
        self._sgi_handler = Timeout(perf.cycles(200))
        self._vtimer_handler = Timeout(perf.cycles(300))
        self._device_handler = {
            "direct": Timeout(perf.cycles(450)),
            "forwarded": Timeout(perf.cycles(700)),
        }
        self._unclaimed_handler = Timeout(perf.cycles(150))
        self._unclaimed_virq_handler = Timeout(perf.cycles(400))
        self._touch = Timeout(perf.cycles(10))
        self._pmu_access = Timeout(perf.cycles(30))
        self._panic_dump = Timeout(perf.cycles(5_000))
        self.stats = {
            "irqs": 0,
            "ticks": 0,
            "virqs": 0,
            "ctxsw": 0,
            "hypercalls": 0,
        }

    # ------------------------------------------------------------------
    # Scheduler interface (subclass responsibility)
    # ------------------------------------------------------------------

    def enqueue(self, slot: CpuSlot, thread: Thread) -> None:
        raise NotImplementedError

    def dequeue_next(self, slot: CpuSlot) -> Optional[Thread]:
        raise NotImplementedError

    def on_tick(self, slot: CpuSlot) -> None:
        """Scheduler tick hook: update accounting, set need_resched."""
        raise NotImplementedError

    def should_preempt_on_wake(self, slot: CpuSlot, woken: Thread) -> bool:
        raise NotImplementedError

    def quantum_ps(self, thread: Thread) -> int:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Thread lifecycle
    # ------------------------------------------------------------------

    def spawn(self, thread: Thread) -> Thread:
        """Register a thread and make it runnable on its home CPU slot."""
        if not 0 <= thread.cpu < len(self.slots):
            raise ConfigurationError(
                f"{self.name}: thread {thread.name} pinned to missing cpu {thread.cpu}"
            )
        if thread.done_signal is None:
            thread.done_signal = Signal(self.machine.engine, f"{thread.name}.done")
        self.threads.append(thread)
        thread.state = ThreadState.READY
        slot = self.slots[thread.cpu]
        self.enqueue(slot, thread)
        self._kick_slot(slot, thread)
        return thread

    def wake(self, thread: Thread) -> None:
        """Move a blocked thread back to its runqueue (wake-up path)."""
        if thread.state in (ThreadState.DEAD,):
            return
        if thread.state in (ThreadState.READY, ThreadState.RUNNING):
            return
        thread.state = ThreadState.READY
        thread.wakeups += 1
        slot = self.slots[thread.cpu]
        self.enqueue(slot, thread)
        self._kick_slot(slot, thread)

    def _kick_slot(self, slot: CpuSlot, woken: Thread) -> None:
        """Nudge a slot that should notice new work: wake its idle loop,
        set need_resched, and (cross-core, host kernels) send an SGI."""
        slot.wake_signal.fire(woken)
        if slot.current is not None and self.should_preempt_on_wake(slot, woken):
            self._resched(slot)
        if self.is_guest and self.spm is not None and self.vm_id is not None:
            # A VCPU sitting in WFI must be re-run by the primary.
            self.spm.vcpu_work_available(self.vm_id, slot.index)

    def schedule_wake(self, thread: Thread, delay_ps: int) -> None:
        """Arm a software timer to wake `thread`. LWK precision by default;
        the Linux model rounds to its jiffy grid (timer-wheel behaviour)."""
        self.machine.engine.schedule(delay_ps, self.wake, thread)

    def _resched(self, slot: CpuSlot) -> None:
        """Ask `slot` to reschedule at its next boundary; a host core is
        also sent the resched SGI so a running phase is interrupted."""
        slot.need_resched = True
        if not self.is_guest and slot.core is not None:
            self.machine.gic.send_sgi(SGI_RESCHED, slot.core.core_id)

    def _retire(self, slot: CpuSlot, thread: Thread, category: str, **payload: Any) -> None:
        """Thread death (exit or kill): mark, trace, fire the done signal."""
        thread.state = ThreadState.DEAD
        if slot.current is thread:
            slot.current = None
        self.machine.trace(
            category, self.name, thread=thread.name, cpu=slot.index, **payload
        )
        if thread.done_signal is not None:
            thread.done_signal.fire(thread.exit_value)

    def kill_thread(self, thread: Thread, reason: str = "killed") -> None:
        """Forcibly terminate a thread (fault injection / recovery path).

        NEW/READY/BLOCKED threads are reaped immediately; a RUNNING thread
        is flagged and reaped at its next dispatch boundary — the flag plus
        a resched IPI model the kill signal interrupting the core.
        """
        if thread.state is ThreadState.DEAD:
            return
        thread.crashed = reason
        slot = self.slots[thread.cpu]
        if thread.state is ThreadState.RUNNING:
            self._resched(slot)
            return
        if thread in slot.runqueue:
            slot.runqueue.remove(thread)
        self._reap_crashed(slot, thread)

    def _reap_crashed(self, slot: CpuSlot, thread: Thread) -> None:
        thread.body.close()
        thread.current_item = None
        self._retire(slot, thread, "thread.killed", reason=thread.crashed or "killed")

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------

    def boot_on_cores(self, cores: Optional[List[Core]] = None) -> None:
        """Attach the scheduling loop to physical cores (native/primary)."""
        if self.is_guest:
            raise SimulationError(f"{self.name}: guest kernels boot via the SPM")
        cores = cores if cores is not None else self.machine.cores
        if len(cores) != len(self.slots):
            raise ConfigurationError(
                f"{self.name}: {len(self.slots)} slots but {len(cores)} cores"
            )
        gic = self.machine.gic
        gic.enable(SGI_RESCHED)
        gic.enable(PPI_PHYS_TIMER)
        gic.enable(PPI_VIRT_TIMER)
        for slot, core in zip(self.slots, cores):
            slot.core = core
            proc = Process(
                self.machine.engine,
                self._schedule_loop(slot),
                name=f"{self.name}.cpu{slot.index}",
            )
            core.attach_loop(proc)

    # ------------------------------------------------------------------
    # The unified scheduling loop
    # ------------------------------------------------------------------

    def _schedule_loop(self, slot: CpuSlot) -> Generator:
        """The scheduling loop: a host core's loop process runs it once,
        until shutdown; the SPM drives it for guests until a VmExit
        escapes, and enters it afresh at every ``vcpu_run``."""
        if not self.is_guest:
            # Entered once, at the loop process's first step.
            self._arm_tick(slot)
        elif not slot.tick_armed:
            # First entry of this VCPU: enable the virtual timer and start
            # the periodic tick on the para-virtual timer channel.
            if slot.vcpu is not None:
                slot.vcpu.vgic.enable(PPI_VIRT_TIMER, priority=0x20)
            self._arm_tick(slot)
        engine = self.machine.engine
        # Fixed for the loop's lifetime: a host slot's core is set at boot,
        # a guest's before each entry (the loop dies at every VM exit).
        iface = slot.core.cpu_iface
        while not self.shutdown:
            if self.panic_requested is not None:
                yield from self._do_panic(slot)
                return
            if slot.stall_until_ps > engine.now:
                yield from self._stall(slot)
                continue
            if self.is_guest:
                spm = self.spm
                if spm is not None and spm.watchdog is not None:
                    # Reaching the dispatch boundary proves this VCPU makes
                    # forward progress — the heartbeat the SPM's watchdog
                    # deadline tracks. (Deliberately after the stall check:
                    # a wedged VCPU must stop beating, even though the
                    # primary keeps re-entering it on interrupt exits.)
                    spm.watchdog.beat(self.vm_id, slot.index)
                vcpu = slot.vcpu
                if vcpu is not None and vcpu.vgic.next_deliverable() is not None:
                    yield from self._deliver_virqs(slot)
            if iface.peek() is not None:
                yield from self._irq_path(slot)
            thread = slot.current
            if thread is None:
                thread = self.dequeue_next(slot)
                if thread is None:
                    # Idle: a guest exits to the primary (WFI); a host
                    # waits for a wake-up or an interrupt.
                    if self.is_guest:
                        raise VmExitWfi()
                    if iface.peek() is None:
                        elapsed, interrupted = yield from self._wait_unmasked(
                            slot, slot.idle_wait
                        )
                        slot.idle_ps += elapsed
                        if not interrupted:
                            continue
                    # Interrupted, or an IRQ went pending since the last test.
                    yield from self._irq_path(slot)
                    continue
                yield from self._switch_in(slot, thread)
            # Dispatch the current thread, one step per pass, each pass after
            # one test of each boundary.
            while True:
                if thread.state is not ThreadState.RUNNING:
                    if thread.state is ThreadState.BLOCKED:
                        # The item handler cleared what it had to.
                        slot.current = None
                    break
                if thread.crashed is not None:
                    # Marked for forcible termination (kill IPI): reap
                    # instead of requeueing.
                    self._reap_crashed(slot, thread)
                    break
                if slot.need_resched:
                    # Preempted: back on the queue.
                    thread.state = ThreadState.READY
                    thread.preemptions += 1
                    self.enqueue(slot, thread)
                    slot.current = None
                    break
                if iface.peek() is not None:
                    yield from self._irq_path(slot)
                    continue
                item = thread.current_item
                if item is None:
                    item = thread.next_item()
                    if item is None:
                        self._retire(slot, thread, "thread.exit")
                        break
                    thread.current_item = item
                    if isinstance(item, Phase):
                        # Resuming the body may have kicked this slot: test
                        # the boundary again before the first slice.
                        continue
                # The two waiting items run without the _process_item frame.
                if isinstance(item, Phase):
                    yield from self._phase_slice(slot, thread, item)
                elif isinstance(item, BarrierWait):
                    yield from self._barrier_wait(slot, thread, item)
                else:
                    yield from self._process_item(slot, thread, item)

    def _switch_in(self, slot: CpuSlot, thread: Thread) -> Generator:
        slot.current = thread
        slot.need_resched = False
        thread.state = ThreadState.RUNNING
        thread.quantum_left_ps = self.quantum_ps(thread)
        thread.last_dispatch_ps = self.machine.engine.now
        if slot.last_thread is not None and slot.last_thread is not thread:
            self.stats["ctxsw"] += 1
            if self._ctxsw is not None:
                yield self._ctxsw
            if slot.core is not None:
                slot.core.env.pollute("ctxsw")
        if slot.last_thread is not thread:
            self.machine.trace(
                "sched.switch",
                f"{self.name}.cpu{slot.index}",
                prev=slot.last_thread.name if slot.last_thread else "-",
                next=thread.name,
            )
        slot.last_thread = thread

    # ------------------------------------------------------------------
    # Item interpretation
    # ------------------------------------------------------------------

    def _process_item(self, slot: CpuSlot, thread: Thread, item: Any) -> Generator:
        """Interpret a control item (phases and barrier waits run in
        ``_schedule_loop``)."""
        if isinstance(item, Hypercall):
            # The primary's vcpu_run calls: first in the chain, and run
            # inline, since every guest event resumes through this frame.
            self.stats["hypercalls"] += 1
            if self.spm is None:
                raise SimulationError(
                    f"{self.name}: hypercall {item.name!r} without a hypervisor"
                )
            try:
                result = yield from self.spm.hypercall(
                    self, slot, thread, item.name, item.args
                )
            except HypercallError as err:
                self.machine.trace(
                    "hypercall.denied",
                    f"{self.name}.cpu{slot.index}",
                    call=item.name,
                    error=str(err),
                )
                if self.is_guest:
                    # A guest overstepping its privileges is killed, the
                    # same way a stage-2 violation would end it.
                    raise VmExitAbort({"hypercall": item.name, "error": str(err)})
                result = {"ok": False, "error": str(err)}
            thread.pending_send = result
            thread.current_item = None
        elif isinstance(item, Sleep):
            thread.current_item = None
            thread.state = ThreadState.BLOCKED
            self.schedule_wake(thread, item.duration_ps)
        elif isinstance(item, YieldCpu):
            thread.current_item = None
            slot.need_resched = True
        elif isinstance(item, WaitEvent):
            thread.current_item = None
            if item.ready is not None and item.ready():
                pass  # condition already satisfied: don't block
            else:
                thread.state = ThreadState.BLOCKED
                item.signal.subscribe(lambda _payload, t=thread: self.wake(t))
        elif isinstance(item, Pollute):
            thread.current_item = None
            self._core(slot).env.pollute(item.kind)
        elif isinstance(item, TouchMemory):
            thread.current_item = None
            yield from self._touch_memory(slot, thread, item)
        elif isinstance(item, ReadPmu):
            thread.current_item = None
            yield from self._read_pmu(slot, thread, item)
        else:
            raise SimulationError(
                f"{self.name}: thread {thread.name} yielded unknown item {item!r}"
            )

    def _touch_memory(self, slot: CpuSlot, thread: Thread, item: TouchMemory) -> Generator:
        """Perform a functional memory access in the current translation
        context; a guest fault becomes a stage-2 abort (VM exit)."""
        core = self._core(slot)
        yield self._touch
        try:
            thread.pending_send = core.touch(item.va, item.access)
        except (HardwareFault, SecurityViolation) as fault:
            if isinstance(fault, HardwareFault):
                fault.annotate(cpu_index=core.core_id, origin_vm=self.name)
            self.machine.trace(
                "fault",
                f"{self.name}.cpu{slot.index}",
                thread=thread.name,
                va=item.va,
                error=str(fault),
            )
            if self.is_guest:
                raise VmExitAbort({"thread": thread.name, "va": item.va, "fault": fault})
            thread.pending_send = fault

    def _read_pmu(self, slot: CpuSlot, thread: Thread, item: ReadPmu) -> Generator:
        """Architectural PMU access: trapped for secondary VMs."""
        core = self._core(slot)
        yield self._pmu_access
        if self.is_guest:
            trap = PmuTrapError("PMU", self.name)
            self.machine.trace(
                "pmu.trap", f"{self.name}.cpu{slot.index}", thread=thread.name
            )
            raise VmExitAbort({"thread": thread.name, "fault": trap})
        thread.pending_send = core.pmu.read(item.event)

    # ------------------------------------------------------------------
    # Phase execution (the hot path)
    # ------------------------------------------------------------------

    def _jitter_factor(self) -> float:
        """The multiplicative noise of one phase slice, ~1.0."""
        sigma = self._jitter_sigma
        if sigma <= 0:
            return 1.0
        return max(0.9, 1.0 + sigma * float(self._jitter_stream.standard_normal()))

    def _pricing_ctx(self, core: Core, thread: Thread) -> PricingContext:
        """The thread's pricing context, built once and reused while it
        stays valid: keyed by this kernel (its jitter and translation),
        the thread's address space and the core's memory environment."""
        env = core.env
        ctx = thread.pricing
        if (
            ctx is None
            or ctx.env is not env
            or ctx.jitter is not self._jitter
            or ctx.trans is not self.trans
            or ctx.base_key[1] != thread.aspace
        ):
            ctx = thread.pricing = PricingContext(
                perf=self.machine.perf,
                env=env,
                base_key=(self.name, thread.aspace),
                trans=self.trans,
                jitter=self._jitter,
            )
        return ctx

    def _phase_slice(self, slot: CpuSlot, thread: Thread, phase: Phase) -> Generator:
        """Run one slice of `phase`: until it completes or an interrupt
        cuts it. The loop has just found ``peek()`` empty."""
        engine = self.machine.engine
        core = slot.core
        wait = slot.slice_wait
        wait.delay = phase.arm(self._pricing_ctx(core, thread), engine.now)
        elapsed, interrupted = yield from self._wait_unmasked(slot, wait)
        thread.cpu_time_ps += elapsed
        core.pmu.count_cycles_for(elapsed, self.machine.soc.freq_hz)
        phase.advance(elapsed, engine.now, interrupted=interrupted)
        # A slice that ran to its end finished the phase; a cut one may
        # have too.
        if not interrupted or phase.done:
            thread.current_item = None
        if interrupted:
            yield from self._irq_path(slot)

    def _barrier_wait(self, slot: CpuSlot, thread: Thread, item: BarrierWait) -> Generator:
        """Arrive at the barrier, or spin one wait on its release. The wait
        is satisfied once the barrier's generation has moved; arriving is a
        step of its own, so the loop tests its boundary before the first
        spin."""
        barrier = item.barrier
        if not item.arrived:
            item.arrived = True
            item.start_gen = barrier.generation
            barrier.arrive()
        elif barrier.generation == item.start_gen:
            elapsed, interrupted = yield from self._wait_unmasked(
                slot, barrier.release_wait
            )
            thread.cpu_time_ps += elapsed  # spin-waiting burns CPU
            if interrupted:
                yield from self._irq_path(slot)
        if barrier.generation != item.start_gen:
            thread.current_item = None

    def _wait_unmasked(self, slot: CpuSlot, wait: Any) -> Generator:
        """The loop's one interruptible point: yield `wait` with IRQs
        unmasked and return ``(elapsed_ps, interrupted)`` with them masked
        again; the caller accounts, then calls :meth:`_irq_path`.

        The caller has just found ``peek()`` empty, with no yield since,
        so unmasking has nothing to signal: the wait ends early only when
        an interrupt goes pending during it. A hardware interrupt ends it
        by sending the core's ``preemption`` marker as the yield's value
        (IRQs are unmasked only here, so it can arrive nowhere else). A
        forced abort's ``Interrupted`` thrown here counts as an interrupt
        too."""
        core = slot.core
        iface = core.cpu_iface
        engine = self.machine.engine
        t0 = engine.now
        iface.masked = False
        try:
            interrupted = (yield wait) is core.preemption
        except Interrupted:
            interrupted = True
        iface.masked = True
        return engine.now - t0, interrupted

    # ------------------------------------------------------------------
    # Fault injection: panic and stall
    # ------------------------------------------------------------------

    def panic(self, reason: str) -> None:
        """Request a kernel panic. Noticed at the next dispatch boundary
        of any CPU: a guest kernel aborts its VM (the SPM contains it to
        the partition), a host kernel stops scheduling (node failure).
        Running threads are preempted via resched IPIs (panics interrupt,
        they don't wait for cooperative yields)."""
        if self.panic_requested is not None:
            return
        self.panic_requested = reason
        for slot in self.slots:
            self._resched(slot)

    def _do_panic(self, slot: CpuSlot) -> Generator:
        reason = self.panic_requested or "panic"
        self.machine.trace(
            "kernel.panic", f"{self.name}.cpu{slot.index}", reason=reason
        )
        # Panic path: dump state, then stop. Modeled as a fixed cost.
        yield self._panic_dump
        if self.is_guest:
            raise VmExitAbort({"panic": reason, "vm": self.name})
        self.shutdown = True

    def stall_cpu(self, index: int, duration_ps: int) -> None:
        """Wedge CPU slot `index` for `duration_ps` (injected lockup).
        The slot consumes time without dispatching threads or handling
        its tick — the failure mode a heartbeat watchdog exists for."""
        if not 0 <= index < len(self.slots):
            raise ConfigurationError(f"{self.name}: no CPU slot {index}")
        slot = self.slots[index]
        slot.stall_until_ps = self.machine.engine.now + max(0, duration_ps)
        slot.stalls += 1

    def _stall(self, slot: CpuSlot) -> Generator:
        """Burn time while `slot.stall_until_ps` is in the future. IRQs
        stay masked (a hard lockup): hosts accumulate pending interrupts,
        guests stop producing heartbeats. An external `interrupt()` on the
        core (e.g. the SPM forcibly aborting the VM) still lands — for
        guests it becomes an interrupt exit, after which re-entry resumes
        the stall until it expires or the VM is torn down."""
        engine = self.machine.engine
        self.machine.trace(
            "cpu.stall", f"{self.name}.cpu{slot.index}",
            until_ps=slot.stall_until_ps,
        )
        while engine.now < slot.stall_until_ps and not self.shutdown:
            remaining = slot.stall_until_ps - engine.now
            try:
                yield Timeout(min(remaining, ms(1)))
            except Interrupted:
                yield from self._irq_path(slot)
        slot.stall_until_ps = 0

    # ------------------------------------------------------------------
    # Interrupt paths
    # ------------------------------------------------------------------

    def _core(self, slot: CpuSlot) -> Core:
        core = slot.core
        if core is None:
            raise SimulationError(f"{self.name}: slot {slot.index} has no core")
        return core

    def _irq_path(self, slot: CpuSlot) -> Generator:
        """A physical interrupt demands attention on this slot's core."""
        if self.is_guest:
            # Guests cannot handle physical interrupts: trap to the SPM.
            raise VmExitIntr()
        core = slot.core
        iface = core.cpu_iface
        if self.role == ROLE_PRIMARY:
            # Hafnium owns EL2: physical IRQs bounce through the hypervisor
            # before reaching the primary VM (paper Section II-a). Under
            # selective ("direct") routing, EL2 claims device IRQs for
            # their owning VMs here, before the primary's handler runs.
            if self._el2_bounce is not None:
                yield self._el2_bounce
            spm = self.spm
            if spm is not None:
                if spm.irq_routing_mode == "direct":
                    yield from spm.el2_claim_device_irqs(core)
                if iface.peek() is None:
                    return  # everything pending was claimed at EL2
        if self._irq_entry is not None:
            yield self._irq_entry
        while True:
            irq = iface.ack()
            if irq is None:
                break
            self.stats["irqs"] += 1
            core.pmu.count(EVT_IRQS, 1)
            if irq == self._tick_ppi:
                # The tick, without a handler frame: it is most of the IRQs.
                core.timer.channels[self._timer_channel].stop()  # deassert the line
                yield self._tick_handler
                self._tick_done(slot)
            else:
                yield from self.handle_irq(slot, irq)
            iface.eoi(irq)
        if self._irq_exit is not None:
            yield self._irq_exit

    def handle_irq(self, slot: CpuSlot, irq: int) -> Generator:
        """Host-side dispatch of every IRQ but the tick (``_irq_path``
        handles that one inline)."""
        core = slot.core
        if irq == SGI_RESCHED:
            yield self._sgi_handler
            slot.need_resched = True
        elif irq == PPI_VIRT_TIMER and self.spm is not None:
            # A guest's virtual timer fired while the guest was off-core:
            # hand it to the SPM for injection.
            yield self._vtimer_handler
            self.spm.vtimer_fired(core)
        elif self.spm is not None and self.spm.device_irq_owner(irq) is not None:
            # Interim super-secondary design: the primary receives every
            # device interrupt and forwards it to the owning VM. (Under
            # selective routing this only catches IRQs that pended after
            # the EL2 claim pass; account them to the direct path.)
            mode = self.spm.irq_routing_mode
            yield self._device_handler[mode]
            self.spm.deliver_device_irq(irq, direct=mode == "direct")
        else:
            # Spurious / unclaimed: count it, nothing else.
            self.machine.trace(
                "irq.unclaimed", f"{self.name}.cpu{slot.index}", irq=irq
            )
            yield self._unclaimed_handler

    # ------------------------------------------------------------------
    # Guest-side virtual interrupts
    # ------------------------------------------------------------------

    def _deliver_virqs(self, slot: CpuSlot) -> Generator:
        vcpu = slot.vcpu
        if vcpu is None:
            return
        while True:
            virq = vcpu.vgic.ack()
            if virq is None:
                break
            self.stats["virqs"] += 1
            if self._irq_entry is not None:
                yield self._irq_entry
            yield from self.handle_virq(slot, virq)
            vcpu.vgic.eoi(virq)
            if self._irq_exit is not None:
                yield self._irq_exit

    def handle_virq(self, slot: CpuSlot, virq: int) -> Generator:
        if virq == PPI_VIRT_TIMER:
            yield self._vtick_handler
            self._tick_done(slot)
        else:
            yield self._unclaimed_virq_handler
            self.machine.trace(
                "virq.unclaimed", f"{self.name}.vcpu{slot.index}", virq=virq
            )

    # ------------------------------------------------------------------
    # Tick management
    # ------------------------------------------------------------------

    def _tick_done(self, slot: CpuSlot) -> None:
        """The tick handler's work once its cost has elapsed, for the
        physical timer PPI (hosts) and the injected virtual timer (guests)
        alike: cache pollution, scheduler accounting, re-arm."""
        slot.core.env.pollute(self.TICK_POLLUTION)
        slot.ticks += 1
        self.stats["ticks"] += 1
        self.on_tick(slot)
        self._arm_tick(slot)

    def _arm_tick(self, slot: CpuSlot) -> None:
        if self.tick_period_ps <= 0 or slot.core is None:
            return
        slot.core.timer.channels[self._timer_channel].program(self.tick_period_ps)
        slot.tick_armed = True

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.name!r}, role={self.role})"
