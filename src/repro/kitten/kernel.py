"""Kitten LWK: scheduler and kernel policy.

Scheduling model (mirrors the real Kitten's ``sched.c``): one run queue
per core, strict priority then round-robin within a priority level, a
*large* default quantum (100 ms — "significantly larger time slices for
the scheduler quantum", paper Section III-a), and a 10 Hz housekeeping
tick ("lower timer tick rates"). Wake-ups preempt only strictly
higher-priority work; there is no load balancing, no deferred work, and
no background task population.
"""

from __future__ import annotations

from typing import Optional

from repro.common.units import ms
from repro.hw.perfmodel import TranslationInfo
from repro.kernels.base import CpuSlot, KernelBase, ROLE_NATIVE
from repro.kernels.thread import Thread

#: Kitten maps task memory with 2 MiB blocks: stage-1 walks are 2 levels
#: and the TLB granule is large (native reach covers HPC working sets).
KITTEN_NATIVE_TRANSLATION = TranslationInfo(
    two_stage=False, s1_depth=2, s2_depth=0, page_size=2 * 1024 * 1024
)

DEFAULT_QUANTUM_PS = ms(100)
DEFAULT_TICK_HZ = 10.0


class KittenKernel(KernelBase):
    """The Kitten lightweight kernel."""

    KERNEL_KIND = "kitten"
    TICK_POLLUTION = "tick.kitten"
    TICK_HANDLER_CYCLES = 1_100   # timekeeping + trivial policy check
    VIRQ_HANDLER_CYCLES = 900

    def __init__(
        self,
        machine,
        name: str = "kitten",
        *,
        role: str = ROLE_NATIVE,
        num_cpus: Optional[int] = None,
        tick_hz: float = DEFAULT_TICK_HZ,
        trans: Optional[TranslationInfo] = None,
        jitter_sigma: float = 0.0025,
    ):
        super().__init__(
            machine,
            name,
            num_cpus=num_cpus,
            tick_hz=tick_hz,
            role=role,
            trans=trans if trans is not None else KITTEN_NATIVE_TRANSLATION,
            jitter_sigma=jitter_sigma,
        )

    # -- scheduler ------------------------------------------------------------

    def enqueue(self, slot: CpuSlot, thread: Thread) -> None:
        """Priority-ordered insert; FIFO within a priority level."""
        queue = slot.runqueue
        idx = len(queue)
        for i, other in enumerate(queue):
            if thread.priority < other.priority:
                idx = i
                break
        queue.insert(idx, thread)

    def dequeue_next(self, slot: CpuSlot) -> Optional[Thread]:
        if not slot.runqueue:
            return None
        return slot.runqueue.pop(0)

    def on_tick(self, slot: CpuSlot) -> None:
        """Housekeeping tick: round-robin only among equal-priority peers."""
        current = slot.current
        if current is None:
            return
        current.quantum_left_ps -= self.tick_period_ps
        if current.quantum_left_ps <= 0 and slot.runqueue:
            head = slot.runqueue[0]
            if head.priority <= current.priority:
                slot.need_resched = True

    def should_preempt_on_wake(self, slot: CpuSlot, woken: Thread) -> bool:
        current = slot.current
        if current is None:
            return False
        # Kitten preempts only for strictly more-important work.
        return woken.priority < current.priority

    def quantum_ps(self, thread: Thread) -> int:
        return DEFAULT_QUANTUM_PS
