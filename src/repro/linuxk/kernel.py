"""Linux kernel model: CFS-like scheduler + timer-wheel wake granularity.

The scheduler implements the CFS mechanics that matter for noise:
virtual-runtime fairness, minimum granularity, wake-up preemption (a
freshly woken kworker with low vruntime preempts a long-running VCPU
thread), and vruntime placement of sleepers. The paper's argument
(Section III-a) is precisely that these commodity-interactive policies
mis-schedule VM workloads; reproducing Figures 6-10 requires reproducing
the policies, not just a noise level.
"""

from __future__ import annotations

from typing import Optional

from repro.common.units import ms, us
from repro.hw.perfmodel import TranslationInfo
from repro.kernels.base import CpuSlot, KernelBase, ROLE_NATIVE
from repro.kernels.thread import Thread, ThreadState

#: Linux on ARM64 with 4 KiB base pages: 3-level stage-1 walks. (Large
#: user mappings may use THP, but kernel-side footprints are 4K.)
LINUX_NATIVE_TRANSLATION = TranslationInfo(
    two_stage=False, s1_depth=3, s2_depth=0, page_size=4 * 1024
)

HZ = 250                      # CONFIG_HZ=250: 4 ms ticks
SCHED_LATENCY_PS = ms(6)      # sysctl_sched_latency
MIN_GRANULARITY_PS = ms(0.75)
WAKEUP_GRANULARITY_PS = ms(1)
NICE0_WEIGHT = 1024


class LinuxKernel(KernelBase):
    """A CFS-scheduled full-weight kernel."""

    KERNEL_KIND = "linux"
    TICK_POLLUTION = "tick.linux"
    TICK_HANDLER_CYCLES = 4_200   # jiffies, timer wheel, CFS update, RCU note
    VIRQ_HANDLER_CYCLES = 3_800

    def __init__(
        self,
        machine,
        name: str = "linux",
        *,
        role: str = ROLE_NATIVE,
        num_cpus: Optional[int] = None,
        tick_hz: float = float(HZ),
        trans: Optional[TranslationInfo] = None,
        jitter_sigma: float = 0.0025,
    ):
        super().__init__(
            machine,
            name,
            num_cpus=num_cpus,
            tick_hz=tick_hz,
            role=role,
            trans=trans if trans is not None else LINUX_NATIVE_TRANSLATION,
            jitter_sigma=jitter_sigma,
        )

    # -- vruntime accounting -------------------------------------------------

    @staticmethod
    def _weight(thread: Thread) -> int:
        """Thread priority maps to a CFS weight; 100 is nice-0."""
        # Each 'nice' step is a factor ~1.25; priority deltas of 10 ~ 2 nice.
        nice = (thread.priority - 100) / 5.0
        return max(15, int(NICE0_WEIGHT / (1.25**nice)))

    def _charge_vruntime(self, slot: CpuSlot) -> None:
        """Account CPU time since the last charge to the current thread."""
        t = slot.current
        if t is None:
            return
        now = self.machine.engine.now
        mark = getattr(t, "_vrt_mark", None)
        if mark is None or mark < t.last_dispatch_ps:
            mark = t.last_dispatch_ps
        delta = now - mark
        if delta > 0:
            t.vruntime += delta * NICE0_WEIGHT / self._weight(t)
        t._vrt_mark = now

    def _min_queue_vruntime(self, slot: CpuSlot) -> Optional[float]:
        if not slot.runqueue:
            return None
        return min(t.vruntime for t in slot.runqueue)

    # -- scheduler interface ---------------------------------------------------

    def enqueue(self, slot: CpuSlot, thread: Thread) -> None:
        if thread.wakeups > 0 and thread.state == ThreadState.READY:
            # Sleeper placement: woken threads resume near the front of the
            # fair clock, but not so far back that they monopolize.
            floor = min(
                (t.vruntime for t in slot.runqueue),
                default=slot.current.vruntime if slot.current else thread.vruntime,
            )
            thread.vruntime = max(thread.vruntime, floor - SCHED_LATENCY_PS / 2)
        slot.runqueue.append(thread)

    def dequeue_next(self, slot: CpuSlot) -> Optional[Thread]:
        if not slot.runqueue:
            return None
        best = min(slot.runqueue, key=lambda t: (t.vruntime, t.tid))
        slot.runqueue.remove(best)
        return best

    def on_tick(self, slot: CpuSlot) -> None:
        self._charge_vruntime(slot)
        current = slot.current
        if current is None or not slot.runqueue:
            return
        ran = self.machine.engine.now - current.last_dispatch_ps
        if ran < MIN_GRANULARITY_PS:
            return
        min_vrt = self._min_queue_vruntime(slot)
        if min_vrt is not None and current.vruntime > min_vrt + WAKEUP_GRANULARITY_PS:
            slot.need_resched = True

    def should_preempt_on_wake(self, slot: CpuSlot, woken: Thread) -> bool:
        current = slot.current
        if current is None:
            return False
        if current.kind == "idle":
            return True
        self._charge_vruntime(slot)
        # CFS check_preempt_wakeup: preempt when the waker's deficit
        # exceeds the wakeup granularity.
        return woken.vruntime + WAKEUP_GRANULARITY_PS < current.vruntime

    def quantum_ps(self, thread: Thread) -> int:
        # sched_latency / nr_running, floored at the minimum granularity.
        # nr_running is deliberately global: the longest runqueue over
        # every slot, not this slot's. That is the CFS coupling through
        # which one tenant's load shifts another's timing on a Linux
        # primary (README, and `strict_isolation_expected` in
        # faults/campaign.py); a per-slot count would move digests.
        nr = max(1, max(len(s.runqueue) for s in self.slots) + 1)
        return max(MIN_GRANULARITY_PS, SCHED_LATENCY_PS // nr)

    # -- timer wheel -------------------------------------------------------------

    def schedule_wake(self, thread: Thread, delay_ps: int) -> None:
        """Timer-wheel behaviour: wakes land on the next jiffy boundary."""
        jiffy = self.tick_period_ps
        if jiffy > 0:
            delay_ps = ((delay_ps + jiffy - 1) // jiffy) * jiffy
        super().schedule_wake(thread, delay_ps)
