"""A host core never waits with an IRQ pending.

The GIC CPU interface is the one record of a pending IRQ, and unmasking
signals nothing: the kernel loop tests ``peek()`` right before each wait
instead. So an IRQ that goes pending while the core runs a masked fixed
cost (here: its IRQ exit) must be taken the instant that cost ends, from
the idle wait, a compute phase and a barrier spin alike — not at the next
tick or wake-up.
"""

import pytest

from repro.common.units import ms
from repro.hw.machine import Machine
from repro.kernels.phases import ComputePhase
from repro.kernels.thread import BarrierWait, SpinBarrier, Thread
from repro.kitten.kernel import KittenKernel

SGI = 2  # claimed by no kernel: the unclaimed handler takes it
CORE = 0


def _compute(machine, seconds_):
    return ComputePhase(seconds_ * machine.soc.ipc * machine.soc.freq_hz)


def _idle(machine, kernel):
    pass  # nothing runs on CORE


def _phase(machine, kernel):
    kernel.spawn(Thread("compute", iter([_compute(machine, 0.3)]), cpu=CORE))


def _barrier(machine, kernel):
    barrier = SpinBarrier(machine.engine, 2)
    # CORE arrives at once and spins until cpu1 arrives, 0.3 s later.
    kernel.spawn(Thread("spin", iter([BarrierWait(barrier)]), cpu=CORE))
    late = iter([_compute(machine, 0.3), BarrierWait(barrier)])
    kernel.spawn(Thread("late", late, cpu=1))


@pytest.mark.parametrize("setup", [_idle, _phase, _barrier],
                         ids=["idle", "compute-phase", "barrier-spin"])
def test_irq_pending_during_irq_exit_is_taken_when_the_exit_ends(setup):
    machine = Machine()
    kernel = KittenKernel(machine, "k", jitter_sigma=0.0)
    kernel.boot_on_cores()
    setup(machine, kernel)
    engine, gic = machine.engine, machine.gic
    gic.enable(SGI)
    iface = gic.cpu_ifaces[CORE]
    entry_ps = kernel._irq_entry.delay
    exit_ps = kernel._irq_exit.delay
    handler_ps = {
        kernel._tick_ppi: kernel._tick_handler.delay,
        SGI: kernel._unclaimed_handler.delay,
    }
    assert exit_ps > 1

    # Send the SGI 1 ps into the IRQ exit of the first tick, and once more
    # into the exit of the SGI that starts: the second lands after the
    # loop's first test, so the wait's own test must catch it.
    acks, sent = [], []
    ack = iface.ack

    def logged_ack():
        irq = ack()
        if irq is not None:
            acks.append((engine.now, irq))
            if len(sent) < 2 and (irq == SGI or not sent):
                sent.append(irq)
                engine.schedule(handler_ps[irq] + 1, gic.send_sgi, SGI, CORE)
        return irq

    iface.ack = logged_ack
    engine.run_until(ms(150))

    (t_tick, tick), (t_first, first), (t_second, second) = acks[:3]
    assert (tick, first, second) == (kernel._tick_ppi, SGI, SGI)
    assert t_tick < ms(150)
    # Each SGI is acked at its path's IRQ entry, right after the exit it
    # went pending in: no wait came between.
    assert t_first == t_tick + handler_ps[tick] + exit_ps + entry_ps
    assert t_second == t_first + handler_ps[SGI] + exit_ps + entry_ps
    assert len(acks) == 3  # nothing else fired on CORE before 150 ms
