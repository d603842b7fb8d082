"""A barrier spin is one step of the kernel loop, and survives a cut.

The loop arrives at a barrier once, then spins one release wait per pass.
An IRQ that cuts a spin on a host core, and an interrupt exit that ends a
guest VCPU's run mid-spin, must both bring the thread back to the same
spin: no second ``arrive()``, and the thread leaves the barrier at the
instant its partner arrives.
"""

from repro.core.configs import COMPUTE_VM_NAME, build_node
from repro.core.node import run_until_done
from repro.hw.machine import Machine
from repro.kernels.phases import ComputePhase
from repro.kernels.thread import BarrierWait, SpinBarrier, Thread
from repro.kitten.kernel import KittenKernel

SPIN_S = 0.3  # the late partner's compute, which the spinner waits out


def _pair(engine, soc, barrier, exits=None):
    """A spinner on cpu0 that arrives at once, and a partner on cpu1 that
    arrives after SPIN_S of compute. `exits` (a callable) samples a count
    as the spin starts and as it ends."""
    log = {}

    def spinner():
        log["exits"] = [exits() if exits else None]
        yield BarrierWait(barrier)
        log["left"] = engine.now
        log["exits"].append(exits() if exits else None)

    def late():
        yield ComputePhase(SPIN_S * soc.ipc * soc.freq_hz)
        log["arrived"] = engine.now
        yield BarrierWait(barrier)

    return [Thread("spin", spinner(), cpu=0), Thread("late", late(), cpu=1)], log


def _assert_one_episode(barrier, log):
    assert barrier.episodes == 1  # one arrival each: no re-arrive
    assert barrier.count == 0
    assert log["left"] == log["arrived"]


def test_host_spin_cut_by_irqs_resumes_the_same_spin():
    machine = Machine()
    kernel = KittenKernel(machine, "k", jitter_sigma=0.0)
    kernel.boot_on_cores()
    engine = machine.engine
    barrier = SpinBarrier(engine, 2)
    threads, log = _pair(engine, machine.soc, barrier)
    for t in threads:
        kernel.spawn(t)
    engine.run_until(engine.now + 2 * int(SPIN_S * 1e12))

    _assert_one_episode(barrier, log)
    # The 10 Hz tick cut the spin at 100 and 200 ms.
    assert kernel.slots[0].ticks >= 2
    assert log["arrived"] > 2 * kernel.tick_period_ps
    # Spinning burns CPU, minus what the tick handlers took.
    assert 0 < threads[0].cpu_time_ps < log["arrived"]


def test_guest_spin_cut_by_interrupt_exits_resumes_the_same_spin():
    node = build_node("hafnium-kitten", seed=0xC0FFEE)
    vcpu = node.spm.vm_by_name(COMPUTE_VM_NAME).vcpus[0]
    engine = node.machine.engine
    barrier = SpinBarrier(engine, 2)
    threads, log = _pair(
        engine, node.machine.soc, barrier, exits=lambda: vcpu.exits["interrupt"]
    )
    node.spawn_workload_threads(threads)
    run_until_done(node, threads, max_seconds=5.0)

    _assert_one_episode(barrier, log)
    before, after = log["exits"]
    assert after > before  # the guest's run ended mid-spin, and resumed
