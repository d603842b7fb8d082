"""Kernel dispatch-loop behaviour on a native Kitten machine."""

import pytest

from repro.common.errors import HardwareFault
from repro.common.units import ms, seconds, to_ms, us
from repro.hw.machine import Machine
from repro.kernels.phases import ComputePhase
from repro.kernels.thread import (
    BarrierWait,
    Pollute,
    Sleep,
    SpinBarrier,
    Thread,
    ThreadState,
    TouchMemory,
    WaitEvent,
    YieldCpu,
)
from repro.kitten.kernel import KittenKernel
from repro.sim.engine import Signal


@pytest.fixture
def machine():
    return Machine()


@pytest.fixture
def kernel(machine):
    k = KittenKernel(machine, "k", jitter_sigma=0.0)
    k.boot_on_cores()
    return k


def ops_for(machine, seconds_):
    return seconds_ * machine.soc.ipc * machine.soc.freq_hz


def run_to_death(machine, threads, limit_s=5.0):
    deadline = machine.engine.now + seconds(limit_s)
    while machine.engine.now < deadline:
        if all(t.state == ThreadState.DEAD for t in threads):
            return
        machine.engine.run_until(machine.engine.now + ms(10))
    raise AssertionError(f"threads stuck: {[t.state for t in threads]}")


def test_single_thread_runs_to_completion(machine, kernel):
    t = Thread("t", iter([ComputePhase(ops_for(machine, 0.01))]), cpu=0)
    kernel.spawn(t)
    run_to_death(machine, [t])
    assert t.cpu_time_ps >= seconds(0.0099)


def test_threads_on_different_cores_run_in_parallel(machine, kernel):
    threads = [
        Thread(f"t{c}", iter([ComputePhase(ops_for(machine, 0.05))]), cpu=c)
        for c in range(4)
    ]
    for t in threads:
        kernel.spawn(t)
    run_to_death(machine, threads)
    # Parallel: all done in ~0.05 s, not 0.2 s.
    assert machine.engine.now < seconds(0.08)


def test_two_threads_share_one_core_round_robin(machine, kernel):
    a = Thread("a", iter([ComputePhase(ops_for(machine, 0.2))]), cpu=0)
    b = Thread("b", iter([ComputePhase(ops_for(machine, 0.2))]), cpu=0)
    kernel.spawn(a)
    kernel.spawn(b)
    run_to_death(machine, [a, b])
    # Serialized on one core: ~0.4 s wall, both got CPU.
    assert machine.engine.now >= seconds(0.4)
    assert a.cpu_time_ps > seconds(0.19)
    assert b.cpu_time_ps > seconds(0.19)
    # Kitten's quantum is 100 ms: with 0.2 s each there were switches.
    assert kernel.stats["ctxsw"] >= 2


def test_sleep_wakes_at_right_time(machine, kernel):
    log = []

    def body():
        yield Sleep(ms(30))
        log.append(machine.engine.now)

    t = Thread("s", body(), cpu=1)
    kernel.spawn(t)
    run_to_death(machine, [t])
    assert log and ms(30) <= log[0] <= ms(31)


def test_wait_event_blocks_until_signal(machine, kernel):
    sig = Signal(machine.engine, "ev")
    log = []

    def body():
        yield WaitEvent(sig)
        log.append(machine.engine.now)

    t = Thread("w", body(), cpu=0)
    kernel.spawn(t)
    machine.engine.schedule(ms(50), sig.fire)
    run_to_death(machine, [t])
    assert log and log[0] >= ms(50)
    assert t.wakeups == 1


def test_wait_event_ready_skips_block(machine, kernel):
    sig = Signal(machine.engine, "ev")

    def body():
        yield WaitEvent(sig, ready=lambda: True)

    t = Thread("w", body(), cpu=0)
    kernel.spawn(t)
    run_to_death(machine, [t], limit_s=0.5)


def test_yieldcpu_rotates_threads(machine, kernel):
    order = []

    def body(name, n):
        for _ in range(n):
            order.append(name)
            yield YieldCpu()

    a = Thread("a", body("a", 3), cpu=0)
    b = Thread("b", body("b", 3), cpu=0)
    kernel.spawn(a)
    kernel.spawn(b)
    run_to_death(machine, [a, b])
    assert order[:4] == ["a", "b", "a", "b"]


def test_barrier_synchronizes_across_cores(machine, kernel):
    barrier = SpinBarrier(machine.engine, 4)
    after = []

    def body(c):
        yield ComputePhase(ops_for(machine, 0.01 * (c + 1)))  # skewed arrivals
        yield BarrierWait(barrier)
        after.append((c, machine.engine.now))

    threads = [Thread(f"t{c}", body(c), cpu=c) for c in range(4)]
    for t in threads:
        kernel.spawn(t)
    run_to_death(machine, threads)
    times = [t for _, t in after]
    # All released within a tick of each other, at >= the slowest arrival.
    assert max(times) - min(times) < ms(1)
    assert min(times) >= seconds(0.04)
    assert barrier.episodes == 1


def test_pollute_item_cools_core_env(machine, kernel):
    core_env = machine.cores[2].env
    ctx = core_env.context(("x",))
    ctx.tlb_resident = 100.0

    t = Thread("p", iter([Pollute("kthread")]), cpu=2)
    kernel.spawn(t)
    run_to_death(machine, [t])
    assert core_env.context(("x",)).tlb_resident < 100.0


def test_touch_memory_native_ok_and_fault(machine, kernel):
    dram = machine.memmap.dram
    results = []

    def body():
        pa = yield TouchMemory(dram.base)
        results.append(pa)
        fault = yield TouchMemory(0x10)  # a bus hole
        results.append(fault)

    t = Thread("t", body(), cpu=0)
    kernel.spawn(t)
    run_to_death(machine, [t])
    assert results[0] == dram.base
    assert isinstance(results[1], HardwareFault)


def test_pricing_context_is_reused_until_its_key_changes(machine, kernel):
    """A thread's PricingContext is built once and reused per slice; it is
    rebuilt when the thread's address space, its core or the pricing
    kernel changes."""
    thread = Thread("t", iter(()), cpu=0, aspace="a")
    core0, core1 = machine.cores[0], machine.cores[1]
    ctx = kernel._pricing_ctx(core0, thread)
    assert kernel._pricing_ctx(core0, thread) is ctx
    thread.aspace = "b"
    moved = kernel._pricing_ctx(core0, thread)
    assert moved is not ctx
    assert moved.base_key == (kernel.name, "b")
    migrated = kernel._pricing_ctx(core1, thread)
    assert migrated is not moved
    assert migrated.env is core1.env
    assert kernel._pricing_ctx(core1, thread) is migrated
    other = KittenKernel(machine, "k2", jitter_sigma=0.0)
    rebuilt = other._pricing_ctx(core1, thread)
    assert rebuilt is not migrated
    assert rebuilt.base_key == ("k2", "b")


def test_tick_rate_is_configured(machine, kernel):
    machine.engine.run_until(seconds(1.0))
    # 10 Hz on each of 4 cores.
    assert kernel.stats["ticks"] == pytest.approx(40, abs=8)


def test_idle_cores_account_idle_time(machine, kernel):
    machine.engine.run_until(seconds(0.5))
    for slot in kernel.slots:
        # Idle segments are accounted when they end (at each tick), so the
        # in-progress final segment is not yet counted.
        assert slot.idle_ps > seconds(0.35)


def test_priority_preemption_on_wake(machine, kernel):
    """A higher-priority thread preempts a running lower-priority one."""
    order = []

    def low():
        yield ComputePhase(ops_for(machine, 0.2))
        order.append(("low-done", machine.engine.now))

    def high():
        yield Sleep(ms(50))
        yield ComputePhase(ops_for(machine, 0.01))
        order.append(("high-done", machine.engine.now))

    lo = Thread("lo", low(), cpu=0, priority=100)
    hi = Thread("hi", high(), cpu=0, priority=10)
    kernel.spawn(lo)
    kernel.spawn(hi)
    run_to_death(machine, [lo, hi])
    names = [n for n, _ in order]
    assert names == ["high-done", "low-done"]
    # High finished shortly after its wake, long before low's 0.2 s.
    t_high = dict(order)["high-done"]
    assert t_high < ms(80)
    assert lo.preemptions >= 1
