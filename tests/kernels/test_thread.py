"""Thread objects, items, and the spin barrier."""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.kernels.thread import (
    BarrierWait,
    Hypercall,
    Sleep,
    SpinBarrier,
    Thread,
    ThreadState,
    WaitEvent,
    YieldCpu,
)
from repro.sim.engine import Engine, Signal


class TestThread:
    def test_body_pump_and_send(self):
        def body():
            got = yield "first"
            yield ("second", got)
            return "bye"

        t = Thread("t", body())
        assert t.next_item() == "first"
        t.pending_send = 42
        assert t.next_item() == ("second", 42)
        assert t.next_item() is None
        assert t.exit_value == "bye"

    def test_plain_iterator_body(self):
        t = Thread("t", iter(["a", "b"]))
        assert t.next_item() == "a"
        assert t.next_item() == "b"
        assert t.next_item() is None

    def test_tids_unique(self):
        a = Thread("a", iter(()))
        b = Thread("b", iter(()))
        assert a.tid != b.tid

    def test_resume_dead_rejected(self):
        t = Thread("t", iter(()))
        t.state = ThreadState.DEAD
        with pytest.raises(SimulationError):
            t.next_item()

    def test_initial_state(self):
        t = Thread("t", iter(()), cpu=2, priority=50, kind="kthread")
        assert t.state == ThreadState.NEW
        assert t.alive
        assert t.cpu == 2
        assert t.priority == 50


class TestItems:
    def test_sleep_validation(self):
        with pytest.raises(ConfigurationError):
            Sleep(-1)
        assert Sleep(0).duration_ps == 0

    def test_hypercall_holds_args(self):
        h = Hypercall("vcpu_run", vm_id=3, vcpu_idx=1)
        assert h.name == "vcpu_run"
        assert h.args == {"vm_id": 3, "vcpu_idx": 1}

    def test_wait_event_ready_predicate(self):
        sig = Signal(Engine())
        w = WaitEvent(sig, ready=lambda: True)
        assert w.ready()

    def test_barrier_wait_bookkeeping_fields(self):
        b = SpinBarrier(Engine(), 2)
        item = BarrierWait(b)
        assert not item.arrived

    def test_yieldcpu_is_trivial(self):
        YieldCpu()


class TestSpinBarrier:
    def test_last_arrival_releases(self):
        eng = Engine()
        b = SpinBarrier(eng, 3)
        assert b.arrive() is False
        assert b.arrive() is False
        released = []
        b.signal.subscribe(released.append)
        assert b.arrive() is True
        assert released == [1]
        assert b.generation == 1
        assert b.episodes == 1

    def test_reusable_across_generations(self):
        b = SpinBarrier(Engine(), 2)
        for gen in range(1, 5):
            b.arrive()
            assert b.arrive() is True
            assert b.generation == gen

    def test_single_party_always_releases(self):
        b = SpinBarrier(Engine(), 1)
        assert b.arrive() is True

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SpinBarrier(Engine(), 0)
