"""VM-exit types and the shared VCPU-thread driver body."""

import pytest

from repro.common.errors import SimulationError
from repro.hafnium.driver_common import vcpu_thread_body
from repro.kernels.exits import (
    ExitReason,
    VmExit,
    VmExitAbort,
    VmExitHalt,
    VmExitIntr,
    VmExitWfi,
    VmExitYield,
)
from repro.kernels.thread import Hypercall, WaitEvent
from repro.sim.engine import Engine, Signal


class TestExitTypes:
    def test_reasons(self):
        assert VmExitIntr().reason == ExitReason.INTERRUPT
        assert VmExitWfi().reason == ExitReason.WFI
        assert VmExitYield().reason == ExitReason.YIELD
        assert VmExitHalt().reason == ExitReason.HALT
        assert VmExitAbort().reason == ExitReason.ABORT

    def test_all_are_vmexit(self):
        for cls in (VmExitIntr, VmExitWfi, VmExitYield, VmExitHalt, VmExitAbort):
            assert issubclass(cls, VmExit)

    def test_wfi_carries_wake_deadline(self):
        e = VmExitWfi(12345)
        assert e.wake_at_ps == 12345
        assert VmExitWfi().wake_at_ps is None

    def test_detail_payload(self):
        e = VmExitAbort({"va": 0x1000})
        assert e.detail == {"va": 0x1000}


class TestVcpuThreadBody:
    """Drive the body generator by hand, playing the kernel loop's role."""

    def pump(self, body, responses):
        """Send responses; collect yielded items until StopIteration."""
        items = [next(body)]
        out = None
        for resp in responses:
            try:
                items.append(body.send(resp))
            except StopIteration as stop:
                out = stop.value
                break
        return items, out

    def test_reenters_after_interrupt_and_yield(self):
        body = vcpu_thread_body(3, 0)
        items, _ = self.pump(
            body, [{"reason": "interrupt"}, {"reason": "yield"}]
        )
        assert all(isinstance(i, Hypercall) for i in items)
        assert all(i.name == "vcpu_run" for i in items)
        assert items[0].args == {"vm_id": 3, "vcpu_idx": 0}

    def test_wfi_waits_then_reruns(self):
        body = vcpu_thread_body(3, 1)
        sig = Signal(Engine(), "wake")
        items, _ = self.pump(
            body, [{"reason": "wfi", "wake_signal": sig, "ready": None}, None]
        )
        assert isinstance(items[1], WaitEvent)
        assert items[1].signal is sig
        assert isinstance(items[2], Hypercall)

    def test_halt_and_abort_end_the_thread(self):
        for reason in ("halt", "abort"):
            body = vcpu_thread_body(3, 0)
            _, result = self.pump(body, [{"reason": reason}])
            assert result == {"reason": reason}

    def test_unknown_exit_is_an_error(self):
        body = vcpu_thread_body(3, 0)
        next(body)
        with pytest.raises(SimulationError):
            body.send({"reason": "teleported"})
