"""TrustZone world checks, core IRQ plumbing, and functional `touch`."""

import pytest

from repro.common.errors import (
    ConfigurationError,
    HardwareFault,
    SecurityViolation,
)
from repro.hw.machine import Machine
from repro.hw.mmu import PAGE_4K, PageTable, TranslationFault, TranslationRegime
from repro.hw.cpu import ExceptionLevel, SecurityWorld
from repro.hw.soc import PINE_A64
from repro.hw.trustzone import TrustZoneController
from repro.sim.engine import Engine
from repro.sim.process import Process, Timeout


class TestTrustZone:
    def test_nonsecure_blocked_from_secure(self):
        tz = TrustZoneController()
        tz.mark_secure(0x1000, 0x1000)
        with pytest.raises(SecurityViolation):
            tz.check_access(0x1800, "nonsecure", "r")
        assert tz.rejected_accesses == 1

    def test_secure_master_accesses_both_worlds(self):
        tz = TrustZoneController()
        tz.mark_secure(0x1000, 0x1000)
        tz.check_access(0x1800, "secure")   # secure -> secure ok
        tz.check_access(0x9000, "secure")   # secure -> non-secure ok
        tz.check_access(0x9000, "nonsecure")  # NS -> NS ok

    def test_boundaries_exact(self):
        tz = TrustZoneController()
        tz.mark_secure(0x1000, 0x1000)
        tz.check_access(0xFFF, "nonsecure")
        tz.check_access(0x2000, "nonsecure")
        with pytest.raises(SecurityViolation):
            tz.check_access(0x1000, "nonsecure")
        with pytest.raises(SecurityViolation):
            tz.check_access(0x1FFF, "nonsecure")

    def test_lock_freezes_configuration(self):
        # Paper II-b: partitions are statically configured in early boot.
        tz = TrustZoneController()
        tz.mark_secure(0x1000, 0x1000)
        tz.lock()
        assert tz.locked
        with pytest.raises(SecurityViolation):
            tz.mark_secure(0x10000, 0x1000)

    def test_overlapping_secure_ranges_rejected(self):
        tz = TrustZoneController()
        tz.mark_secure(0x1000, 0x2000)
        with pytest.raises(ConfigurationError):
            tz.mark_secure(0x2000, 0x1000)

    def test_range_is_secure(self):
        tz = TrustZoneController()
        tz.mark_secure(0x1000, 0x2000)
        assert tz.range_is_secure(0x1000, 0x2000)
        assert tz.range_is_secure(0x1800, 0x800)
        assert not tz.range_is_secure(0x800, 0x1000)  # straddles boundary
        assert not tz.range_is_secure(0x4000, 0x100)

    def test_unknown_world_rejected(self):
        tz = TrustZoneController()
        with pytest.raises(ConfigurationError):
            tz.check_access(0, "neutral")

    def test_bad_range(self):
        tz = TrustZoneController()
        with pytest.raises(ConfigurationError):
            tz.mark_secure(0, 0)


class TestMachine:
    def test_assembly(self):
        m = Machine()
        assert len(m.cores) == 4
        assert len(m.timers) == 4
        assert m.soc is PINE_A64
        assert "uart0" in m.devices

    def test_trace_helper(self):
        m = Machine()
        m.engine.run_until(100)
        m.trace("x", "core0", a=1)
        rec = m.tracer.records[0]
        assert rec.time == 100 and rec.category == "x"


class TestCoreTouch:
    def setup_method(self):
        self.m = Machine()
        self.core = self.m.cores[0]
        self.dram = self.m.memmap.dram

    def test_identity_regime_touch(self):
        pa = self.core.touch(self.dram.base)
        assert pa == self.dram.base

    def test_translated_touch(self):
        s1 = PageTable("s1", stage=1)
        s1.map(0, self.dram.base, PAGE_4K)
        self.core.set_context(
            ExceptionLevel.EL1, SecurityWorld.NONSECURE, TranslationRegime(stage1=s1)
        )
        assert self.core.touch(0x10) == self.dram.base + 0x10

    def test_unmapped_va_faults(self):
        s1 = PageTable("s1", stage=1)
        self.core.set_context(
            ExceptionLevel.EL1, SecurityWorld.NONSECURE, TranslationRegime(stage1=s1)
        )
        with pytest.raises(TranslationFault):
            self.core.touch(0x10)

    def test_secure_memory_blocked_for_ns_core(self):
        self.m.trustzone.mark_secure(self.dram.base, 0x10000)
        with pytest.raises(SecurityViolation):
            self.core.touch(self.dram.base)
        self.core.world = SecurityWorld.SECURE
        assert self.core.touch(self.dram.base) == self.dram.base

    def test_hole_is_bus_fault(self):
        with pytest.raises(HardwareFault):
            self.core.touch(0x10)


class TestCoreIrqPlumbing:
    def test_irq_interrupts_attached_loop(self):
        """A hardware IRQ ends the attached loop's wait by sending the
        core's preemption marker as the wait's value."""
        m = Machine()
        core = m.cores[0]
        log = []

        def loop():
            got = yield Timeout(10_000)
            if got is core.preemption:
                log.append(("irq", m.engine.now))
            else:
                log.append("no-irq")

        p = Process(m.engine, loop(), "loop0")
        core.attach_loop(p)
        core.cpu_iface.masked = False
        m.gic.configure(40, target_core=0)
        m.gic.enable(40)
        m.engine.schedule(5_000, m.gic.pulse, 40)
        m.engine.run()
        assert log == [("irq", 5_000)]

    def test_irq_without_waiting_loop_stays_pending(self):
        """With no loop waiting, a deliverable IRQ is recorded only at the
        GIC CPU interface: it stays ``peek()``'s answer until acked."""
        m = Machine()
        core = m.cores[0]
        core.cpu_iface.masked = False
        m.gic.configure(40, target_core=0)
        m.gic.enable(40)
        m.gic.pulse(40)  # no loop attached: nothing to preempt
        assert core.cpu_iface.peek() == 40
        assert core.cpu_iface.ack() == 40
        assert core.cpu_iface.peek() is None

    def test_attach_twice_rejected(self):
        m = Machine()

        def loop():
            yield Timeout(10)

        p = Process(m.engine, loop())
        m.cores[0].attach_loop(p)
        with pytest.raises(Exception):
            m.cores[0].attach_loop(p)
