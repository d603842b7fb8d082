"""Peripheral device models and device-IRQ plumbing."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import ms, seconds
from repro.hw.devices import PeriodicDevice, Uart
from repro.hw.gic import Gic
from repro.sim.engine import Engine, PRIO_HW


class TestUart:
    def test_transmit_logs_and_raises_irq(self):
        eng = Engine()
        gic = Gic(4)
        uart = Uart(eng, gic, spi=32)
        gic.enable(32)
        uart.transmit("hello ")
        uart.transmit("world")
        assert uart.output == "hello world"
        eng.run_until(seconds(0.01))
        assert gic.cpu_ifaces[0].has_deliverable()

    def test_tx_time_scales_with_length(self):
        eng = Engine()
        gic = Gic(4)
        uart = Uart(eng, gic)
        gic.enable(32)
        uart.transmit("x" * 100)
        # 100 chars at ~86.8 us/char: nothing before ~8 ms.
        eng.run_until(ms(5))
        assert not gic.cpu_ifaces[0].has_deliverable()
        eng.run_until(ms(10))
        assert gic.cpu_ifaces[0].has_deliverable()

    def test_no_irq_mode(self):
        eng = Engine()
        gic = Gic(4)
        uart = Uart(eng, gic)
        gic.enable(32)
        uart.transmit("quiet", irq=False)
        eng.run_until(seconds(1))
        assert not gic.cpu_ifaces[0].has_deliverable()


class TestPeriodicDevice:
    def test_fires_periodically(self):
        eng = Engine()
        gic = Gic(4)
        dev = PeriodicDevice(eng, gic, spi=40, period_ps=ms(10))
        gic.enable(40)
        dev.start()
        eng.run_until(seconds(0.1))
        assert dev.raised == 10
        assert len(dev.fire_times) == 10
        assert dev.fire_times[1] - dev.fire_times[0] == ms(10)

    def test_stop_halts_firing(self):
        eng = Engine()
        gic = Gic(4)
        dev = PeriodicDevice(eng, gic, spi=40, period_ps=ms(10))
        gic.enable(40)
        dev.start()
        eng.run_until(ms(35))
        dev.stop()
        eng.run_until(seconds(0.2))
        assert dev.raised == 3

    def test_start_idempotent(self):
        eng = Engine()
        gic = Gic(4)
        dev = PeriodicDevice(eng, gic, spi=40, period_ps=ms(10))
        dev.start()
        dev.start()
        eng.run_until(ms(10))
        assert dev.raised == 1

    def test_bad_period(self):
        with pytest.raises(ConfigurationError):
            PeriodicDevice(Engine(), Gic(4), spi=40, period_ps=0)

    @staticmethod
    def _device(pulse=None, period_ps=100):
        eng = Engine()
        dev = PeriodicDevice(eng, Gic(4), spi=40, period_ps=period_ps)
        if pulse is not None:
            dev.gic.pulse = pulse  # observe the IRQ path from inside the tick
        return eng, dev

    def test_first_fire_one_period_after_start_at_hw_priority(self):
        eng, dev = self._device()
        eng.run_until(7)
        dev.start()
        seen = []
        eng.schedule_at(107, lambda: seen.append(dev.raised))
        eng.run_until(300)
        assert dev.fire_times == [107, 207]
        assert seen == [1]  # PRIO_HW tick beats a default event at 107

    def test_fires_drift_free_on_exact_multiples(self):
        eng, dev = self._device()
        dev.start()
        eng.run_until(1_000)
        assert dev.fire_times == [100 * i for i in range(1, 11)]

    def test_stop_from_inside_irq_path(self):
        eng, dev = self._device(pulse=lambda spi: dev.stop())
        dev.start()
        eng.run_until(1_000)
        assert dev.raised == 1
        assert eng.queue_length == 0

    def test_restart_from_inside_irq_path_does_not_double_fire(self):
        def pulse(spi):
            if dev.raised == 1:
                dev.stop()
                dev.start()

        eng, dev = self._device(pulse=pulse)
        dev.start()
        eng.run_until(500)
        assert dev.fire_times == [100, 200, 300, 400, 500]
        assert eng.queue_length == 1

    def test_rearm_interleaves_like_naive_rescheduling(self):
        """The next tick takes its sequence number after anything the
        pulse scheduled, so same-instant work queued by the IRQ path at
        equal priority fires before the next tick."""
        order = []

        def pulse(spi):
            order.append(("tick", eng.now))
            eng.schedule(100, order.append, ("oneshot", eng.now + 100),
                         priority=PRIO_HW)

        eng, dev = self._device(pulse=pulse)
        dev.start()
        eng.run_until(300)
        assert order == [
            ("tick", 100),
            ("oneshot", 200),
            ("tick", 200),
            ("oneshot", 300),
            ("tick", 300),
        ]


class TestDeviceIrqForwarding:
    """Device interrupts reach the owning VM through the primary (the
    paper's interim design) — end-to-end through a booted node."""

    def test_forwarded_to_super_secondary(self):
        from repro.core.configs import CONFIG_HAFNIUM_KITTEN, build_node

        node = build_node(CONFIG_HAFNIUM_KITTEN, seed=7, with_super_secondary=True)
        machine = node.machine
        dev = PeriodicDevice(machine.engine, machine.gic, spi=41, period_ps=ms(20))
        machine.add_device(dev)
        node.spm.assign_device_irq(41, "login")
        machine.gic.enable(41)
        dev.start()
        machine.engine.run_until(machine.engine.now + seconds(0.5))
        assert node.spm.stats["forwarded_device_irqs"] >= 20
        # The login guest actually handled virtual interrupts.
        handled = machine.tracer.count("virq.unclaimed")
        assert handled >= 20

    def test_unowned_spi_stays_with_primary(self):
        from repro.core.configs import CONFIG_HAFNIUM_KITTEN, build_node

        node = build_node(CONFIG_HAFNIUM_KITTEN, seed=7)  # no super-secondary
        machine = node.machine
        dev = PeriodicDevice(machine.engine, machine.gic, spi=41, period_ps=ms(20))
        machine.add_device(dev)
        machine.gic.enable(41)
        dev.start()
        machine.engine.run_until(machine.engine.now + seconds(0.3))
        # No owner registered: the primary counts them as unclaimed.
        assert machine.tracer.count("irq.unclaimed") >= 10
        assert node.spm.stats["forwarded_device_irqs"] == 0
