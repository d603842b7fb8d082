"""Peripheral device models.

Devices matter to the reproduction for two reasons: (1) the
super-secondary design moves MMIO ownership and device IRQs away from the
primary VM, which needs actual devices to demonstrate, and (2) device
interrupts are a noise source in the Linux-primary configuration.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.common.errors import ConfigurationError
from repro.hw.gic import Gic
from repro.sim.engine import Engine, Event, PRIO_HW


class Device:
    """Base peripheral: a name, an MMIO region name, and an SPI number."""

    def __init__(self, name: str, mmio_region: str, spi: Optional[int] = None):
        self.name = name
        self.mmio_region = mmio_region
        self.spi = spi

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.name!r}, spi={self.spi})"


class Uart(Device):
    """Console UART. TX completion raises its SPI (edge)."""

    def __init__(self, engine: Engine, gic: Gic, spi: int = 32, name: str = "uart0"):
        super().__init__(name, name, spi)
        self.engine = engine
        self.gic = gic
        self.tx_log: List[str] = []
        gic.configure(spi)

    def transmit(self, text: str, irq: bool = True) -> None:
        """Queue text for output; interrupt fires after the modeled TX time
        (11.5 kB/s at 115200 baud)."""
        self.tx_log.append(text)
        if irq:
            tx_ps = max(1, round(len(text) * 86.8 * 1_000_000))  # 86.8 us/char
            self.engine.schedule(tx_ps, self.gic.pulse, self.spi, priority=PRIO_HW)

    @property
    def output(self) -> str:
        return "".join(self.tx_log)


class PeriodicDevice(Device):
    """A device raising its SPI periodically (e.g. a NIC with steady RX).

    Used by the noise-isolation experiments: device interrupts should land
    on whichever VM owns the device — the primary by default, the
    super-secondary after retargeting.
    """

    def __init__(
        self,
        engine: Engine,
        gic: Gic,
        spi: int,
        period_ps: int,
        name: str = "nic0",
    ):
        super().__init__(name, name, spi)
        if period_ps <= 0:
            raise ConfigurationError("device period must be positive")
        self.engine = engine
        self.gic = gic
        self.period_ps = period_ps
        self.raised = 0
        self.fire_times: List[int] = []
        #: The armed RX tick; None while stopped.
        self._event: Optional[Event] = None
        gic.configure(spi)

    def start(self) -> None:
        """Raise the first interrupt one period from now. Idempotent."""
        if self._event is None:
            self._arm()

    def stop(self) -> None:
        """Disarm. Safe from inside the interrupt path."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        armed = self._event
        self.raised += 1
        self.fire_times.append(self.engine.now)
        self.gic.pulse(self.spi)
        # Re-arm last, so the next tick takes its sequence number after
        # anything the pulse scheduled; a stop()/start() during the pulse
        # replaced or cleared ``_event`` and owns the next tick instead.
        if self._event is armed:
            self._arm()

    def _arm(self) -> None:
        self._event = self.engine.schedule(self.period_ps, self._fire, priority=PRIO_HW)
