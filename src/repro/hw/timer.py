"""ARM generic timer model.

Each core has private timer channels delivered as level-triggered PPIs:
the EL1 physical timer (PPI 30), the EL1 virtual timer (PPI 27, what
Hafnium exposes to secondary VMs as "the dedicated virtual architectural
timer channel"), and the EL2 hypervisor timer (PPI 26).

A channel is programmed with a relative timeout; when it expires the PPI
line is asserted and stays asserted until the channel is reprogrammed or
stopped (architecturally: until CVAL moves or the enable bit clears).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.errors import ConfigurationError
from repro.sim.engine import Engine, Event, PRIO_HW
from repro.hw.gic import Gic, PPI_HYP_TIMER, PPI_PHYS_TIMER, PPI_VIRT_TIMER

CHANNEL_PPIS = {
    "phys": PPI_PHYS_TIMER,
    "virt": PPI_VIRT_TIMER,
    "hyp": PPI_HYP_TIMER,
}


class TimerChannel:
    """One timer channel of one core."""

    def __init__(self, engine: Engine, gic: Gic, core_id: int, kind: str):
        if kind not in CHANNEL_PPIS:
            raise ConfigurationError(f"unknown timer channel {kind!r}")
        self.engine = engine
        self.core_id = core_id
        self.kind = kind
        self.ppi = CHANNEL_PPIS[kind]
        #: the core's CPU interface: the channel drives its banked PPI line
        self._iface = gic.cpu_ifaces[core_id]
        self._event: Optional[Event] = None
        self.fire_count = 0
        self.deadline: Optional[int] = None

    def program(self, delay_ps: int) -> None:
        """Arm the channel `delay_ps` from now (reprogramming deasserts)."""
        if delay_ps < 0:
            raise ConfigurationError(f"negative timer delay {delay_ps}")
        # stop(), inline: the tick handler re-arms through here every tick.
        if self._event is not None:
            self._event.cancel()
        self._iface.lower_line(self.ppi)
        self.deadline = self.engine.now + delay_ps
        self._event = self.engine.schedule(
            delay_ps, self._fire, priority=PRIO_HW
        )

    def stop(self) -> None:
        """Disable the channel and deassert its line."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self.deadline = None
        self._iface.lower_line(self.ppi)

    def _fire(self) -> None:
        self._event = None
        self.deadline = None
        self.fire_count += 1
        self._iface.raise_line(self.ppi)

    @property
    def armed(self) -> bool:
        return self._event is not None and self._event.pending

    def remaining(self) -> Optional[int]:
        if self.deadline is None:
            return None
        return max(0, self.deadline - self.engine.now)


class GenericTimer:
    """The per-core timer block: phys + virt + hyp channels."""

    def __init__(self, engine: Engine, gic: Gic, core_id: int):
        self.core_id = core_id
        self.channels: Dict[str, TimerChannel] = {
            kind: TimerChannel(engine, gic, core_id, kind) for kind in CHANNEL_PPIS
        }

    def __getitem__(self, kind: str) -> TimerChannel:
        return self.channels[kind]

    def stop_all(self) -> None:
        for ch in self.channels.values():
            ch.stop()
