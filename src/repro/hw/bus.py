"""DRAM bus: the fault-injection hook for uncorrectable transfer errors.

The paper's benchmarks run one workload at a time, so bandwidth sharing
between cores is a static per-thread share that each memory phase
carries (``MemoryPhase.bw_fraction``); the bus itself holds no
arbitration state. What it does model is failure: the ``bus-error``
fault kind raises an attributed :class:`HardwareFault` through it.
"""

from __future__ import annotations

from repro.common.errors import HardwareFault


class DramBus:
    """The memory interconnect as a source of bus errors."""

    def __init__(self, name: str = "dram-bus"):
        self.name = name
        self.bus_errors = 0

    def raise_bus_error(
        self, address: int, *, cpu_index=None, origin_vm=None
    ) -> None:
        """Signal an uncorrectable transfer error on the memory bus
        (fault-injection hook: an SLVERR/DECERR response on the AXI
        interconnect). Always raises :class:`HardwareFault`."""
        self.bus_errors += 1
        raise HardwareFault(
            f"{self.name}: uncorrectable bus error at {address:#x}",
            address=address,
            fault_type="bus",
            cpu_index=cpu_index,
            origin_vm=origin_vm,
        )
