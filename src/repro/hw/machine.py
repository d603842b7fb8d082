"""Machine assembly: one simulated node.

Gathers the engine, tracer, SoC config, physical memory map, TrustZone
controller, GIC, per-core timers, cores, performance model, and RNG hub.
Everything above (firmware, hypervisor, kernels, workloads) is built on a
Machine.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.rng import RngHub
from repro.hw.bus import DramBus
from repro.hw.cpu import Core
from repro.hw.devices import Device, Uart
from repro.hw.gic import Gic
from repro.hw.memory import DramAllocator, PhysicalMemoryMap
from repro.hw.perfmodel import CostParams, PerfModel
from repro.hw.soc import SoCConfig, PINE_A64
from repro.hw.timer import GenericTimer
from repro.hw.trustzone import TrustZoneController
from repro.sim.engine import Engine
from repro.sim.trace import Tracer


class Machine:
    """One simulated compute node."""

    def __init__(
        self,
        soc: SoCConfig = PINE_A64,
        rng: Optional[RngHub] = None,
        tracer: Optional[Tracer] = None,
        params: Optional[CostParams] = None,
        engine: Optional[Engine] = None,
    ):
        self.soc = soc
        # A multi-node cluster (repro.cluster) passes one shared engine so
        # every machine lives on the same simulated clock; a standalone
        # node owns a private one.
        self.engine = engine if engine is not None else Engine()
        self.tracer = tracer if tracer is not None else Tracer()
        self.rng = rng if rng is not None else RngHub()
        self.perf = PerfModel(soc, params)
        sigma = self.perf.params.trial_variation_sigma
        if sigma > 0:
            draw = float(self.rng.stream("trial.variation").standard_normal())
            self.perf.trial_factor = max(0.95, 1.0 + sigma * draw)
        self.memmap = PhysicalMemoryMap(soc)
        self.bus = DramBus()
        self.trustzone = TrustZoneController()
        self.gic = Gic(soc.num_cores)
        self.timers: List[GenericTimer] = [
            GenericTimer(self.engine, self.gic, c) for c in range(soc.num_cores)
        ]
        self.cores: List[Core] = [
            Core(self, c, self.gic.cpu_ifaces[c], self.timers[c])
            for c in range(soc.num_cores)
        ]
        self.dram_alloc = DramAllocator(self.memmap)
        self.devices: Dict[str, Device] = {}
        if "uart0" in soc.mmio:
            self.devices["uart0"] = Uart(self.gic, spi=32)
        # Runtime sanitizer (REPRO_SANITIZE=1 or `repro --sanitize ...`):
        # wraps the engine with monotonic-clock/queue/reentrancy checks.
        # A shared cluster engine is wrapped once, by its first machine.
        from repro.analysis.invariants import attach_if_enabled

        self.sanitizer = getattr(self.engine, "sanitizer", None)
        if self.sanitizer is None:
            self.sanitizer = attach_if_enabled(self.engine)

    def add_device(self, device: Device) -> None:
        self.devices[device.name] = device

    def trace(self, category: str, subject: str, **data) -> None:
        self.tracer.emit(self.engine.now, category, subject, **data)

    @property
    def now(self) -> int:
        return self.engine.now

    def __repr__(self) -> str:  # pragma: no cover
        return f"Machine({self.soc.name}, t={self.engine.now}ps)"
