"""CPU core model.

A core is where one kernel's per-core loop (a :class:`repro.sim.Process`)
executes. The core mediates interrupt delivery: when its GIC CPU interface
signals a deliverable interrupt, the core preempts the attached loop
process's wait with its :class:`IrqPreemption` marker.

The core also tracks the architectural context the paper's isolation story
depends on: current exception level, security world, and active
translation regime — and offers a functional ``touch`` used by tests and
examples to demonstrate that stage-2 + TrustZone enforcement actually
rejects cross-partition accesses.
"""

from __future__ import annotations

from enum import IntEnum, Enum
from typing import Any, Optional, TYPE_CHECKING

from repro.common.errors import HardwareFault, SimulationError
from repro.hw.gic import GicCpuInterface
from repro.hw.mmu import TranslationRegime
from repro.hw.perfmodel import MemEnv
from repro.hw.pmu import DebugRegisters, Pmu
from repro.hw.timer import GenericTimer
from repro.sim.engine import Engine
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.machine import Machine


class ExceptionLevel(IntEnum):
    EL0 = 0  # user
    EL1 = 1  # kernel
    EL2 = 2  # hypervisor
    EL3 = 3  # secure monitor / firmware


class SecurityWorld(Enum):
    NONSECURE = "nonsecure"
    SECURE = "secure"


class IrqPreemption:
    """The value a hardware interrupt sends into the core's loop process.

    One per core, built with it: :meth:`Process.preempt` sends it as the
    result of the loop's pending wait, and the kernel's one interruptible
    point tells an interrupted wait from a completed one by identity with
    ``Core.preemption``. Nothing is allocated or thrown per interrupt.
    """

    __slots__ = ("core_id",)

    def __init__(self, core_id: int):
        self.core_id = core_id

    def __repr__(self) -> str:  # pragma: no cover
        return f"IrqPreemption(core{self.core_id})"


class Core:
    """One physical CPU core."""

    def __init__(
        self,
        machine: "Machine",
        core_id: int,
        cpu_iface: GicCpuInterface,
        timer: GenericTimer,
    ):
        self.machine = machine
        self.engine: Engine = machine.engine
        self.core_id = core_id
        self.cpu_iface = cpu_iface
        self.timer = timer
        self.env = MemEnv(machine.soc, machine.perf.params)
        self.pmu = Pmu(core_id)
        self.debug = DebugRegisters(core_id)
        # Architectural context.
        self.el = ExceptionLevel.EL1
        self.world = SecurityWorld.NONSECURE
        self.regime: Optional[TranslationRegime] = None
        # Execution plumbing.
        self.loop_process: Optional[Process] = None
        self.idle_time_ps = 0
        #: the marker every hardware interrupt of this core sends its loop
        self.preemption = IrqPreemption(core_id)
        cpu_iface.irq_entry = self._on_deliverable_irq

    # -- loop attachment -----------------------------------------------------

    def attach_loop(self, process: Process) -> None:
        if self.loop_process is not None and self.loop_process.alive:
            raise SimulationError(
                f"core{self.core_id} already has a live loop process"
            )
        self.loop_process = process

    def _on_deliverable_irq(self) -> None:
        """GIC signals a deliverable interrupt for this core. A loop that
        is not waiting finds it pending at its next ``peek()``."""
        proc = self.loop_process
        if proc is not None:
            proc.preempt(self.preemption)

    # -- architectural context -----------------------------------------------

    def set_context(
        self,
        el: ExceptionLevel,
        world: SecurityWorld,
        regime: Optional[TranslationRegime],
    ) -> None:
        self.el = el
        self.world = world
        self.regime = regime

    def touch(self, va: int, access: str = "r") -> int:
        """Functionally access a virtual address in the current context.

        Runs the full translation (stage 1, stage 2) and the TrustZone
        check, returning the physical address — or raising
        TranslationFault / SecurityViolation exactly where real hardware
        would abort. This is the hook isolation tests drive.
        """
        if self.regime is None:
            pa = va
        else:
            pa, _refs = self.regime.translate(va, access)
        self.machine.trustzone.check_access(pa, self.world.value, access)
        region = self.machine.memmap.region_at(pa)
        if region is None:
            raise HardwareFault(
                f"core{self.core_id}: access to unmapped PA {pa:#x}",
                address=pa,
                fault_type="bus",
                cpu_index=self.core_id,
            )
        return pa

    def __repr__(self) -> str:  # pragma: no cover
        return f"Core({self.core_id}, EL{int(self.el)}, {self.world.value})"
