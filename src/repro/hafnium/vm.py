"""VM and VCPU state objects."""

from __future__ import annotations

from enum import Enum
from typing import Optional, TYPE_CHECKING

from repro.hafnium.manifest import PartitionSpec, VmRole
from repro.hafnium.vgic import VgicCpu
from repro.hw.memory import MemoryRegion
from repro.hw.mmu import PageTable
from repro.sim.engine import Engine, Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cpu import Core
    from repro.kernels.base import CpuSlot, KernelBase


class VcpuState(Enum):
    READY = "ready"        # runnable, waiting for its kernel thread
    RUNNING = "running"    # resident on a physical core
    WFI = "wfi"            # guest idled; waiting for work
    HALTED = "halted"
    ABORTED = "aborted"


class Vcpu:
    """One virtual CPU context held by the SPM."""

    def __init__(self, vm: "Vm", idx: int, engine: Engine):
        self.vm = vm
        self.idx = idx
        self.state = VcpuState.READY
        self.vgic = VgicCpu(f"{vm.name}.vcpu{idx}")
        self.resident_core: Optional["Core"] = None
        self.wake_signal = Signal(engine, f"{vm.name}.vcpu{idx}.wake")
        self.slot: Optional["CpuSlot"] = None  # the guest kernel's CPU slot
        self.runs = 0
        self.exits = {"interrupt": 0, "wfi": 0, "yield": 0, "halt": 0, "abort": 0}

    def __repr__(self) -> str:  # pragma: no cover
        return f"Vcpu({self.vm.name}#{self.idx}, {self.state.value})"


class Vm:
    """One partition: identity, memory, stage-2 table, kernel, VCPUs."""

    def __init__(
        self,
        vm_id: int,
        spec: PartitionSpec,
        memory: MemoryRegion,
        stage2: PageTable,
        engine: Engine,
    ):
        self.vm_id = vm_id
        self.spec = spec
        self.engine = engine
        self.name = spec.name
        self.role = spec.role
        self.secure = spec.secure
        self.memory = memory
        self.stage2 = stage2
        self.kernel: Optional["KernelBase"] = None
        self.vcpus = [Vcpu(self, i, engine) for i in range(spec.vcpus)]
        self.halt_requested = False
        self.aborted = False
        self.restarts = 0
        self.boot_measurement: Optional[str] = None  # filled by the boot chain

    def reset_for_restart(self) -> None:
        """Discard execution state ahead of a restart: fresh VCPUs, flags
        cleared. The partition's memory region and stage-2 table persist —
        Hafnium cannot reallocate partitions, so a restart reuses them."""
        self.vcpus = [Vcpu(self, i, self.engine) for i in range(self.spec.vcpus)]
        self.halt_requested = False
        self.aborted = False
        self.restarts += 1

    @property
    def is_primary(self) -> bool:
        return self.role == VmRole.PRIMARY

    @property
    def is_super(self) -> bool:
        return self.role == VmRole.SUPER_SECONDARY

    def __repr__(self) -> str:  # pragma: no cover
        return f"Vm({self.vm_id}:{self.name}, {self.role.value}, vcpus={len(self.vcpus)})"
