"""Turns a :class:`FaultPlan` into modeled faults at exact sim times.

Each fault kind maps onto an existing model mechanism — the injector never
invents new failure semantics, it only triggers the ones the hardware and
hypervisor layers already implement:

==================  ========================================================
kind                mechanism
==================  ========================================================
mem-bit-flip        ``PhysicalMemoryMap.flip_bit`` in the target VM's DRAM
                    partition; the consuming load takes an ECC
                    ``HardwareFault`` and the SPM force-aborts the partition
                    (machine-check containment). Native: kernel panic.
bus-error           ``DramBus.raise_bus_error`` attributed to the target VM;
                    same containment as above.
irq-drop            ``Gic.drop_pending`` eats the next pending instance of
                    an interrupt line (lost-IRQ hazard).
irq-storm           repeated edge pulses of an unclaimed SPI at a core —
                    interrupt-handling load on whoever runs there.
vcpu-stall          ``KernelBase.stall_cpu`` wedges one VCPU; heartbeats
                    stop and the watchdog's deadline detects it.
vcpu-crash          ``kill_thread`` on the primary's driver thread for a
                    VCPU; the guest silently stops being scheduled.
vm-panic            ``KernelBase.panic`` — the guest aborts at its next
                    dispatch boundary (the SPM contains it to the VM).
mailbox-storm       a rogue guest thread floods the primary's mailbox;
                    single-slot BUSY flow control absorbs it.
attestation-tamper  corrupts the stored VM image so restart-time signature
                    verification fails (recovery degrades gracefully).
node-failure        ``Cluster.fail(rank)`` — host-kernel panic freezes the
                    whole rank and the fabric partitions it (death notices
                    to survivors). Requires a cluster-wired node.
==================  ========================================================

Every random choice (addresses, bits) draws from dedicated ``faults.*``
RNG streams, so injection never perturbs any other stream's sequence —
the foundation of the containment guarantee the campaign checks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common.errors import ConfigurationError, HardwareFault, HypercallError
from repro.common.units import ms
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hafnium.spm import PRIMARY_VM_ID
from repro.hafnium.vm import VcpuState, Vm
from repro.kernels.base import KernelBase
from repro.kernels.thread import Hypercall, Thread
from repro.hw.gic import PPI_PHYS_TIMER


def _rogue_sender_body(count: int, dest_vm_id: int, size_bytes: int):
    """A misbehaving guest task spamming mailbox sends with no backoff."""
    sent = 0
    busy = 0
    for i in range(count):
        res = yield Hypercall(
            "mailbox_send",
            dest_vm_id=dest_vm_id,
            payload=("storm", i),
            size_bytes=size_bytes,
        )
        if res.get("ok"):
            sent += 1
        else:
            busy += 1
    return {"sent": sent, "busy": busy}


class FaultInjector:
    """Schedules and executes the faults of one plan against one node."""

    def __init__(self, node, plan: FaultPlan):
        self.node = node
        self.machine = node.machine
        self.plan = plan
        self.injections: List[Dict[str, Any]] = []
        self._armed = False
        self._addr_stream = self.machine.rng.stream("faults.addr")

    # -- scheduling -----------------------------------------------------------

    def arm(self) -> None:
        """Schedule every fault of the plan (absolute sim times)."""
        if self._armed:
            raise ConfigurationError("fault plan already armed")
        self._armed = True
        engine = self.machine.engine
        for spec in self.plan:
            if spec.at_ps < engine.now:
                raise ConfigurationError(
                    f"fault {spec.kind!r} scheduled at {spec.at_ps} ps, "
                    f"but the clock is already at {engine.now} ps"
                )
            engine.schedule_at(spec.at_ps, self._inject, spec)

    def _inject(self, spec: FaultSpec) -> None:
        handler = getattr(self, "_do_" + spec.kind.replace("-", "_"))
        detail = handler(spec)
        record = {
            "at_ps": self.machine.engine.now,
            "kind": spec.kind,
            "target": spec.target,
        }
        record.update(detail or {})
        self.injections.append(record)
        self.machine.trace(
            "fault.inject", "fault-injector", kind=spec.kind, target=spec.target
        )

    # -- target resolution ----------------------------------------------------

    def _target_vm(self, spec: FaultSpec) -> Optional[Vm]:
        spm = self.node.spm
        if spm is None:
            return None
        try:
            return spm.vm_by_name(spec.target)
        except HypercallError:
            return None

    def _target_kernel(self, spec: FaultSpec) -> KernelBase:
        vm = self._target_vm(spec)
        if vm is not None and vm.kernel is not None:
            return vm.kernel
        kernel = self.node.kernels.get(spec.target) or self.node.workload_kernel
        if kernel is None:
            raise ConfigurationError(f"fault target {spec.target!r} has no kernel")
        return kernel

    def _target_region(self, spec: FaultSpec):
        """The DRAM range the fault lands in: the target VM's partition
        under Hafnium, the whole of DRAM natively."""
        partitions = self.machine.dram_alloc.partitions
        return partitions.get(f"vm.{spec.target}", self.machine.memmap.dram)

    def _contain(self, spec: FaultSpec, fault: HardwareFault) -> str:
        """The platform's response to an uncorrectable hardware fault:
        attributed to a secondary VM, the SPM force-aborts just that
        partition; attributed to the primary/native kernel (the TCB), the
        kernel panics — the node-level failure Hafnium exists to shrink."""
        vm = self._target_vm(spec)
        if vm is not None and not vm.is_primary:
            self.node.spm.force_abort(vm.name, fault.fault_type)
            return "vm-aborted"
        kernel = self._target_kernel(spec)
        kernel.panic(f"{fault.fault_type} fault")
        self._wake_idle_slots(kernel)
        return "kernel-panic"

    @staticmethod
    def _wake_idle_slots(kernel: KernelBase) -> None:
        """Nudge idle CPU loops so a pending panic is noticed promptly."""
        for slot in kernel.slots:
            slot.wake_signal.fire("fault")

    # -- fault kinds -----------------------------------------------------------

    def _do_mem_bit_flip(self, spec: FaultSpec) -> Dict[str, Any]:
        region = self._target_region(spec)
        words = region.size // 8
        addr = spec.param("address")
        if addr is None:
            addr = region.base + 8 * int(self._addr_stream.integers(0, words))
        bit = spec.param("bit")
        if bit is None:
            bit = int(self._addr_stream.integers(0, 64))
        correctable = bool(spec.param("correctable", False))
        self.machine.memmap.flip_bit(addr, bit, correctable=correctable)
        detail: Dict[str, Any] = {
            "address": addr, "bit": bit, "correctable": correctable,
        }
        if correctable:
            detail["action"] = "corrected"  # SEC-DED fixed it; nothing to do
            return detail
        try:
            self.machine.memmap.read_word(addr, origin_vm=spec.target or None)
        except HardwareFault as fault:
            detail["syndrome"] = fault.syndrome()
            detail["action"] = self._contain(spec, fault)
        return detail

    def _do_bus_error(self, spec: FaultSpec) -> Dict[str, Any]:
        region = self._target_region(spec)
        addr = spec.param("address")
        if addr is None:
            addr = region.base + 8 * int(
                self._addr_stream.integers(0, region.size // 8)
            )
        try:
            self.machine.bus.raise_bus_error(
                addr,
                cpu_index=spec.param("core"),
                origin_vm=spec.target or None,
            )
        except HardwareFault as fault:
            return {
                "address": addr,
                "syndrome": fault.syndrome(),
                "action": self._contain(spec, fault),
            }
        return {"address": addr}  # pragma: no cover - raise_bus_error always raises

    def _do_irq_drop(self, spec: FaultSpec) -> Dict[str, Any]:
        irq = int(spec.param("irq", PPI_PHYS_TIMER))
        core = spec.param("core", 0)
        count = int(spec.param("count", 1))
        gic = self.machine.gic
        # Eat an in-flight pending instance if one exists; otherwise arm
        # the distributor to lose the next assertion(s) deterministically.
        if gic.drop_pending(irq, core):
            count -= 1
            self.machine.trace(
                "fault.irq_dropped", "fault-injector", irq=irq, core=core
            )
        if count > 0:
            gic.arm_drop_next(irq, core, count=count)
        return {"irq": irq, "core": core}

    def _do_irq_storm(self, spec: FaultSpec) -> Dict[str, Any]:
        irq = int(spec.param("irq", 63))
        core = int(spec.param("core", 0))
        count = int(spec.param("count", 150))
        gap_ps = int(spec.param("gap_ps", 40_000_000))
        gic = self.machine.gic
        gic.configure(irq, target_core=core)
        gic.enable(irq)
        engine = self.machine.engine
        for i in range(count):
            engine.schedule(i * gap_ps, gic.pulse, irq)
        return {"irq": irq, "core": core, "count": count}

    def _do_vcpu_stall(self, spec: FaultSpec) -> Dict[str, Any]:
        kernel = self._target_kernel(spec)
        idx = int(spec.param("vcpu", 0))
        duration = int(spec.param("duration_ps", ms(700)))
        kernel.stall_cpu(idx, duration)
        return {"vcpu": idx, "duration_ps": duration}

    def _do_vcpu_crash(self, spec: FaultSpec) -> Dict[str, Any]:
        idx = int(spec.param("vcpu", 0))
        threads = self.node.vcpu_threads(spec.target)
        if threads is None or idx >= len(threads):
            raise ConfigurationError(
                f"vcpu-crash: no driver thread {spec.target}#{idx}"
            )
        primary = self.node.kernels.get("primary") or self.node.workload_kernel
        primary.kill_thread(threads[idx], reason="vcpu-crash")
        return {"vcpu": idx, "thread": threads[idx].name}

    def _do_vm_panic(self, spec: FaultSpec) -> Dict[str, Any]:
        kernel = self._target_kernel(spec)
        kernel.panic(spec.param("reason", "injected panic"))
        vm = self._target_vm(spec)
        if vm is not None:
            # Parked VCPUs must be rescheduled to notice the panic.
            for vcpu in vm.vcpus:
                if vcpu.state == VcpuState.WFI:
                    self.node.spm.vcpu_work_available(vm.vm_id, vcpu.idx)
        else:
            self._wake_idle_slots(kernel)
        return {"kernel": kernel.name}

    def _do_mailbox_storm(self, spec: FaultSpec) -> Dict[str, Any]:
        kernel = self._target_kernel(spec)
        count = int(spec.param("count", 40))
        size = int(spec.param("size_bytes", 64))
        dest = int(spec.param("dest_vm_id", PRIMARY_VM_ID))
        rogue = Thread(
            f"fault.mbox-storm.{spec.target}",
            _rogue_sender_body(count, dest, size),
            cpu=int(spec.param("cpu", 0)),
            priority=100,
        )
        kernel.spawn(rogue)
        return {"count": count, "dest_vm_id": dest}

    def _do_node_failure(self, spec: FaultSpec) -> Dict[str, Any]:
        """Kill a whole cluster rank: host-kernel panic plus fabric
        partition (death notices to surviving ranks). Only meaningful on
        a node wired into a :class:`repro.cluster.node.Cluster`."""
        cluster = getattr(self.node, "cluster", None)
        if cluster is None:
            raise ConfigurationError(
                "node-failure targets a cluster rank, but this node is not "
                "part of a repro.cluster Cluster"
            )
        rank = int(spec.param("rank", 1))
        reason = str(spec.param("reason", "injected node failure"))
        cluster.fail(rank, reason=reason)
        # Wake the dead rank's idle host CPUs so the panic is reaped (and
        # its threads freeze) at the very next dispatch boundary.
        cnode = cluster.nodes[rank].node
        host = cnode.kernels.get("native") or cnode.kernels.get("primary")
        if host is not None:
            self._wake_idle_slots(host)
        return {"rank": rank, "reason": reason}

    def _do_attestation_tamper(self, spec: FaultSpec) -> Dict[str, Any]:
        recovery = getattr(self.node, "recovery", None)
        if recovery is None:
            raise ConfigurationError(
                "attestation-tamper needs a RecoveryManager on the node"
            )
        recovery.tamper_image(spec.target)
        detail: Dict[str, Any] = {"tampered": spec.target}
        if spec.param("abort", True):
            # Crash the VM too, so a recovery is attempted — and refused
            # when the tampered image fails signature verification.
            fault = HardwareFault(
                "post-tamper crash", fault_type="tamper", origin_vm=spec.target
            )
            detail["action"] = self._contain(spec, fault)
        return detail
