"""Turns a :class:`FaultPlan` into modeled faults at exact sim times.

Each fault kind maps onto an existing model mechanism — the injector never
invents new failure semantics, it only triggers the ones the hardware and
hypervisor layers already implement:

==================  ========================================================
kind                mechanism
==================  ========================================================
mem-bit-flip        ``PhysicalMemoryMap.flip_bit`` of a drawn word and bit in
                    the target VM's DRAM partition; the consuming load takes
                    an ECC ``HardwareFault`` and the SPM force-aborts the
                    partition (machine-check containment). Native: kernel
                    panic.
bus-error           ``DramBus.raise_bus_error`` attributed to the target VM;
                    same containment as above.
irq-drop            ``Gic.drop_pending`` eats the next pending instance of
                    ``IRQ_DROP_LINE`` at ``IRQ_DROP_CORE`` (lost-IRQ
                    hazard).
irq-storm           ``IRQ_STORM_PULSES`` edge pulses of the unclaimed SPI
                    ``IRQ_STORM_LINE`` at ``IRQ_STORM_CORE``, one every
                    ``IRQ_STORM_GAP_PS`` — interrupt-handling load on
                    whoever runs there.
vcpu-stall          ``KernelBase.stall_cpu`` wedges VCPU ``FAULTED_VCPU`` for
                    ``STALL_DURATION_PS``; heartbeats stop and the
                    watchdog's deadline detects it.
vcpu-crash          ``kill_thread`` on the primary's driver thread for VCPU
                    ``FAULTED_VCPU``; the guest silently stops being
                    scheduled.
vm-panic            ``KernelBase.panic`` (``PANIC_REASON``) — the guest
                    aborts at its next dispatch boundary (the SPM contains
                    it to the VM).
mailbox-storm       a rogue guest thread on CPU ``MAILBOX_STORM_CPU`` sends
                    ``MAILBOX_STORM_SENDS`` messages of
                    ``MAILBOX_STORM_BYTES`` to the primary's mailbox;
                    single-slot BUSY flow control absorbs them.
attestation-tamper  corrupts the stored VM image and crashes the VM, so the
                    restart's signature verification fails (recovery
                    degrades gracefully).
node-failure        ``Cluster.fail(rank)`` for a ``rank<N>`` target
                    (``NODE_FAILURE_REASON``) — host-kernel panic freezes
                    the whole rank and the fabric partitions it (death
                    notices to survivors). Requires a cluster-wired node.
==================  ========================================================

A spec names only kind, target and time: every other value is one of the
module constants above, the same for every plan. They are chosen so the
standard resilience campaign (inject mid-run, detect, recover, finish)
exercises each failure mode end to end.

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

#: The line and core an irq-drop loses one interrupt of.
IRQ_DROP_LINE = PPI_PHYS_TIMER
IRQ_DROP_CORE = 0
#: An irq-storm: pulses of an unclaimed SPI at one core, 40 us apart.
IRQ_STORM_LINE = 63
IRQ_STORM_CORE = 0
IRQ_STORM_PULSES = 150
IRQ_STORM_GAP_PS = 40_000_000
#: The VCPU a vcpu-stall wedges and a vcpu-crash kills the driver of.
FAULTED_VCPU = 0
STALL_DURATION_PS = ms(700)
PANIC_REASON = "injected panic"
#: The rogue guest thread of a mailbox-storm sends to the primary.
MAILBOX_STORM_SENDS = 40
MAILBOX_STORM_BYTES = 64
MAILBOX_STORM_CPU = 0
NODE_FAILURE_REASON = "injected node failure"


def _rogue_sender_body():
    """A misbehaving guest task spamming mailbox sends with no backoff."""
    sent = 0
    busy = 0
    for i in range(MAILBOX_STORM_SENDS):
        res = yield Hypercall(
            "mailbox_send",
            dest_vm_id=PRIMARY_VM_ID,
            payload=("storm", i),
            size_bytes=MAILBOX_STORM_BYTES,
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
        """Schedule every fault of the plan (absolute sim times). Nothing
        is scheduled unless every spec is valid."""
        if self._armed:
            raise ConfigurationError("fault plan already armed")
        engine = self.machine.engine
        for spec in self.plan:
            if spec.at_ps < engine.now:
                raise ConfigurationError(
                    f"fault {spec.kind!r} scheduled at {spec.at_ps} ps, "
                    f"but the clock is already at {engine.now} ps"
                )
            if spec.kind != "node-failure" and not self._names_target(spec):
                raise ConfigurationError(
                    f"fault {spec.kind!r} target {spec.target!r} names no VM "
                    f"or kernel of node {self.node.config_name!r}"
                )
        self._armed = True
        for spec in self.plan:
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

    def _names_target(self, spec: FaultSpec) -> bool:
        """A VM of the node's SPM, a kernel of the node, or ``native`` on
        a node without an SPM (node-failure checks its own ``rank<N>``)."""
        if spec.target in self.node.kernels or self._target_vm(spec) is not None:
            return True
        return self.node.spm is None and spec.target == "native"

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
        addr = region.base + 8 * int(self._addr_stream.integers(0, words))
        bit = int(self._addr_stream.integers(0, 64))
        self.machine.memmap.flip_bit(addr, bit)
        # The fault-scenario mem-bit-flip corpus cell hashes this record:
        # the constant key stays so the GOLDEN.json digest holds.
        detail: Dict[str, Any] = {
            "address": addr, "bit": bit, "correctable": False,
        }
        try:
            self.machine.memmap.read_word(addr, origin_vm=spec.target or None)
        except HardwareFault as fault:
            detail["syndrome"] = fault.syndrome()
            detail["action"] = self._contain(spec, fault)
        return detail

    def _do_bus_error(self, spec: FaultSpec) -> Dict[str, Any]:
        region = self._target_region(spec)
        addr = region.base + 8 * int(
            self._addr_stream.integers(0, region.size // 8)
        )
        try:
            self.machine.bus.raise_bus_error(addr, origin_vm=spec.target or None)
        except HardwareFault as fault:
            return {
                "address": addr,
                "syndrome": fault.syndrome(),
                "action": self._contain(spec, fault),
            }
        return {"address": addr}  # pragma: no cover - raise_bus_error always raises

    def _do_irq_drop(self, spec: FaultSpec) -> Dict[str, Any]:
        irq, core = IRQ_DROP_LINE, IRQ_DROP_CORE
        gic = self.machine.gic
        # Eat an in-flight pending instance if one exists; otherwise arm
        # the distributor to lose the next assertion deterministically.
        if gic.drop_pending(irq, core):
            self.machine.trace(
                "fault.irq_dropped", "fault-injector", irq=irq, core=core
            )
        else:
            gic.arm_drop_next(irq, core)
        return {"irq": irq, "core": core}

    def _do_irq_storm(self, spec: FaultSpec) -> Dict[str, Any]:
        gic = self.machine.gic
        gic.configure(IRQ_STORM_LINE, target_core=IRQ_STORM_CORE)
        gic.enable(IRQ_STORM_LINE)
        engine = self.machine.engine
        for i in range(IRQ_STORM_PULSES):
            engine.schedule(i * IRQ_STORM_GAP_PS, gic.pulse, IRQ_STORM_LINE)
        return {
            "irq": IRQ_STORM_LINE, "core": IRQ_STORM_CORE,
            "count": IRQ_STORM_PULSES,
        }

    def _do_vcpu_stall(self, spec: FaultSpec) -> Dict[str, Any]:
        kernel = self._target_kernel(spec)
        kernel.stall_cpu(FAULTED_VCPU, STALL_DURATION_PS)
        return {"vcpu": FAULTED_VCPU, "duration_ps": STALL_DURATION_PS}

    def _do_vcpu_crash(self, spec: FaultSpec) -> Dict[str, Any]:
        threads = self.node.vcpu_threads(spec.target)
        if not threads:
            raise ConfigurationError(
                f"vcpu-crash: no driver thread {spec.target}#{FAULTED_VCPU}"
            )
        thread = threads[FAULTED_VCPU]
        primary = self.node.kernels.get("primary") or self.node.workload_kernel
        primary.kill_thread(thread, reason="vcpu-crash")
        return {"vcpu": FAULTED_VCPU, "thread": thread.name}

    def _do_vm_panic(self, spec: FaultSpec) -> Dict[str, Any]:
        kernel = self._target_kernel(spec)
        kernel.panic(PANIC_REASON)
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
        rogue = Thread(
            f"fault.mbox-storm.{spec.target}",
            _rogue_sender_body(),
            cpu=MAILBOX_STORM_CPU,
            priority=100,
        )
        kernel.spawn(rogue)
        return {"count": MAILBOX_STORM_SENDS, "dest_vm_id": PRIMARY_VM_ID}

    def _do_node_failure(self, spec: FaultSpec) -> Dict[str, Any]:
        """Kill the cluster rank the target names (``rank<N>``): host-kernel
        panic plus fabric partition (death notices to surviving ranks).
        Only meaningful on a node wired into a
        :class:`repro.cluster.node.Cluster`."""
        cluster = getattr(self.node, "cluster", None)
        if cluster is None:
            raise ConfigurationError(
                "node-failure targets a cluster rank, but this node is not "
                "part of a repro.cluster Cluster"
            )
        digits = spec.target[len("rank"):]
        if not (spec.target.startswith("rank") and digits.isdigit()):
            raise ConfigurationError(
                f"node-failure target {spec.target!r} is not rank<N>"
            )
        rank = int(digits)
        cluster.fail(rank, reason=NODE_FAILURE_REASON)
        # Wake the dead rank's idle host CPUs so the panic is reaped (and
        # its threads freeze) at the very next dispatch boundary.
        cnode = cluster.nodes[rank].node
        host = cnode.kernels.get("native") or cnode.kernels.get("primary")
        if host is not None:
            self._wake_idle_slots(host)
        return {"rank": rank, "reason": NODE_FAILURE_REASON}

    def _do_attestation_tamper(self, spec: FaultSpec) -> Dict[str, Any]:
        recovery = getattr(self.node, "recovery", None)
        if recovery is None:
            raise ConfigurationError(
                "attestation-tamper needs a RecoveryManager on the node"
            )
        recovery.tamper_image(spec.target)
        # Crash the VM too, so a recovery is attempted — and refused when
        # the tampered image fails signature verification.
        fault = HardwareFault(
            "post-tamper crash", fault_type="tamper", origin_vm=spec.target
        )
        return {"tampered": spec.target, "action": self._contain(spec, fault)}
