"""The Secure Partition Manager (the Hafnium model).

Responsibilities, mirroring the architecture the paper describes:

* **Boot-time partitioning** — carve DRAM into per-VM partitions, build
  each VM's stage-2 table, assign MMIO ownership (primary by default; the
  super-secondary when one is configured — the paper's extension), mark
  secure partitions in the TrustZone controller.
* **Core-local hypercalls** — every call executes on the caller's current
  physical core and can only affect that core's execution; there is no
  cross-core operation in the API (Section II-a). Privilege is checked
  against the caller's VM ID, exactly the "compare against known
  constants" scheme the paper describes extending for the super-secondary.
* **vcpu_run / VM exits** — the primary's VCPU threads enter guests via
  ``vcpu_run``; the SPM context-switches the physical core into the guest
  kernel's scheduling loop and catches its VmExit exceptions. Guest-owned
  virtual-timer interrupts are handled entirely at EL2 (inject + re-enter,
  "the majority being handled internally by the hypervisor"); everything
  else returns to the primary.
* **Para-virtual interrupt controller** — pending virtual IRQs are queued
  on the VCPU and drained by the guest at its next dispatch boundary.
* **Mailbox IPC** and **device-IRQ forwarding** to the super-secondary.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.common.errors import ConfigurationError, HypercallError, SimulationError
from repro.kernels.exits import (
    VmExit,
    VmExitAbort,
    VmExitHalt,
    VmExitIntr,
    VmExitWfi,
    VmExitYield,
)
from repro.hafnium.mailbox import Mailbox
from repro.hafnium.manifest import Manifest, PartitionSpec, VmRole
from repro.hafnium.stage2 import build_ram_stage2, map_mmio_region, s2_walk_depth
from repro.hafnium.vm import Vcpu, VcpuState, Vm
from repro.hw.cpu import Core, ExceptionLevel, SecurityWorld
from repro.hw.gic import PPI_VIRT_TIMER
from repro.hw.machine import Machine
from repro.hw.mmu import PAGE_4K, TranslationRegime
from repro.hw.perfmodel import TranslationInfo
from repro.kernels.base import (
    CpuSlot,
    KernelBase,
    ROLE_PRIMARY,
    ROLE_SECONDARY,
    ROLE_SUPER,
)
from repro.kernels.thread import Thread
from repro.sim.process import Interrupted, Timeout

# Hardcoded VM identifiers ("privilege checks are done by comparing the
# internal VM identifier against known constants ... adding an additional
# hardcoded VM ID for the super-secondary", paper Section IV-c).
PRIMARY_VM_ID = 1
SUPER_SECONDARY_VM_ID = 2
FIRST_SECONDARY_VM_ID = 3


class Spm:
    """The hypervisor instance of one node."""

    def __init__(
        self,
        machine: Machine,
        manifest: Manifest,
        *,
        stage2_block: int = PAGE_4K,
    ):
        self.machine = machine
        self.manifest = manifest
        self.stage2_block = stage2_block
        self.vms: Dict[int, Vm] = {}
        self._by_name: Dict[str, Vm] = {}
        self.mailboxes: Dict[int, Mailbox] = {}
        #: which VCPU owns each physical core's virtual-timer channel
        self._vtimer_owner: Dict[int, Vcpu] = {}
        #: which VM owns each device SPI (for forwarding / classification)
        self.device_irq_to_vm: Dict[int, Vm] = {}
        self.stats = {
            "vcpu_runs": 0,
            "internal_virq_handled": 0,
            "exits_to_primary": 0,
            "aborts": 0,
            "forced_aborts": 0,
            "vm_resets": 0,
            "forwarded_device_irqs": 0,
            "direct_device_irqs": 0,
        }
        #: optional liveness monitor (:class:`repro.faults.watchdog.Watchdog`);
        #: when attached, every vcpu_run entry beats it and abort exits
        #: notify it synchronously.
        self.watchdog: Optional[Any] = None
        #: "forwarded" = the paper's interim design (all IRQs to the
        #: primary, which forwards device IRQs on); "direct" = the
        #: selective-routing future design (the SPM claims device IRQs at
        #: EL2 and injects them into the owner without primary handling).
        self.irq_routing_mode = "forwarded"
        # Fixed path costs, priced once as ready waits. Unlike the kernel's,
        # these are yielded even at zero cost.
        perf = machine.perf
        self._hypercall_cost = Timeout(perf.event_cost("hypercall"))
        self._mailbox_copy = Timeout(perf.cycles(400))
        self._vtimer_claim = Timeout(perf.cycles(500))
        self._device_claim = Timeout(perf.cycles(600))
        self._direct_claim = Timeout(perf.cycles(450))
        #: vm_id -> (entry, exit) waits, priced when the VM's kernel is attached
        self._switch: Dict[int, Tuple[Timeout, Timeout]] = {}
        #: vm_id -> the VM's one translation regime, built with its stage 2
        self._regime: Dict[int, TranslationRegime] = {}
        self._build_partitions()

    # ------------------------------------------------------------------
    # Boot-time construction
    # ------------------------------------------------------------------

    def _assign_vm_id(self, spec: PartitionSpec, next_secondary: List[int]) -> int:
        if spec.role == VmRole.PRIMARY:
            return PRIMARY_VM_ID
        if spec.role == VmRole.SUPER_SECONDARY:
            return SUPER_SECONDARY_VM_ID
        vm_id = next_secondary[0]
        next_secondary[0] += 1
        return vm_id

    def _build_partitions(self) -> None:
        machine = self.machine
        next_secondary = [FIRST_SECONDARY_VM_ID]
        super_spec = self.manifest.super_secondary
        for spec in self.manifest.partitions:
            region = machine.dram_alloc.allocate(f"vm.{spec.name}", spec.memory_bytes)
            # Hafnium identity-maps partitions at their physical addresses
            # (the manifest assigns each partition a base address); MMIO
            # ranges are likewise identity-mapped into their owner, so the
            # IPA space mirrors the SoC memory map.
            stage2 = build_ram_stage2(
                spec.name, region, ipa_base=region.base, block_size=self.stage2_block
            )
            vm_id = self._assign_vm_id(spec, next_secondary)
            vm = Vm(vm_id, spec, region, stage2, machine.engine)
            # The stage-2 table outlives a VM reset, so one regime serves
            # every entry of the VM.
            self._regime[vm_id] = TranslationRegime(stage2=stage2, name=f"{spec.name}.regime")
            self.vms[vm_id] = vm
            self._by_name[spec.name] = vm
            self.mailboxes[vm_id] = Mailbox(machine.engine, spec.name)
            if spec.secure:
                machine.trustzone.mark_secure(region.base, region.size)
        # MMIO ownership: explicitly-assigned devices go to their VM; the
        # remainder go to the super-secondary when present, else primary
        # ("this simply needs to be changed to map those regions into the
        # super-secondary instead", Section III-b).
        explicitly_assigned = set()
        for spec in self.manifest.partitions:
            vm = self._by_name[spec.name]
            for dev in spec.devices:
                map_mmio_region(vm.stage2, machine.memmap, dev, vm.name)
                explicitly_assigned.add(dev)
                self._register_device_irq(dev, vm)
        io_owner = (
            self._by_name[super_spec.name]
            if super_spec is not None
            else self._by_name[self.manifest.primary.name]
        )
        for dev_name in machine.soc.mmio:
            if dev_name in explicitly_assigned or dev_name.startswith("gic"):
                continue
            map_mmio_region(io_owner.stage2, machine.memmap, dev_name, io_owner.name)
            self._register_device_irq(dev_name, io_owner)
        # Build the kernels.
        for vm in self.vms.values():
            self._attach_kernel(vm)

    def _register_device_irq(self, dev_name: str, vm: Vm) -> None:
        device = self.machine.devices.get(dev_name)
        if device is not None and device.spi is not None:
            self.assign_device_irq(device.spi, vm.name)

    def _guest_translation(self, kernel: KernelBase) -> TranslationInfo:
        s1 = kernel.trans
        s2_depth = s2_walk_depth(self.stage2_block)
        return TranslationInfo(
            two_stage=True,
            s1_depth=s1.s1_depth,
            s2_depth=s2_depth,
            page_size=min(s1.page_size, self.stage2_block),
        )

    def _attach_kernel(self, vm: Vm) -> None:
        role = {
            VmRole.PRIMARY: ROLE_PRIMARY,
            VmRole.SUPER_SECONDARY: ROLE_SUPER,
            VmRole.SECONDARY: ROLE_SECONDARY,
        }[vm.role]
        kernel: KernelBase = vm.spec.kernel_factory(self.machine, vm.spec, role)
        if len(kernel.slots) != len(vm.vcpus):
            raise ConfigurationError(
                f"{vm.name}: kernel has {len(kernel.slots)} CPU slots but the "
                f"manifest defines {len(vm.vcpus)} VCPUs"
            )
        if kernel.role != role:
            # The timer channel and exit behaviour follow the built role.
            raise ConfigurationError(
                f"{vm.name}: kernel factory built a {kernel.role!r} kernel "
                f"for a {role!r} partition (pass the role through)"
            )
        kernel.spm = self
        kernel.vm_id = vm.vm_id
        self._switch[vm.vm_id] = self._switch_waits(vm)
        # Everything under Hafnium translates through two stages.
        kernel.trans = self._guest_translation(kernel)
        vm.kernel = kernel
        for vcpu, slot in zip(vm.vcpus, kernel.slots):
            vcpu.slot = slot
            slot.vcpu = vcpu

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------

    def boot_primary(self) -> KernelBase:
        """Hand the machine to the primary VM's kernel (end of the trusted
        boot sequence: the hypervisor starts the primary on every core)."""
        primary = self.primary_vm
        kernel = primary.kernel
        for core in self.machine.cores:
            core.set_context(
                ExceptionLevel.EL1,
                SecurityWorld.NONSECURE,
                self._regime[PRIMARY_VM_ID],
            )
        kernel.boot_on_cores(self.machine.cores)
        for vcpu, core in zip(primary.vcpus, self.machine.cores):
            vcpu.state = VcpuState.RUNNING
            vcpu.resident_core = core
        self.machine.trace("spm.boot", "spm", primary=primary.name)
        return kernel

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------

    @property
    def primary_vm(self) -> Vm:
        return self.vms[PRIMARY_VM_ID]

    def vm_by_name(self, name: str) -> Vm:
        try:
            return self._by_name[name]
        except KeyError:
            raise HypercallError(f"unknown VM {name!r}") from None

    def vm_of_kernel(self, kernel: KernelBase) -> Vm:
        if kernel.vm_id is None or kernel.vm_id not in self.vms:
            raise HypercallError(f"kernel {kernel.name!r} is not a partition")
        return self.vms[kernel.vm_id]

    # ------------------------------------------------------------------
    # Hypercall interface (core-local by construction: it executes in the
    # calling kernel's per-core loop on the caller's physical core)
    # ------------------------------------------------------------------

    _SUPER_ALLOWED = {"mailbox_send", "mailbox_recv", "vm_list", "yield"}
    _SECONDARY_ALLOWED = {"mailbox_send", "mailbox_recv", "yield"}

    def _check_privilege(self, vm: Vm, name: str) -> None:
        if vm.is_primary:
            return  # full API
        allowed = self._SUPER_ALLOWED if vm.is_super else self._SECONDARY_ALLOWED
        if name not in allowed:
            raise HypercallError(
                f"VM {vm.name!r} ({vm.role.value}) may not invoke {name!r}"
            )

    def hypercall(
        self,
        kernel: KernelBase,
        slot: CpuSlot,
        thread: Thread,
        name: str,
        args: Dict[str, Any],
    ) -> Generator:
        vm = self.vm_of_kernel(kernel)
        self._check_privilege(vm, name)
        yield self._hypercall_cost
        if slot.core is not None:
            slot.core.env.pollute("hypercall")
        handler = getattr(self, f"_hyp_{name}", None)
        if handler is None:
            raise HypercallError(f"unknown hypercall {name!r}")
        result = yield from handler(vm, slot, thread, **args)
        return result

    # -- informational ---------------------------------------------------------

    def _hyp_vm_list(self, vm: Vm, slot: CpuSlot, thread: Thread) -> Generator:
        return {
            "vms": [
                {
                    "name": v.name,
                    "vm_id": v.vm_id,
                    "role": v.role.value,
                    "vcpus": len(v.vcpus),
                    "secure": v.secure,
                }
                for v in self.vms.values()
            ]
        }
        yield  # pragma: no cover - generator marker

    def _hyp_vm_info(self, vm: Vm, slot: CpuSlot, thread: Thread, vm_name: str) -> Generator:
        target = self.vm_by_name(vm_name)
        return {
            "name": target.name,
            "vm_id": target.vm_id,
            "role": target.role.value,
            "vcpus": len(target.vcpus),
            "memory_bytes": target.memory.size,
            "secure": target.secure,
        }
        yield  # pragma: no cover

    # -- lifecycle ----------------------------------------------------------------

    def _hyp_vm_stop(self, vm: Vm, slot: CpuSlot, thread: Thread, vm_name: str) -> Generator:
        target = self.vm_by_name(vm_name)
        if target.is_primary:
            raise HypercallError("the primary VM cannot stop itself via vm_stop")
        target.halt_requested = True
        for vcpu in target.vcpus:
            if vcpu.state == VcpuState.WFI:
                vcpu.state = VcpuState.READY
            vcpu.wake_signal.fire("halt")
        self.machine.trace("spm.vm_stop", "spm", vm=vm_name)
        return {"ok": True}
        yield  # pragma: no cover

    # -- fault containment and recovery ------------------------------------------

    def force_abort(self, vm_name: str, reason: str) -> None:
        """Forcibly abort a secondary VM (the SPM's synchronous response
        to an unrecoverable fault attributed to that partition, e.g. an
        uncorrectable ECC error in its memory). Resident VCPUs are kicked
        off their cores; parked ones are marked aborted, so every pending
        and future ``vcpu_run`` returns an abort exit."""
        vm = self.vm_by_name(vm_name)
        if vm.is_primary:
            raise HypercallError("cannot force-abort the primary VM")
        if vm.aborted:
            return
        vm.aborted = True
        self.stats["forced_aborts"] += 1
        self.machine.trace("spm.force_abort", "spm", vm=vm.name, reason=reason)
        for vcpu in vm.vcpus:
            if vcpu.state == VcpuState.WFI:
                vcpu.state = VcpuState.ABORTED
            vcpu.wake_signal.fire("abort")
            core = vcpu.resident_core
            if (
                core is not None
                and core.loop_process is not None
                and core.loop_process.alive
            ):
                # The guest is on-core right now: interrupt it out. The
                # Interrupted lands in a guest (or SPM) frame and becomes
                # an interrupt exit; re-entry then observes vm.aborted.
                core.loop_process.interrupt("force_abort")
        if self.watchdog is not None:
            self.watchdog.vm_aborted(vm.vm_id, reason)

    def reset_vm(self, vm_name: str) -> Vm:
        """Reset an aborted/halted secondary for restart: fresh VCPUs and
        kernel, drained mailbox, re-wired device IRQs. The caller (the
        recovery manager) must have quiesced the VM first — no VCPU may
        still be resident on a physical core."""
        vm = self.vm_by_name(vm_name)
        if vm.is_primary:
            raise HypercallError("the primary VM cannot be reset")
        for vcpu in vm.vcpus:
            if vcpu.state == VcpuState.RUNNING:
                raise SimulationError(
                    f"reset_vm({vm.name}): VCPU {vcpu.idx} is still resident"
                )
        # Drop virtual-timer ownership held by the outgoing VCPUs.
        for core_id in sorted(self._vtimer_owner):
            if self._vtimer_owner[core_id].vm is vm:
                del self._vtimer_owner[core_id]
        vm.reset_for_restart()
        # Drain any stale message left by the crashed incarnation.
        box = self.mailboxes[vm.vm_id]
        while box.retrieve() is not None:
            pass
        self._attach_kernel(vm)
        # The new boot VCPU re-registers the VM's device interrupts.
        for spi in sorted(self.device_irq_to_vm):
            if self.device_irq_to_vm[spi] is vm:
                vm.vcpus[0].vgic.enable(spi)
        self.stats["vm_resets"] += 1
        self.machine.trace(
            "spm.vm_reset", "spm", vm=vm.name, restarts=vm.restarts
        )
        return vm

    # -- mailboxes ---------------------------------------------------------------

    def _hyp_mailbox_send(
        self, vm: Vm, slot: CpuSlot, thread: Thread, dest_vm_id: int, payload: Any,
        size_bytes: int = 64,
    ) -> Generator:
        if dest_vm_id not in self.vms:
            raise HypercallError(f"mailbox_send to unknown VM id {dest_vm_id}")
        yield self._mailbox_copy  # copy into the RX buffer
        box = self.mailboxes[dest_vm_id]
        ok = box.deliver(vm.vm_id, payload, size_bytes)
        if ok:
            # Receiving VM may be idle in WFI: make it runnable.
            dest = self.vms[dest_vm_id]
            if not dest.is_primary:
                self.vcpu_work_available(dest_vm_id, 0)
        return {"ok": ok, "busy": not ok}

    def _hyp_mailbox_recv(self, vm: Vm, slot: CpuSlot, thread: Thread) -> Generator:
        msg = self.mailboxes[vm.vm_id].retrieve()
        if msg is None:
            return {"ok": False, "message": None, "signal": self.mailboxes[vm.vm_id].recv_signal}
        return {
            "ok": True,
            "message": msg,
            "signal": self.mailboxes[vm.vm_id].recv_signal,
        }
        yield  # pragma: no cover

    # -- yield ---------------------------------------------------------------------

    def _hyp_yield(self, vm: Vm, slot: CpuSlot, thread: Thread) -> Generator:
        if vm.is_primary:
            return {"ok": True}
        # A guest yield completes immediately from the guest thread's view
        # (clear the in-progress item first), then exits to the primary.
        thread.current_item = None
        thread.pending_send = {"ok": True}
        raise VmExitYield()
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # vcpu_run: the heart of the scheduling contract
    # ------------------------------------------------------------------

    def _hyp_vcpu_run(
        self, vm: Vm, slot: CpuSlot, thread: Thread, vm_id: int, vcpu_idx: int
    ) -> Generator:
        if vm_id not in self.vms:
            raise HypercallError(f"vcpu_run: unknown VM id {vm_id}")
        target = self.vms[vm_id]
        if target.is_primary:
            raise HypercallError("vcpu_run cannot target the primary VM")
        if not 0 <= vcpu_idx < len(target.vcpus):
            raise HypercallError(f"vcpu_run: {target.name} has no VCPU {vcpu_idx}")
        vcpu = target.vcpus[vcpu_idx]
        core = slot.core
        if core is None:
            raise SimulationError("vcpu_run without a resident core")
        if vcpu.state == VcpuState.RUNNING:
            raise HypercallError(
                f"VCPU {target.name}#{vcpu_idx} is already running elsewhere"
            )
        entry_cost, exit_cost = self._switch[vm_id]
        guest_regime = self._regime[vm_id]
        primary_regime = self._regime[PRIMARY_VM_ID]
        while True:
            if target.halt_requested or vcpu.state == VcpuState.HALTED:
                vcpu.state = VcpuState.HALTED
                vcpu.exits["halt"] += 1
                return {"reason": "halt"}
            if target.aborted or vcpu.state == VcpuState.ABORTED:
                return {"reason": "abort"}
            # --- world/VM switch in -------------------------------------
            self.stats["vcpu_runs"] += 1
            vcpu.runs += 1
            yield entry_cost
            core.env.pollute("vm_switch")
            vcpu.state = VcpuState.RUNNING
            vcpu.resident_core = core
            vcpu.slot.core = core
            self._vtimer_owner[core.core_id] = vcpu
            core.set_context(
                ExceptionLevel.EL1,
                SecurityWorld.SECURE if target.secure else SecurityWorld.NONSECURE,
                guest_regime,
            )
            exit_exc: Optional[VmExit] = None
            try:
                yield from target.kernel._schedule_loop(vcpu.slot)
                exit_exc = VmExitHalt("guest loop ended")
            except VmExit as exc:
                exit_exc = exc
            except Interrupted:
                # A physical interrupt landed in an SPM frame (e.g. during
                # entry/exit accounting): treat as an interrupt exit.
                exit_exc = VmExitIntr("in-hypervisor")
            # --- world/VM switch out -------------------------------------
            vcpu.state = VcpuState.READY
            vcpu.resident_core = None
            yield exit_cost
            core.env.pollute("vm_switch")
            core.set_context(ExceptionLevel.EL1, SecurityWorld.NONSECURE, primary_regime)
            # --- classify ------------------------------------------------
            if isinstance(exit_exc, VmExitIntr):
                handled = yield from self._try_internal_irq(core, vcpu)
                if handled:
                    self.stats["internal_virq_handled"] += 1
                    continue  # re-enter the guest without bothering the primary
                vcpu.exits["interrupt"] += 1
                self.stats["exits_to_primary"] += 1
                return {"reason": "interrupt"}
            if isinstance(exit_exc, VmExitWfi):
                # Work may have arrived during the exit accounting itself.
                if vcpu.vgic.next_deliverable() is not None or vcpu.slot.runqueue:
                    continue
                vcpu.state = VcpuState.WFI
                vcpu.exits["wfi"] += 1
                return {
                    "reason": "wfi",
                    "wake_signal": vcpu.wake_signal,
                    "ready": (lambda v=vcpu: v.state != VcpuState.WFI),
                }
            if isinstance(exit_exc, VmExitYield):
                vcpu.exits["yield"] += 1
                return {"reason": "yield"}
            if isinstance(exit_exc, VmExitHalt):
                vcpu.state = VcpuState.HALTED
                vcpu.exits["halt"] += 1
                return {"reason": "halt"}
            if isinstance(exit_exc, VmExitAbort):
                self.stats["aborts"] += 1
                vcpu.state = VcpuState.ABORTED
                target.aborted = True
                vcpu.exits["abort"] += 1
                self.machine.trace(
                    "spm.abort", "spm", vm=target.name, vcpu=vcpu_idx,
                    detail=repr(exit_exc.detail),
                )
                if self.watchdog is not None:
                    self.watchdog.vm_aborted(target.vm_id, repr(exit_exc.detail))
                return {"reason": "abort", "detail": exit_exc.detail}
            raise SimulationError(f"unclassified VM exit {exit_exc!r}")

    def _switch_waits(self, vm: Vm) -> Tuple[Timeout, Timeout]:
        """The VM's (entry, exit) waits; a secure VM adds the EL3 world
        switch to each."""
        perf = self.machine.perf
        world = perf.event_cost("world_switch") if vm.secure else 0
        return (
            Timeout(perf.event_cost("vm_entry") + world),
            Timeout(perf.event_cost("vm_exit") + world),
        )

    def _try_internal_irq(self, core: Core, vcpu: Vcpu) -> Generator:
        """Handle guest-owned interrupts entirely at EL2.

        Returns True when the pending interrupt was the current guest's
        own virtual timer (or a device IRQ routed to this guest): the SPM
        acks it, queues the virtual interrupt, and the caller re-enters
        the guest. Anything else stays pending for the primary.
        """
        iface = core.cpu_iface
        irq = iface.peek()
        if irq is None:
            core.take_doorbell()
            return False
        if irq == PPI_VIRT_TIMER:
            ours, cost = self._vtimer_owner.get(core.core_id) is vcpu, self._vtimer_claim
        else:
            ours, cost = self.device_irq_to_vm.get(irq) is vcpu.vm, self._device_claim
        if not ours:
            return False
        yield cost
        iface.ack()
        if irq == PPI_VIRT_TIMER:
            core.timer["virt"].stop()  # deassert; the guest re-arms its tick
        iface.eoi(irq)
        core.take_doorbell()
        vcpu.vgic.inject(irq)
        return True

    # ------------------------------------------------------------------
    # Asynchronous notifications (from host kernels / guest kernels)
    # ------------------------------------------------------------------

    def vcpu_work_available(self, vm_id: int, vcpu_idx: int) -> None:
        """A guest CPU slot acquired runnable work (wake its VCPU thread)."""
        vm = self.vms.get(vm_id)
        if vm is None or vm.is_primary:
            return
        vcpu = vm.vcpus[vcpu_idx]
        if vcpu.state == VcpuState.WFI:
            vcpu.state = VcpuState.READY
        vcpu.wake_signal.fire("work")

    def vtimer_fired(self, core: Core) -> None:
        """The virtual timer of a (currently off-core) guest fired; inject
        it para-virtually and wake the VCPU's kernel thread."""
        vcpu = self._vtimer_owner.get(core.core_id)
        core.timer["virt"].stop()
        if vcpu is None:
            return
        vcpu.vgic.inject(PPI_VIRT_TIMER)
        self.vcpu_work_available(vcpu.vm.vm_id, vcpu.idx)

    def deliver_device_irq(self, irq: int, direct: bool = False) -> bool:
        """Deliver a device interrupt to its owning VM. ``direct=False``
        is the interim design ('route all interrupts to the primary VM
        which is then responsible for forwarding any device IRQ on to the
        super-secondary'); ``direct=True`` accounts it to the EL2
        selective-routing path."""
        vm = self.device_irq_to_vm.get(irq)
        if vm is None or vm.is_primary:
            return False
        vm.vcpus[0].vgic.inject(irq)
        self.stats["direct_device_irqs" if direct else "forwarded_device_irqs"] += 1
        self.vcpu_work_available(vm.vm_id, 0)
        return True

    def device_irq_owner(self, irq: int) -> Optional[Vm]:
        vm = self.device_irq_to_vm.get(irq)
        return None if vm is None or vm.is_primary else vm

    def assign_device_irq(self, irq: int, vm_name: str) -> None:
        """Late-bind a device SPI to a VM (experiment/driver hook)."""
        vm = self.vm_by_name(vm_name)
        self.device_irq_to_vm[irq] = vm
        if not vm.is_primary:
            # Models the owner's driver registering its handler: the
            # virtual IRQ becomes deliverable on the VM's boot VCPU.
            vm.vcpus[0].vgic.enable(irq)

    def set_irq_routing(self, mode: str) -> None:
        """Select the interim ("forwarded") or future ("direct")
        device-IRQ routing design (paper Section III-b)."""
        if mode not in ("forwarded", "direct"):
            raise ConfigurationError(f"unknown IRQ routing mode {mode!r}")
        self.irq_routing_mode = mode

    def el2_claim_device_irqs(self, core: Core) -> Generator:
        """Selective routing: before the primary's IRQ handler runs, the
        SPM (at EL2) acknowledges pending device interrupts owned by
        other VMs and injects them para-virtually — "timer interrupts are
        delivered to the primary VM, while device IRQs are instead routed
        to the super-secondary". The kernel's IRQ path enters it only in
        "direct" routing mode."""
        iface = core.cpu_iface
        while True:
            irq = iface.peek()
            owner = self.device_irq_owner(irq) if irq is not None else None
            if owner is None:
                return
            yield self._direct_claim
            iface.ack()
            iface.eoi(irq)
            self.machine.trace("spm.direct_irq", "spm", irq=irq, vm=owner.name)
            self.deliver_device_irq(irq, direct=True)
