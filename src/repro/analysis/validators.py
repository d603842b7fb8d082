"""Model-state validators: cross-cutting isolation invariants.

Each ``check_*`` function inspects live model objects and returns a list
of human-readable problem strings (empty = invariant holds). They are
pure inspections — safe to call at any simulation instant — and are the
runtime counterpart of the paper's isolation claims:

* **stage-2 exclusivity** — no physical page is mapped into two different
  VMs' stage-2 tables (Hafnium's memory-isolation guarantee);
* **GIC consistency** — no orphaned pending/active interrupts, pending
  and active sets disjoint, SPI routing targets valid;
* **vGIC consistency** — para-virtual queues deduplicated, no vIRQ both
  pending and active;
* **TrustZone worlds** — the TZASC is locked after boot, secure VMs live
  entirely inside secure memory, non-secure VMs never overlap it, and no
  core in the non-secure world runs on a secure VM's stage-2 table.

:func:`validate_node` aggregates everything for one built node and raises
:class:`SecurityViolation` listing every violated invariant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Tuple

from repro.common.errors import SecurityViolation
from repro.hw.gic import MAX_IRQ, Gic

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import Node
    from repro.hafnium.vm import Vm


def _stage2_pa_ranges(vm: "Vm") -> Iterable[Tuple[int, int]]:
    for _va, pa, size, _block_size, _attrs in vm.stage2.extents():
        yield (pa, pa + size)


def check_stage2_exclusive(vms: Iterable["Vm"]) -> List[str]:
    """No physical range may appear in two different VMs' stage-2 tables."""
    intervals: List[Tuple[int, int, str]] = []
    for vm in vms:
        for start, end in _coalesce(_stage2_pa_ranges(vm)):
            intervals.append((start, end, vm.name))
    intervals.sort()
    problems: List[str] = []
    for (s1, e1, n1), (s2, e2, n2) in zip(intervals, intervals[1:]):
        if s2 < e1 and n1 != n2:
            problems.append(
                f"stage-2 overlap: PA {s2:#x}-{min(e1, e2):#x} mapped into "
                f"both {n1!r} and {n2!r}"
            )
    return problems


def _coalesce(ranges: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge adjacent/overlapping (start, end) ranges."""
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(ranges):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def check_gic(gic: Gic) -> List[str]:
    """Distributor/CPU-interface consistency: nothing pending that can
    never be delivered, nothing both pending and active."""
    problems: List[str] = []
    for iface in gic.cpu_ifaces:
        overlap = iface.pending & iface.active
        if overlap:
            problems.append(
                f"core{iface.core_id}: IRQs {sorted(overlap)} both pending "
                "and active"
            )
        for irq in sorted(iface.pending | iface.active):
            if not 0 <= irq < MAX_IRQ:
                problems.append(f"core{iface.core_id}: IRQ {irq} out of range")
            elif irq not in gic.priority:
                problems.append(
                    f"core{iface.core_id}: orphaned IRQ {irq} "
                    "(pending/active but never configured)"
                )
    for irq, core in sorted(gic.spi_target.items()):
        if not 0 <= core < gic.num_cores:
            problems.append(f"SPI {irq} routed to invalid core {core}")
    return problems


def check_vgic(vms: Iterable["Vm"]) -> List[str]:
    """Para-virtual interrupt queues: deduplicated, active not pending."""
    problems: List[str] = []
    for vm in vms:
        for vcpu in vm.vcpus:
            pending = vcpu.vgic.pending
            if len(pending) != len(set(pending)):
                problems.append(
                    f"{vm.name}#vcpu{vcpu.idx}: duplicate pending vIRQs "
                    f"{pending}"
                )
            if vcpu.vgic.active is not None and vcpu.vgic.active in pending:
                problems.append(
                    f"{vm.name}#vcpu{vcpu.idx}: vIRQ {vcpu.vgic.active} both "
                    "active and pending"
                )
    return problems


def check_trustzone(node: "Node") -> List[str]:
    """World configuration: the secure/non-secure partition is coherent."""
    problems: List[str] = []
    machine = node.machine
    tz = machine.trustzone
    if node.spm is None:
        return problems
    vms = list(node.spm.vms.values())
    if any(vm.secure for vm in vms) and not tz.locked:
        problems.append("secure partitions exist but the TZASC is not locked")
    for vm in vms:
        base, size = vm.memory.base, vm.memory.size
        if vm.secure:
            if not tz.range_is_secure(base, size):
                problems.append(
                    f"secure VM {vm.name!r} memory {base:#x}+{size:#x} is not "
                    "entirely inside secure memory"
                )
        else:
            for s, e in tz.secure_ranges():
                if base < e and s < base + size:
                    problems.append(
                        f"non-secure VM {vm.name!r} memory {base:#x}+{size:#x} "
                        f"overlaps secure range {s:#x}-{e:#x}"
                    )
    # World transitions: a core in the non-secure world must not be running
    # on a secure VM's stage-2 table (the SPM performs the world switch on
    # vcpu_run entry/exit; a mismatch means a transition was skipped).
    secure_tables = {id(vm.stage2) for vm in vms if vm.secure}
    for core in machine.cores:
        regime = core.regime
        if regime is None or regime.stage2 is None:
            continue
        if core.world.value == "nonsecure" and id(regime.stage2) in secure_tables:
            problems.append(
                f"core{core.core_id} is in the non-secure world but runs on a "
                "secure VM's stage-2 table (missed world switch)"
            )
    return problems


def validate_node(node: "Node") -> int:
    """Run every validator; raises :class:`SecurityViolation` on failure.

    Returns the number of checks that ran (for reporting).
    """
    problems: List[str] = []
    checks = 0
    if node.spm is not None:
        vms = list(node.spm.vms.values())
        problems += check_stage2_exclusive(vms)
        problems += check_vgic(vms)
        checks += 2
    problems += check_gic(node.machine.gic)
    problems += check_trustzone(node)
    checks += 2
    if problems:
        raise SecurityViolation(
            "model invariant violations:\n  " + "\n  ".join(problems),
            subject=node.config_name,
            operation="validate_node",
        )
    return checks
