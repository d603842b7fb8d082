"""Hafnium-like Secure Partition Manager (SPM).

This package models the hypervisor architecture the paper builds on
(Section II-a) plus the paper's extension to it (the super-secondary VM,
Sections III-b and IV-c):

* boot-time, manifest-defined partitions with per-VM stage-2 page tables,
* a **core-local** hypercall interface (no cross-core operations — the
  property that forces the primary VM's scheduler to run on every core),
* primary-VM-driven scheduling: Hafnium has no scheduler of its own; the
  primary's per-VCPU kernel threads invoke ``vcpu_run`` and receive VM
  exits,
* a para-virtual interrupt controller + dedicated virtual timer channel
  for secondary VMs,
* mailbox-based inter-VM messaging,
* optional TrustZone placement of secure VMs (world-switched on entry),
* the super-secondary: a semi-privileged VM owning the I/O devices but
  denied the scheduling hypercalls.
"""

from repro.common.errors import HypercallError
from repro.kernels.exits import (
    VmExit,
    VmExitIntr,
    VmExitWfi,
    VmExitYield,
    VmExitHalt,
    VmExitAbort,
    ExitReason,
)
from repro.hafnium.manifest import Manifest, PartitionSpec, VmRole
from repro.hafnium.vm import Vm, Vcpu, VcpuState
from repro.hafnium.mailbox import Mailbox, Message
from repro.hafnium.spm import Spm
from repro.hafnium.vgic import VgicCpu

__all__ = [
    "VmExit",
    "VmExitIntr",
    "VmExitWfi",
    "VmExitYield",
    "VmExitHalt",
    "VmExitAbort",
    "ExitReason",
    "Manifest",
    "PartitionSpec",
    "VmRole",
    "Vm",
    "Vcpu",
    "VcpuState",
    "Mailbox",
    "Message",
    "Spm",
    "HypercallError",
    "VgicCpu",
]
