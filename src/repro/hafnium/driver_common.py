"""The per-VCPU kernel-thread pattern shared by both primary kernels.

Hafnium's reference Linux driver "provides scheduling by creating a Linux
kernel thread for each VCPU belonging to a particular VM. Each kernel
thread holds a handle to a single VCPU context ... and so can direct
Hafnium to context switch to that VCPU instance via a dedicated
hypercall" (paper Section II-a). Kitten's port uses the identical pattern
(Section IV-a), so the thread body and the launcher that spawns one
thread per VCPU live here and both kernels' drivers call them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional

from repro.common.errors import SimulationError
from repro.kernels.thread import Hypercall, Thread, WaitEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernels.base import KernelBase


def vcpu_thread_body(vm_id: int, vcpu_idx: int) -> Generator:
    """Drive one VCPU: run it, react to VM exits, repeat.

    * ``interrupt`` / ``yield``: re-enter immediately — by the time the
      body resumes, the host loop has handled the physical interrupt and
      any rescheduling it caused.
    * ``wfi``: the guest CPU is idle; block until the SPM signals work.
    * ``halt`` / ``abort``: stop driving this VCPU.
    """
    while True:
        exit_info = yield Hypercall("vcpu_run", vm_id=vm_id, vcpu_idx=vcpu_idx)
        kind = exit_info["reason"]
        if kind in ("interrupt", "yield"):
            continue
        if kind == "wfi":
            yield WaitEvent(exit_info["wake_signal"], ready=exit_info.get("ready"))
            continue
        if kind in ("halt", "abort"):
            return exit_info
        raise SimulationError(f"vcpu{vcpu_idx}: unknown exit {kind!r}")


def spawn_vcpu_threads(
    kernel: "KernelBase",
    vm_name: str,
    vm_id: int,
    n_vcpus: int,
    vcpu_cpus: Optional[List[int]] = None,
) -> List[Thread]:
    """Create and spawn one kernel thread per VCPU of a VM. ``vcpu_cpus``
    pins VCPU ``i`` to physical core ``vcpu_cpus[i]``; by default "these
    VCPUs are spread across available CPU cores incrementally" (Section
    IV-a)."""
    threads = []
    for idx in range(n_vcpus):
        cpu = vcpu_cpus[idx] if vcpu_cpus is not None else idx % len(kernel.slots)
        thread = Thread(
            f"vcpu.{vm_name}.{idx}",
            vcpu_thread_body(vm_id, idx),
            cpu=cpu,
            priority=100,   # plain fair-class threads, like the real driver
            kind="vcpu",
        )
        kernel.spawn(thread)
        threads.append(thread)
    return threads
