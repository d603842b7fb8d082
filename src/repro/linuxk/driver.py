"""The Hafnium Linux device driver model.

Paper Section II-a: "The Hafnium reference implementation provides a
Linux device driver that provides VM lifecycle management and a small set
of management operations", scheduling VMs by running one kernel thread
per VCPU. This module is that driver: a thin VM-lifecycle layer creating
CFS-scheduled VCPU threads.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.hafnium.driver_common import spawn_vcpu_threads
from repro.kernels.base import KernelBase
from repro.kernels.thread import Thread


class HafniumDriver:
    """`/dev/hafnium` equivalent inside the Linux primary."""

    def __init__(self, kernel: KernelBase):
        if kernel.spm is None:
            raise SimulationError("HafniumDriver requires a hypervisor connection")
        self.kernel = kernel
        self.vcpu_threads: Dict[str, List[Thread]] = {}

    def launch_vm(self, vm_name: str, vcpu_cpus: Optional[List[int]] = None) -> List[Thread]:
        """Create one kernel thread per VCPU and make them runnable."""
        vm = self.kernel.spm.vm_by_name(vm_name)
        threads = spawn_vcpu_threads(
            self.kernel, vm_name, vm.vm_id, len(vm.vcpus), vcpu_cpus
        )
        self.vcpu_threads[vm_name] = threads
        self.kernel.machine.trace(
            "driver.launch", self.kernel.name, vm=vm_name, vcpus=len(threads)
        )
        return threads
