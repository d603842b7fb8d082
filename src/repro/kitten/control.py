"""Kitten's user-space control task and VCPU kernel threads.

Paper Section IV-a: when Kitten boots as the primary VM it runs a control
task that queries Hafnium for the resource partitions and available VM
images, immediately launches the super-secondary (to bring up the user
environment and I/O), and then launches/terminates secondary VMs on
demand. Launching a VM creates one kernel thread per VCPU ("the same
approach as the Linux implementation"); each kernel thread holds a handle
to one VCPU context and directs Hafnium to context switch to it via a
dedicated hypercall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from repro.common.errors import SimulationError
from repro.hafnium.driver_common import spawn_vcpu_threads
from repro.kernels.base import KernelBase
from repro.kernels.thread import Hypercall, Thread, WaitEvent
from repro.sim.engine import Signal


@dataclass
class JobSpec:
    """A job-control command for the control task."""

    action: str              # "launch" | "stop"
    vm_name: str
    vcpu_cpus: Optional[List[int]] = None  # physical core per VCPU (pinning)
    done: Optional[Signal] = None
    result: dict = field(default_factory=dict)


class ControlTask:
    """The VM-management control process running in the primary Kitten."""

    def __init__(self, kernel: KernelBase, cpu: int = 0, priority: int = 50):
        if kernel.spm is None:
            raise SimulationError("control task requires a hypervisor connection")
        self.kernel = kernel
        self.commands: List[JobSpec] = []
        self.command_signal = Signal(kernel.machine.engine, "control.cmd")
        self.vcpu_threads: dict = {}  # vm_name -> [Thread]
        self.launched: List[str] = []
        self.thread = Thread(
            f"{kernel.name}.control",
            self._body(),
            cpu=cpu,
            priority=priority,
            kind="user",
        )
        kernel.spawn(self.thread)

    # -- external API (the "secure communication channel" endpoint) ----------

    def submit(self, job: JobSpec) -> None:
        """Queue a job-control command (from the super-secondary's channel
        or from the experiment driver)."""
        self.commands.append(job)
        self.command_signal.fire(job)

    # -- task body ---------------------------------------------------------------

    def _body(self) -> Generator:
        kernel = self.kernel
        # Boot-time behaviour: enumerate partitions, auto-launch the
        # super-secondary if one is configured (paper Section IV-a).
        info = yield Hypercall("vm_list")
        for vm_info in info["vms"]:
            if vm_info["role"] == "super-secondary":
                yield from self._launch(vm_info["name"], None)
        while True:
            if not self.commands:
                yield WaitEvent(self.command_signal)
                continue
            job = self.commands.pop(0)
            if job.action == "launch":
                yield from self._launch(job.vm_name, job.vcpu_cpus)
                job.result["ok"] = True
            elif job.action == "stop":
                yield Hypercall("vm_stop", vm_name=job.vm_name)
                job.result["ok"] = True
            else:
                job.result["ok"] = False
                job.result["error"] = f"unknown action {job.action!r}"
            if job.done is not None:
                job.done.fire(job)

    def _launch(self, vm_name: str, vcpu_cpus: Optional[List[int]]) -> Generator:
        info = yield Hypercall("vm_info", vm_name=vm_name)
        n_vcpus = info["vcpus"]
        self.vcpu_threads[vm_name] = spawn_vcpu_threads(
            self.kernel, vm_name, info["vm_id"], n_vcpus, vcpu_cpus
        )
        self.launched.append(vm_name)
        self.kernel.machine.trace(
            "control.launch", self.kernel.name, vm=vm_name, vcpus=n_vcpus
        )
