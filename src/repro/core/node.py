"""One fully-wired simulated node."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.common.errors import SimulationError
from repro.common.units import seconds
from repro.hafnium.spm import Spm
from repro.hw.machine import Machine
from repro.kernels.base import KernelBase
from repro.kernels.thread import Thread, ThreadState
from repro.tee.boot import BootChain

if TYPE_CHECKING:  # pragma: no cover
    from repro.kitten.control import ControlTask
    from repro.linuxk.driver import HafniumDriver

#: Simulated time :func:`run_until_done` advances between completion checks.
RUN_SLICE_PS = seconds(0.05)


class Node:
    """A booted node: machine + (optional) SPM + kernels.

    ``workload_kernel`` is wherever benchmarks run: the native kernel in
    the baseline configuration, the secondary-VM guest kernel under
    Hafnium.

    The primary's management plane is ``control_task`` (a Kitten primary)
    or ``driver`` (a Linux primary); ``vm_pinnings`` maps each launched VM
    to its physical core per VCPU. All three stay unset on native nodes.
    """

    def __init__(
        self,
        machine: Machine,
        *,
        boot_chain: Optional[BootChain] = None,
        spm: Optional[Spm] = None,
        kernels: Optional[Dict[str, KernelBase]] = None,
        workload_kernel: Optional[KernelBase] = None,
        config_name: str = "unknown",
        control_task: Optional["ControlTask"] = None,
        driver: Optional["HafniumDriver"] = None,
        vm_pinnings: Optional[Dict[str, List[int]]] = None,
    ):
        self.machine = machine
        self.boot_chain = boot_chain
        self.spm = spm
        self.kernels = kernels or {}
        self.workload_kernel = workload_kernel
        self.config_name = config_name
        self.control_task = control_task
        self.driver = driver
        self.vm_pinnings = vm_pinnings or {}

    @property
    def engine(self):
        return self.machine.engine

    def vcpu_threads(self, vm_name: str) -> Optional[List[Thread]]:
        """The primary's VCPU threads for ``vm_name``; None when the node
        has no management plane or never launched that VM."""
        plane = self.control_task if self.control_task is not None else self.driver
        return None if plane is None else plane.vcpu_threads.get(vm_name)

    def spawn_workload_threads(self, threads: List[Thread]) -> List[Thread]:
        if self.workload_kernel is None:
            raise SimulationError("node has no workload kernel")
        for t in threads:
            self.workload_kernel.spawn(t)
        return threads

    def __repr__(self) -> str:  # pragma: no cover
        return f"Node({self.config_name}, kernels={sorted(self.kernels)})"


def run_until_done(
    node: Node,
    threads: List[Thread],
    *,
    max_seconds: float = 120.0,
) -> int:
    """Advance simulated time until every thread in `threads` is dead.

    Returns the finishing timestamp (ps). Raises if the budget expires —
    which in practice means a deadlock in the modeled system, so the error
    names the stuck threads.
    """
    engine = node.engine
    deadline = engine.now + seconds(max_seconds)
    step = RUN_SLICE_PS
    while engine.now < deadline:
        if all(t.state == ThreadState.DEAD for t in threads):
            return engine.now
        engine.run_until(min(deadline, engine.now + step))
    stuck = [t.name for t in threads if t.state != ThreadState.DEAD]
    if stuck:
        raise SimulationError(
            f"workload did not finish within {max_seconds}s simulated: "
            f"stuck threads {stuck}"
        )
    return engine.now
