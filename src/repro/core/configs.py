"""Builders for the paper's three evaluated configurations (Section V):

* ``native`` — benchmark on bare-metal Kitten (Figure 4 baseline);
* ``hafnium-kitten`` — benchmark in a Kitten secondary VM, **Kitten** as
  the primary scheduler VM (Figure 5; the paper's proposed system);
* ``hafnium-linux`` — benchmark in a Kitten secondary VM, **Linux** as the
  primary scheduler VM (Figure 6; Hafnium's default architecture).

Both Hafnium configurations can optionally host the paper's
super-secondary "Login VM" (Section III-b) running the Linux model with
the I/O devices assigned to it.

Hafnium fixes every partition in a boot-time manifest (Section VII), so
every Hafnium topology — these two, :func:`build_interference_node` and
``repro.faults.campaign.build_faults_node`` — is data: a partition list
(whose order sets VM ids and memory bases) plus a ``(vm, pinning)``
launch list, booted by the one assembler :func:`_boot_hafnium`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import RngHub
from repro.common.units import MiB, ms
from repro.core.node import Node
from repro.hafnium.manifest import Manifest, PartitionSpec, VmRole
from repro.hafnium.spm import Spm
from repro.hw.machine import Machine
from repro.hw.mmu import PAGE_4K
from repro.hw.perfmodel import CostParams
from repro.hw.soc import PINE_A64, SoCConfig
from repro.kernels.base import ROLE_NATIVE
from repro.kitten.control import ControlTask, JobSpec
from repro.kitten.kernel import KittenKernel
from repro.linuxk.driver import HafniumDriver
from repro.linuxk.kernel import LinuxKernel
from repro.linuxk.kthreads import BackgroundPopulation
from repro.tee.boot import BootChain
from repro.sim.trace import Tracer

ConfigName = str

CONFIG_NATIVE: ConfigName = "native"
CONFIG_HAFNIUM_KITTEN: ConfigName = "hafnium-kitten"
CONFIG_HAFNIUM_LINUX: ConfigName = "hafnium-linux"
ALL_CONFIGS = (CONFIG_NATIVE, CONFIG_HAFNIUM_KITTEN, CONFIG_HAFNIUM_LINUX)

#: Paper-style labels used in the reproduced tables (Figure 8/10 rows).
PAPER_LABELS = {
    CONFIG_NATIVE: "Native",
    CONFIG_HAFNIUM_KITTEN: "Kitten",
    CONFIG_HAFNIUM_LINUX: "Linux",
}

#: The primary scheduler VM of each evaluated Hafnium configuration.
HAFNIUM_SCHEDULERS = {CONFIG_HAFNIUM_KITTEN: "kitten", CONFIG_HAFNIUM_LINUX: "linux"}

COMPUTE_VM_NAME = "compute"
LOGIN_VM_NAME = "login"

#: Boot-time activity (control-task launches, first ticks) settles here.
SETTLE_PS = ms(50)

#: One VM launch: (partition name, physical core per VCPU).
Launch = Tuple[str, List[int]]


def _kitten_guest_kernel(mach, spec, role):
    return KittenKernel(mach, f"kitten-{spec.name}", role=role, num_cpus=spec.vcpus)


def _linux_login_kernel(mach, spec, role):
    # The login VM runs a deliberately slimmer Linux (no benchmark noise
    # relevance: it mostly idles awaiting interactive work).
    return LinuxKernel(mach, "linux-login", role=role, num_cpus=spec.vcpus)


def kitten_guest(name: str, vcpus: int, mem: int, **kw) -> PartitionSpec:
    """A Kitten secondary VM (kernel ``kitten-<name>``)."""
    return PartitionSpec(
        name, VmRole.SECONDARY, vcpus, mem, kernel_factory=_kitten_guest_kernel, **kw
    )


def linux_login(mem: int) -> PartitionSpec:
    """The paper's super-secondary login VM: one VCPU of slim Linux."""
    return PartitionSpec(
        LOGIN_VM_NAME, VmRole.SUPER_SECONDARY, 1, mem,
        kernel_factory=_linux_login_kernel, image=b"linux:super-secondary:login",
    )


def _machine(soc: SoCConfig, seed: int, trial: int, params: Optional[CostParams],
             engine=None) -> Machine:
    return Machine(
        soc,
        rng=RngHub(seed, trial=trial),
        tracer=Tracer(),
        params=params,
        engine=engine,
    )


def _boot_hafnium(
    machine: Machine,
    *,
    scheduler: str,
    primary_mem: int,
    primary_image: bytes,
    partitions: Sequence[PartitionSpec],
    launches: Sequence[Launch],
    config_name: str,
    workload_vm: str,
    stage2_block: int = PAGE_4K,
    primary_tick_hz: Optional[float] = None,
    noise_specs=None,
) -> Node:
    """Boot one Hafnium topology: boot chain → SPM over the manifest (the
    ``scheduler`` primary on every core, then ``partitions``) → primary
    boot → launches in order → 50 ms settle. The Kitten control task is
    handed only the ``SECONDARY`` launches (it auto-launches the
    super-secondary itself, Section IV-a); the Linux driver launches all."""
    if scheduler not in HAFNIUM_SCHEDULERS.values():
        raise ConfigurationError(f"unknown scheduler {scheduler!r}")
    primary_cls = KittenKernel if scheduler == "kitten" else LinuxKernel
    tick_kw = {} if primary_tick_hz is None else {"tick_hz": primary_tick_hz}

    def primary_kernel_factory(mach, spec, role):
        return primary_cls(
            mach, f"{scheduler}-primary", role=role, num_cpus=spec.vcpus, **tick_kw
        )

    boot = BootChain(machine)
    primary = PartitionSpec(
        "primary", VmRole.PRIMARY, machine.soc.num_cores, primary_mem,
        kernel_factory=primary_kernel_factory, image=primary_image,
    )
    spm = Spm(machine, Manifest([primary, *partitions]), stage2_block=stage2_block)
    # Secure partitions were registered by the SPM; lock happens in boot.
    boot.run()
    primary_kernel = spm.boot_primary()

    control_task = driver = None
    if scheduler == "kitten":
        control_task = ControlTask(primary_kernel, cpu=0)
        for name, pinning in launches:
            if spm.vm_by_name(name).role == VmRole.SECONDARY:
                control_task.submit(JobSpec("launch", name, vcpu_cpus=pinning))
    else:
        BackgroundPopulation(noise_specs).spawn(primary_kernel)
        driver = HafniumDriver(primary_kernel)
        for name, pinning in launches:
            driver.launch_vm(name, vcpu_cpus=pinning)
    node = Node(
        machine,
        boot_chain=boot,
        spm=spm,
        kernels={p.name: spm.vm_by_name(p.name).kernel for p in (primary, *partitions)},
        workload_kernel=spm.vm_by_name(workload_vm).kernel,
        config_name=config_name,
        control_task=control_task,
        driver=driver,
        vm_pinnings=dict(launches),
    )
    machine.engine.run_until(machine.engine.now + SETTLE_PS)
    return node


def build_native_node(
    *,
    soc: SoCConfig = PINE_A64,
    seed: int = 0xC0FFEE,
    trial: int = 0,
    params: Optional[CostParams] = None,
    engine=None,
) -> Node:
    """Bare-metal Kitten (the paper's baseline)."""
    machine = _machine(soc, seed, trial, params, engine=engine)
    boot = BootChain(machine)
    boot.run()
    kernel = KittenKernel(machine, "kitten-native", role=ROLE_NATIVE)
    kernel.boot_on_cores()
    return Node(
        machine,
        boot_chain=boot,
        kernels={"native": kernel},
        workload_kernel=kernel,
        config_name=CONFIG_NATIVE,
    )


def build_hafnium_node(
    *,
    scheduler: str,
    soc: SoCConfig = PINE_A64,
    seed: int = 0xC0FFEE,
    trial: int = 0,
    params: Optional[CostParams] = None,
    with_super_secondary: bool = False,
    secure_compute_vm: bool = False,
    stage2_block: int = PAGE_4K,
    primary_tick_hz: Optional[float] = None,
    noise_specs=None,
    engine=None,
) -> Node:
    """A Hafnium node with the chosen primary scheduler VM.

    scheduler="kitten" reproduces the paper's proposed system (the primary
    is Kitten, launched VMs managed by its control task); "linux"
    reproduces Hafnium's default architecture (CFS + background threads +
    the reference device driver). The 768 MiB compute VM is launched with
    1:1 VCPU->core pinning (the evaluation's placement).
    """
    pinning = list(range(soc.num_cores))
    partitions = [
        kitten_guest(COMPUTE_VM_NAME, soc.num_cores, 768 * MiB,
                     secure=secure_compute_vm, image=b"kitten:secondary:compute"),
    ]
    launches = [(COMPUTE_VM_NAME, pinning)]
    if with_super_secondary:
        # Manifest order sets memory bases: the login VM sits below compute.
        partitions.insert(0, linux_login(128 * MiB))
        launches.append((LOGIN_VM_NAME, [0]))
    return _boot_hafnium(
        _machine(soc, seed, trial, params, engine=engine),
        scheduler=scheduler,
        primary_mem=256 * MiB,
        primary_image=f"{scheduler}:primary".encode(),
        partitions=partitions,
        launches=launches,
        config_name=f"hafnium-{scheduler}",
        workload_vm=COMPUTE_VM_NAME,
        stage2_block=stage2_block,
        primary_tick_hz=primary_tick_hz,
        noise_specs=noise_specs,
    )


def build_interference_node(*, scheduler: str, seed: int = 0xC0FFEE) -> Node:
    """Two co-located secondary VMs sharing all cores (the paper's
    Section VII multi-workload scenario): both 512 MiB 'tenant-a' and
    'tenant-b' get one VCPU per physical core, so the primary's scheduler
    arbitrates between the workloads — the performance-isolation stress
    case."""
    pinning = list(range(PINE_A64.num_cores))
    return _boot_hafnium(
        _machine(PINE_A64, seed, 0, None),
        scheduler=scheduler,
        primary_mem=192 * MiB,
        primary_image=b"",
        partitions=[
            kitten_guest("tenant-a", PINE_A64.num_cores, 512 * MiB),
            kitten_guest("tenant-b", PINE_A64.num_cores, 512 * MiB),
        ],
        launches=[("tenant-a", pinning), ("tenant-b", pinning)],
        config_name=f"interference-{scheduler}",
        workload_vm="tenant-a",
    )


def build_node(config: ConfigName, **kwargs) -> Node:
    """Build any of the three evaluated configurations by name."""
    if config == CONFIG_NATIVE:
        if "with_super_secondary" in kwargs:
            raise ConfigurationError("with_super_secondary needs a Hafnium config")
        return build_native_node(**kwargs)
    if config in HAFNIUM_SCHEDULERS:
        return build_hafnium_node(scheduler=HAFNIUM_SCHEDULERS[config], **kwargs)
    raise ConfigurationError(f"unknown configuration {config!r}")
