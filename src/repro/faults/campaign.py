"""The resilience campaign behind ``repro faults``.

Sweeps fault scenarios across the paper's three configurations and
reports, per (config, scenario):

* **detection latency** — fault injection to watchdog declaration;
* **recovery time** — declaration to restart-with-jobs-resubmitted;
* **job survival rate** — fraction of submitted jobs that eventually
  completed (restarted jobs count: the job came back);
* **degradation** — whether the VM stayed down (tampered image, restart
  budget) while the rest of the node kept scheduling.

The Hafnium configurations run a dedicated two-tenant topology: a victim
VM pinned to cores 0-1 and a bystander VM pinned to cores 2-3 (plus the
login super-secondary). That disjoint pinning is what makes the
**containment check** meaningful: injecting a fault into the victim must
leave the bystander's per-VM trace digest bit-identical to a fault-free
baseline — the fault's effects never cross the partition boundary. (The
login VM shares core 0 with the primary's management plane, so recovery
work legitimately delays it; containment is asserted for the VM whose
cores the fault never touches.)

The native configuration runs the same job mix without a hypervisor: no
watchdog, no recovery, and a panic takes every job with it — the
isolation contrast the paper's architecture exists to fix.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, refuse_repeated
from repro.common.units import MiB, ms, to_us
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RecoveryManager
from repro.faults.watchdog import Watchdog
from repro.hafnium.spm import PRIMARY_VM_ID, Spm
from repro.kernels.phases import ComputePhase
from repro.kernels.thread import Thread

VICTIM_VM = "vma"
BYSTANDER_VM = "vmb"

#: Scenarios applicable per configuration class.
HAFNIUM_SCENARIOS = (
    "mem-bit-flip",
    "bus-error",
    "irq-drop",
    "irq-storm",
    "vcpu-stall",
    "vcpu-crash",
    "vm-panic",
    "mailbox-storm",
    "attestation-tamper",
)
NATIVE_SCENARIOS = (
    "mem-bit-flip",
    "bus-error",
    "irq-drop",
    "irq-storm",
    "vcpu-stall",
    "vm-panic",
)

#: Campaign timeline (relative to post-boot t0).
INJECT_DELAY_PS = ms(80)
HORIZON_PS = ms(2200)
#: Simulated compute per job (seconds) — long enough that the injection
#: lands mid-run, short enough that a restarted job finishes in-horizon.
JOB_COMPUTE_S = 0.25


def _job_body(name: str, ops: float, completed: Dict[str, int]):
    yield ComputePhase(ops)
    completed[name] = completed.get(name, 0) + 1
    return name


def build_faults_node(
    *,
    scheduler: str,
    seed: int = 0xC0FFEE,
    trial: int = 0,
    trace_categories=None,
):
    """The two-tenant resilience topology: primary on all cores, victim VM
    (2 VCPUs, cores 0-1), bystander VM (2 VCPUs, cores 2-3), and the login
    super-secondary (core 0)."""
    from repro.core.configs import build_node  # noqa: F401  (import cycle guard)
    from repro.core.node import Node
    from repro.hafnium.manifest import Manifest, PartitionSpec, VmRole
    from repro.hw.machine import Machine
    from repro.kitten.control import ControlTask, JobSpec
    from repro.kitten.kernel import KittenKernel
    from repro.linuxk.driver import HafniumDriver
    from repro.linuxk.kernel import LinuxKernel
    from repro.linuxk.kthreads import BackgroundPopulation
    from repro.common.rng import RngHub
    from repro.hw.soc import PINE_A64
    from repro.sim.trace import Tracer
    from repro.tee.boot import BootChain

    if scheduler not in ("kitten", "linux"):
        raise ConfigurationError(f"unknown scheduler {scheduler!r}")
    soc = PINE_A64
    machine = Machine(
        soc, rng=RngHub(seed, trial=trial), tracer=Tracer(trace_categories)
    )
    boot = BootChain(machine)

    def kitten_guest_factory(mach, spec, role):
        return KittenKernel(mach, f"kitten-{spec.name}", role=role, num_cpus=spec.vcpus)

    def primary_factory(mach, spec, role):
        cls = KittenKernel if scheduler == "kitten" else LinuxKernel
        return cls(mach, f"{scheduler}-primary", role=role, num_cpus=spec.vcpus)

    def login_factory(mach, spec, role):
        return LinuxKernel(mach, "linux-login", role=role, num_cpus=spec.vcpus)

    manifest = Manifest(
        [
            PartitionSpec("primary", VmRole.PRIMARY, soc.num_cores, 192 * MiB,
                          kernel_factory=primary_factory,
                          image=b"primary:faults"),
            PartitionSpec("login", VmRole.SUPER_SECONDARY, 1, 96 * MiB,
                          kernel_factory=login_factory,
                          image=b"linux:super-secondary:login"),
            PartitionSpec(VICTIM_VM, VmRole.SECONDARY, 2, 128 * MiB,
                          kernel_factory=kitten_guest_factory,
                          image=b"kitten:secondary:vma"),
            PartitionSpec(BYSTANDER_VM, VmRole.SECONDARY, 2, 128 * MiB,
                          kernel_factory=kitten_guest_factory,
                          image=b"kitten:secondary:vmb"),
        ]
    )
    spm = Spm(machine, manifest)
    boot.run()
    primary_kernel = spm.boot_primary()
    victim_pinning = [0, 1]
    bystander_pinning = [2, 3]
    node = Node(
        machine,
        boot_chain=boot,
        spm=spm,
        kernels={
            "primary": primary_kernel,
            "login": spm.vm_by_name("login").kernel,
            VICTIM_VM: spm.vm_by_name(VICTIM_VM).kernel,
            BYSTANDER_VM: spm.vm_by_name(BYSTANDER_VM).kernel,
        },
        workload_kernel=spm.vm_by_name(VICTIM_VM).kernel,
        config_name=f"faults-{scheduler}",
    )
    if scheduler == "kitten":
        control = ControlTask(primary_kernel, cpu=0)
        control.submit(JobSpec("launch", VICTIM_VM, vcpu_cpus=victim_pinning))
        control.submit(JobSpec("launch", BYSTANDER_VM, vcpu_cpus=bystander_pinning))
        node.control_task = control
    else:
        BackgroundPopulation().spawn(primary_kernel)
        driver = HafniumDriver(primary_kernel)
        driver.launch_vm("login", vcpu_cpus=[0])
        driver.launch_vm(VICTIM_VM, vcpu_cpus=victim_pinning)
        driver.launch_vm(BYSTANDER_VM, vcpu_cpus=bystander_pinning)
        node.driver = driver
    node.vm_pinnings = {
        "login": [0],
        VICTIM_VM: victim_pinning,
        BYSTANDER_VM: bystander_pinning,
    }
    machine.engine.run_until(machine.engine.now + 50_000_000_000)  # settle 50 ms
    return node


def per_vm_digest(node, kernel_name: str) -> str:
    """SHA-256 over the trace records attributable to one VM's kernel
    (subjects ``<kernel_name>`` and ``<kernel_name>.*``) — the per-VM
    event trace the containment check compares."""
    from repro.sim.trace import record_bytes

    h = hashlib.sha256()
    dot_prefix = kernel_name + "."
    h.update(
        b"".join(
            record_bytes(r) + b"\x1e"
            for r in node.machine.tracer.records
            if r.subject == kernel_name or r.subject.startswith(dot_prefix)
        )
    )
    return h.hexdigest()


def _full_digest(node) -> str:
    from repro.analysis.determinism import trace_digest

    return trace_digest(node)


def _spawn_jobs(
    node,
    recovery: Optional[RecoveryManager],
    completed: Dict[str, int],
    job_compute_s: float = JOB_COMPUTE_S,
) -> List[str]:
    """One compute job per VCPU per tenant VM (or per core natively).
    Registers the victim/bystander templates with the recovery manager so
    restarts resubmit them."""
    soc = node.machine.soc
    ops = job_compute_s * soc.ipc * soc.freq_hz
    submitted: List[str] = []
    if node.spm is None:
        kernel = node.workload_kernel
        for cpu in range(len(kernel.slots)):
            name = f"job.native.{cpu}"
            kernel.spawn(
                Thread(name, _job_body(name, ops, completed), cpu=cpu, aspace="faults")
            )
            submitted.append(name)
        return submitted
    for vm_name in (VICTIM_VM, BYSTANDER_VM):
        kernel = node.kernels[vm_name]
        templates: List[Tuple[str, Callable, int]] = []
        for cpu in range(len(kernel.slots)):
            name = f"job.{vm_name}.{cpu}"
            factory = (
                lambda n=name, o=ops: _job_body(n, o, completed)
            )
            kernel.spawn(Thread(name, factory(), cpu=cpu, aspace="faults"))
            templates.append((name, factory, cpu))
            submitted.append(name)
        if recovery is not None:
            recovery.register_jobs(vm_name, templates)
    return submitted


def _attach_resilience(node) -> Tuple[Optional[Watchdog], Optional[RecoveryManager]]:
    if node.spm is None:
        return None, None
    watchdog = Watchdog(node.spm)
    watchdog.start()
    recovery = RecoveryManager(node, watchdog)
    for vm_name, pinning in sorted(getattr(node, "vm_pinnings", {}).items()):
        recovery.set_pinning(vm_name, pinning)
    return watchdog, recovery


def _build_for(config: str, seed: int, trial: int = 0):
    from repro.core.configs import (
        CONFIG_HAFNIUM_KITTEN,
        CONFIG_HAFNIUM_LINUX,
        CONFIG_NATIVE,
        build_native_node,
    )

    if config == CONFIG_NATIVE:
        return build_native_node(seed=seed, trial=trial)
    if config == CONFIG_HAFNIUM_KITTEN:
        return build_faults_node(scheduler="kitten", seed=seed, trial=trial)
    if config == CONFIG_HAFNIUM_LINUX:
        return build_faults_node(scheduler="linux", seed=seed, trial=trial)
    raise ConfigurationError(f"unknown configuration {config!r}")


def scenarios_for(config: str) -> Tuple[str, ...]:
    return NATIVE_SCENARIOS if config == "native" else HAFNIUM_SCENARIOS


def run_scenario(
    config: str,
    scenario: str,
    *,
    seed: int = 0xC0FFEE,
    trial: int = 0,
    inject_delay_ps: int = INJECT_DELAY_PS,
    horizon_ps: int = HORIZON_PS,
    job_compute_s: Optional[float] = None,
) -> Dict[str, Any]:
    """One (config, scenario) resilience run; returns the metrics dict."""
    if scenario not in scenarios_for(config):
        raise ConfigurationError(
            f"scenario {scenario!r} is not applicable to config {config!r}"
        )
    node = _build_for(config, seed, trial)
    engine = node.machine.engine
    t0 = engine.now
    watchdog, recovery = _attach_resilience(node)
    completed: Dict[str, int] = {}
    submitted = _spawn_jobs(
        node, recovery, completed,
        JOB_COMPUTE_S if job_compute_s is None else job_compute_s,
    )
    target = VICTIM_VM if node.spm is not None else "native"
    inject_at = t0 + inject_delay_ps
    plan = FaultPlan.scenario(scenario, target, inject_at)
    injector = FaultInjector(node, plan)
    injector.arm()
    engine.run_until(t0 + horizon_ps)
    if watchdog is not None:
        watchdog.stop()

    victim_failures = (
        [f for f in watchdog.failures if f.vm_name == target]
        if watchdog is not None
        else []
    )
    detection_latency_ps = (
        victim_failures[0].detected_at_ps - inject_at if victim_failures else None
    )
    restart_events = (
        [e for e in recovery.events if e["vm"] == target and e["action"] == "restart"]
        if recovery is not None
        else []
    )
    recovery_time_ps = (
        restart_events[0]["recovery_time_ps"] if restart_events else None
    )
    jobs_done = sum(1 for name in submitted if completed.get(name))
    busy = (
        node.spm.mailboxes[PRIMARY_VM_ID].busy_rejections
        if node.spm is not None
        else 0
    )
    return {
        "config": config,
        "scenario": scenario,
        "seed": seed,
        "faults_injected": len(injector.injections),
        "injections": injector.injections,
        "detected": bool(victim_failures),
        "detection_latency_us": (
            to_us(detection_latency_ps) if detection_latency_ps is not None else None
        ),
        "recovery_time_us": (
            to_us(recovery_time_ps) if recovery_time_ps is not None else None
        ),
        "restarts": len(restart_events),
        "degraded": (
            target in recovery.degraded if recovery is not None else False
        ),
        "jobs_total": len(submitted),
        "jobs_completed": jobs_done,
        "job_survival_rate": (jobs_done / len(submitted)) if submitted else 1.0,
        "mailbox_busy_rejections": busy,
        "irq_drops": sum(node.machine.gic.dropped.values()),
        "end_ps": engine.now,
        "digest": _full_digest(node),
    }


def run_containment(
    config: str,
    *,
    seed: int = 0xC0FFEE,
    trial: int = 0,
    scenario: str = "vm-panic",
    inject_delay_ps: int = INJECT_DELAY_PS,
    horizon_ps: int = HORIZON_PS,
) -> Dict[str, Any]:
    """Fault-vs-baseline differential run: the bystander VM's per-VM trace
    digest must be bit-identical with and without the victim's fault."""
    if config == "native":
        raise ConfigurationError("containment check needs a Hafnium config")

    def one_run(with_fault: bool) -> Dict[str, Any]:
        node = _build_for(config, seed, trial)
        engine = node.machine.engine
        t0 = engine.now
        watchdog, recovery = _attach_resilience(node)
        completed: Dict[str, int] = {}
        _spawn_jobs(node, recovery, completed)
        if with_fault:
            injector = FaultInjector(
                node, FaultPlan.scenario(scenario, VICTIM_VM, t0 + inject_delay_ps)
            )
            injector.arm()
        engine.run_until(t0 + horizon_ps)
        if watchdog is not None:
            watchdog.stop()
        return {
            "victim": per_vm_digest(node, f"kitten-{VICTIM_VM}"),
            "bystander": per_vm_digest(node, f"kitten-{BYSTANDER_VM}"),
            "completed": dict(sorted(completed.items())),
        }

    baseline = one_run(False)
    faulted = one_run(True)
    return {
        "config": config,
        "scenario": scenario,
        "contained": baseline["bystander"] == faulted["bystander"],
        "victim_trace_changed": baseline["victim"] != faulted["victim"],
        # The paper's claim is about the Kitten primary: its compositional
        # scheduling has no cross-VM state, so a victim fault must leave
        # the bystander's trace bit-identical. The Linux primary's CFS
        # couples tenants through global nr_running (sched_latency /
        # nr_running quantum scaling), so recovery activity on the
        # victim's cores may lawfully shift bystander timing — there,
        # `contained` is a measurement, not an invariant.
        "strict_isolation_expected": config == "hafnium-kitten",
        "bystander_digest": faulted["bystander"],
        "baseline": baseline,
        "faulted": faulted,
    }


def run_resilience(
    *,
    seed: int = 0xC0FFEE,
    trial: int = 0,
    configs: Optional[List[str]] = None,
    scenarios: Optional[List[str]] = None,
    with_containment: bool = True,
    jobs: int = 1,
) -> Dict[str, Any]:
    """The full campaign: configs x applicable scenarios + containment.

    Every (config, scenario) cell builds its own node from (seed, trial)
    and runs as one job through :class:`~repro.exec.ParallelRunner`
    (in-process at ``jobs=1``, over a worker pool otherwise), merged by
    job id, so the report is bit-identical at any ``jobs``. A name
    repeated in ``configs`` or ``scenarios`` is refused up front: its
    cells would collide in the report.
    """
    from repro.core.configs import ALL_CONFIGS
    from repro.exec import ParallelRunner, SimJob

    chosen_configs = list(configs) if configs else list(ALL_CONFIGS)
    for config in chosen_configs:
        if config not in ALL_CONFIGS:
            raise ConfigurationError(
                f"unknown configuration {config!r} "
                f"(choose from {', '.join(ALL_CONFIGS)})"
            )
    for scenario in scenarios or ():
        if scenario not in HAFNIUM_SCENARIOS:
            raise ConfigurationError(
                f"scenario {scenario!r} is not applicable to any config "
                f"(known: {', '.join(HAFNIUM_SCENARIOS)})"
            )
    refuse_repeated("configuration", chosen_configs)
    refuse_repeated("scenario", scenarios or ())
    applicable_by_config = {
        config: [
            s for s in (scenarios or scenarios_for(config))
            if s in scenarios_for(config)
        ]
        for config in chosen_configs
    }
    containment_configs = (
        [c for c in chosen_configs if c != "native"] if with_containment else []
    )
    sim_jobs = [
        SimJob.make(
            "fault-scenario", config=config, scenario=scenario,
            seed=seed, trial=trial,
        )
        for config in chosen_configs
        for scenario in applicable_by_config[config]
    ] + [
        SimJob.make("containment", config=config, seed=seed, trial=trial)
        for config in containment_configs
    ]
    merged = iter(ParallelRunner(jobs).run_values(sim_jobs))
    # Dict displays evaluate in order: scenario cells, then containment.
    return {
        "seed": seed,
        "trial": trial,
        "configs": {
            config: {s: next(merged) for s in applicable_by_config[config]}
            for config in chosen_configs
        },
        "containment": {c: next(merged) for c in containment_configs},
    }


#: Fault kinds eligible for randomized campaigns: everything except
#: attestation-tamper, whose effect (refusing a restart) only manifests
#: through a *subsequent* fault and so reads as a no-op standalone draw.
RANDOMIZED_KINDS = tuple(k for k in HAFNIUM_SCENARIOS if k != "attestation-tamper")


def run_randomized(
    config: str,
    *,
    seed: int = 0xC0FFEE,
    trial: int = 0,
    count: int = 3,
    inject_delay_ps: int = INJECT_DELAY_PS,
    window_ps: int = ms(400),
    horizon_ps: int = HORIZON_PS,
    kinds: Optional[List[str]] = None,
    targets: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """One randomized multi-fault run: ``count`` faults drawn from the
    node's dedicated ``faults.plan`` RNG stream, uniform over the
    injection window, with kinds and targets chosen per draw.

    Same (config, seed, trial) → same plan → same trace; the randomness
    is *inside* the deterministic replay boundary.
    """
    node = _build_for(config, seed, trial)
    engine = node.machine.engine
    t0 = engine.now
    watchdog, recovery = _attach_resilience(node)
    completed: Dict[str, int] = {}
    submitted = _spawn_jobs(node, recovery, completed)
    if node.spm is not None:
        chosen_targets = list(targets or (VICTIM_VM, BYSTANDER_VM))
        chosen_kinds = list(kinds or RANDOMIZED_KINDS)
    else:
        chosen_targets = list(targets or ("native",))
        chosen_kinds = list(
            kinds or (k for k in NATIVE_SCENARIOS if k != "attestation-tamper")
        )
    plan = FaultPlan.randomized(
        node.machine.rng,
        chosen_kinds,
        chosen_targets,
        start_ps=t0 + inject_delay_ps,
        window_ps=window_ps,
        count=count,
    )
    injector = FaultInjector(node, plan)
    injector.arm()
    engine.run_until(t0 + horizon_ps)
    if watchdog is not None:
        watchdog.stop()

    detections = len(watchdog.failures) if watchdog is not None else 0
    restart_events = (
        [e for e in recovery.events if e["action"] == "restart"]
        if recovery is not None
        else []
    )
    jobs_done = sum(1 for name in submitted if completed.get(name))

    # MTTF / availability over the observation span [t0, horizon).
    # "Failure" means a *detected* VM failure (watchdog declaration);
    # downtime per failure runs detection -> recovery, and a degraded VM
    # stays down through the end of the horizon. Availability is averaged
    # over the tenant VMs the watchdog covers (victim + bystander).
    span_ps = engine.now - t0
    if watchdog is None:
        mttf_ms = None
        availability = None
        downtime_ms = None
    else:
        n_tenants = 2 if node.spm is not None else 1
        downtime_ps = sum(e["recovery_time_ps"] for e in restart_events)
        for e in recovery.events:
            if e["action"] == "degrade":
                downtime_ps += engine.now - e["degraded_at_ps"]
        mttf_ms = (
            round(span_ps / detections / 1e9, 3) if detections else None
        )
        availability = round(
            max(0.0, 1.0 - downtime_ps / (n_tenants * span_ps)), 6
        )
        downtime_ms = round(downtime_ps / 1e9, 3)

    return {
        "config": config,
        "seed": seed,
        "trial": trial,
        "plan": plan.describe(),
        "faults_injected": len(injector.injections),
        "detections": detections,
        "restarts": len(restart_events),
        "degraded": sorted(recovery.degraded) if recovery is not None else [],
        "jobs_total": len(submitted),
        "jobs_completed": jobs_done,
        "job_survival_rate": (jobs_done / len(submitted)) if submitted else 1.0,
        "span_ms": round(span_ps / 1e9, 3),
        "mttf_ms": mttf_ms,
        "downtime_ms": downtime_ms,
        "availability": availability,
        "end_ps": engine.now,
        "digest": _full_digest(node),
    }


def run_randomized_campaign(
    *,
    config: str = "hafnium-kitten",
    seed: int = 0xC0FFEE,
    campaigns: int = 3,
    count: int = 3,
    jobs: int = 1,
) -> Dict[str, Any]:
    """``campaigns`` randomized runs at root seeds ``seed, seed+1, ...``
    with per-seed results and aggregate survival statistics. Each seed is
    one ``randomized-faults`` job run through
    :class:`~repro.exec.ParallelRunner` (in-process at ``jobs=1``)."""
    if campaigns < 1:
        raise ConfigurationError("randomized campaign needs campaigns >= 1")
    from repro.exec import ParallelRunner, SimJob

    seeds = [seed + i for i in range(campaigns)]
    runs = ParallelRunner(jobs).run_values(
        SimJob.make("randomized-faults", config=config, seed=s, count=count)
        for s in seeds
    )
    survival = [r["job_survival_rate"] for r in runs]
    detections = sum(r["detections"] for r in runs)
    faults = sum(r["faults_injected"] for r in runs)
    # Pooled MTTF: total observed time over total detected failures —
    # the per-run estimator is undefined for zero-failure runs, pooling
    # uses their observation time anyway.
    span_total_ms = sum(r["span_ms"] for r in runs if r["span_ms"] is not None)
    availabilities = [
        r["availability"] for r in runs if r["availability"] is not None
    ]
    downtime_total_ms = sum(
        r["downtime_ms"] for r in runs if r["downtime_ms"] is not None
    )
    return {
        "config": config,
        "seed": seed,
        "campaigns": campaigns,
        "faults_per_run": count,
        "runs": {str(s): r for s, r in zip(seeds, runs)},
        "aggregate": {
            "survival_mean": sum(survival) / len(survival),
            "survival_min": min(survival),
            "survival_max": max(survival),
            "faults_injected": faults,
            "detections": detections,
            "detection_rate": (detections / faults) if faults else 0.0,
            "restarts": sum(r["restarts"] for r in runs),
            "mttf_ms": (
                round(span_total_ms / detections, 3) if detections else None
            ),
            "downtime_ms": round(downtime_total_ms, 3),
            "availability_mean": (
                round(sum(availabilities) / len(availabilities), 6)
                if availabilities
                else None
            ),
            "availability_min": (
                round(min(availabilities), 6) if availabilities else None
            ),
        },
    }


def run_smoke(seed: int = 0xC0FFEE) -> Dict[str, Any]:
    """A small, fast, digest-stable scenario for CI and the determinism
    sweep: vm-panic on the kitten config with a shortened timeline."""
    result = run_scenario(
        "hafnium-kitten",
        "vm-panic",
        seed=seed,
        inject_delay_ps=ms(20),
        horizon_ps=ms(700),
        job_compute_s=0.04,
    )
    return {
        "config": result["config"],
        "scenario": result["scenario"],
        "seed": seed,
        "detected": result["detected"],
        "restarts": result["restarts"],
        "job_survival_rate": result["job_survival_rate"],
        "digest": result["digest"],
    }
