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
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.determinism import trace_digest
from repro.common.errors import ConfigurationError, refuse_repeated
from repro.common.units import MiB, ms, to_us
from repro.core.configs import (
    ALL_CONFIGS,
    CONFIG_HAFNIUM_KITTEN,
    CONFIG_NATIVE,
    HAFNIUM_SCHEDULERS,
    LOGIN_VM_NAME,
    _boot_hafnium,
    _machine,
    build_native_node,
    build_node,
    kitten_guest,
    linux_login,
)
from repro.core.node import Node
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RecoveryManager
from repro.faults.watchdog import FailureRecord, Watchdog
from repro.hafnium.spm import PRIMARY_VM_ID
from repro.hw.soc import PINE_A64
from repro.kernels.phases import ComputePhase
from repro.kernels.thread import Thread

VICTIM_VM = "vma"
BYSTANDER_VM = "vmb"

#: Scenarios applicable per configuration class. Bare metal has no VCPU
#: threads, no mailboxes and no post-boot image re-verification.
HAFNIUM_SCENARIOS = (
    "mem-bit-flip", "bus-error", "irq-drop", "irq-storm", "vcpu-stall",
    "vcpu-crash", "vm-panic", "mailbox-storm", "attestation-tamper",
)
NATIVE_SCENARIOS = tuple(
    k for k in HAFNIUM_SCENARIOS
    if k not in ("vcpu-crash", "mailbox-storm", "attestation-tamper")
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
) -> Node:
    """The two-tenant resilience topology: primary on all cores, victim VM
    (2 VCPUs, cores 0-1), bystander VM (2 VCPUs, cores 2-3), and the login
    super-secondary (core 0)."""
    return _boot_hafnium(
        _machine(PINE_A64, seed, trial, None),
        scheduler=scheduler,
        primary_mem=192 * MiB,
        primary_image=b"primary:faults",
        partitions=[
            linux_login(96 * MiB),
            kitten_guest(VICTIM_VM, 2, 128 * MiB, image=b"kitten:secondary:vma"),
            kitten_guest(BYSTANDER_VM, 2, 128 * MiB, image=b"kitten:secondary:vmb"),
        ],
        launches=[(LOGIN_VM_NAME, [0]), (VICTIM_VM, [0, 1]), (BYSTANDER_VM, [2, 3])],
        config_name=f"faults-{scheduler}",
        workload_vm=VICTIM_VM,
    )


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


def _spawn_jobs(
    node: Node,
    recovery: Optional[RecoveryManager],
    completed: Dict[str, int],
    job_compute_s: float,
) -> List[str]:
    """One compute job per VCPU per tenant VM (or per core natively).
    Registers the victim/bystander templates with the recovery manager so
    restarts resubmit them."""
    soc = node.machine.soc
    ops = job_compute_s * soc.ipc * soc.freq_hz
    submitted: List[str] = []
    for vm_name in (VICTIM_VM, BYSTANDER_VM) if node.spm is not None else ("native",):
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


@dataclass
class _FaultedRun:
    """One finished faulted run: the node and everything attached to it.
    Native runs have no watchdog or recovery manager."""

    node: Node
    t0: int
    watchdog: Optional[Watchdog]
    recovery: Optional[RecoveryManager]
    completed: Dict[str, int]
    submitted: List[str]
    injector: Optional[FaultInjector]

    def failures(self, vm_name: Optional[str] = None) -> List[FailureRecord]:
        """Watchdog declarations, for one VM or for all."""
        return [
            f for f in (self.watchdog.failures if self.watchdog is not None else [])
            if vm_name in (None, f.vm_name)
        ]

    def restarts(self, vm_name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Restart events, for one VM or for all."""
        return [
            e for e in (self.recovery.events if self.recovery is not None else [])
            if e["action"] == "restart" and vm_name in (None, e["vm"])
        ]

    def job_metrics(self) -> Dict[str, Any]:
        done = sum(1 for name in self.submitted if self.completed.get(name))
        total = len(self.submitted)
        return {
            "jobs_total": total,
            "jobs_completed": done,
            "job_survival_rate": (done / total) if total else 1.0,
        }


def _faulted_run(
    config: str,
    seed: int,
    trial: int,
    make_plan: Callable[[Node, int], Optional[FaultPlan]],
    *,
    horizon_ps: int = HORIZON_PS,
    job_compute_s: float = JOB_COMPUTE_S,
) -> _FaultedRun:
    """Build the node, attach the watchdog and recovery manager (Hafnium
    only), spawn the job mix, arm ``make_plan(node, t0)`` (no injector when
    it returns None), run to ``t0 + horizon_ps`` and stop the watchdog."""
    if config == CONFIG_NATIVE:
        node = build_native_node(seed=seed, trial=trial)
    elif config in HAFNIUM_SCHEDULERS:
        node = build_faults_node(
            scheduler=HAFNIUM_SCHEDULERS[config], seed=seed, trial=trial
        )
    else:
        raise ConfigurationError(f"unknown configuration {config!r}")
    engine = node.machine.engine
    t0 = engine.now
    watchdog = recovery = None
    if node.spm is not None:
        watchdog = Watchdog(node.spm)
        watchdog.start()
        recovery = RecoveryManager(node, watchdog)
        for vm_name, pinning in sorted(node.vm_pinnings.items()):
            recovery.set_pinning(vm_name, pinning)
    completed: Dict[str, int] = {}
    submitted = _spawn_jobs(node, recovery, completed, job_compute_s)
    plan = make_plan(node, t0)
    injector = None
    if plan is not None:
        injector = FaultInjector(node, plan)
        injector.arm()
    engine.run_until(t0 + horizon_ps)
    if watchdog is not None:
        watchdog.stop()
    return _FaultedRun(node, t0, watchdog, recovery, completed, submitted, injector)


def scenarios_for(config: str) -> Tuple[str, ...]:
    return NATIVE_SCENARIOS if config == CONFIG_NATIVE else HAFNIUM_SCENARIOS


def run_scenario(
    config: str,
    scenario: str,
    *,
    seed: int = 0xC0FFEE,
    trial: int = 0,
    inject_delay_ps: int = INJECT_DELAY_PS,
    horizon_ps: int = HORIZON_PS,
    job_compute_s: float = JOB_COMPUTE_S,
) -> Dict[str, Any]:
    """One (config, scenario) resilience run; returns the metrics dict."""
    if scenario not in scenarios_for(config):
        raise ConfigurationError(
            f"scenario {scenario!r} is not applicable to config {config!r}"
        )
    target = VICTIM_VM if config != CONFIG_NATIVE else "native"
    run = _faulted_run(
        config, seed, trial,
        lambda node, t0: FaultPlan.scenario(scenario, target, t0 + inject_delay_ps),
        horizon_ps=horizon_ps,
        job_compute_s=job_compute_s,
    )
    node, recovery = run.node, run.recovery
    victim_failures = run.failures(target)
    restart_events = run.restarts(target)
    return {
        "config": config,
        "scenario": scenario,
        "seed": seed,
        "faults_injected": len(run.injector.injections),
        "injections": run.injector.injections,
        "detected": bool(victim_failures),
        "detection_latency_us": (
            to_us(victim_failures[0].detected_at_ps - (run.t0 + inject_delay_ps))
            if victim_failures else None
        ),
        "recovery_time_us": (
            to_us(restart_events[0]["recovery_time_ps"]) if restart_events else None
        ),
        "restarts": len(restart_events),
        "degraded": recovery is not None and target in recovery.degraded,
        **run.job_metrics(),
        "mailbox_busy_rejections": (
            node.spm.mailboxes[PRIMARY_VM_ID].busy_rejections
            if node.spm is not None else 0
        ),
        "irq_drops": sum(node.machine.gic.dropped.values()),
        "end_ps": node.machine.engine.now,
        "digest": trace_digest(node),
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
    if config == CONFIG_NATIVE:
        raise ConfigurationError("containment check needs a Hafnium config")

    def one_run(with_fault: bool) -> Dict[str, Any]:
        run = _faulted_run(
            config, seed, trial,
            lambda node, t0: (
                FaultPlan.scenario(scenario, VICTIM_VM, t0 + inject_delay_ps)
                if with_fault else None
            ),
            horizon_ps=horizon_ps,
        )
        return {
            "victim": per_vm_digest(run.node, f"kitten-{VICTIM_VM}"),
            "bystander": per_vm_digest(run.node, f"kitten-{BYSTANDER_VM}"),
            "completed": dict(sorted(run.completed.items())),
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
        "strict_isolation_expected": config == CONFIG_HAFNIUM_KITTEN,
        "bystander_digest": faulted["bystander"],
        "baseline": baseline,
        "faulted": faulted,
    }


def run_forced_abort(config: str, *, seed: int) -> Dict[str, Any]:
    """The SPM force-aborts the compute VM 200 ms after boot, while its
    one thread is in the middle of a compute phase on core 0, so the
    abort's ``Interrupted`` lands in the guest's unmasked phase wait.

    Returns what that wait's handler leaves behind: the slice cut short,
    accounted to the thread and its phase before the exit; the masked
    flag of the core's GIC CPU interface once the abort's resume has run
    (the guest leaves it masked); and the VCPU's exits and runs 100 ms
    later."""
    node = build_node(config, seed=seed)
    if node.spm is None:
        raise ConfigurationError("a forced abort needs a Hafnium config")
    engine = node.engine
    phase = ComputePhase(5e9)
    thread = Thread("w", iter([phase]), cpu=0, aspace="b")
    node.spawn_workload_threads([thread])
    engine.run_until(engine.now + ms(200))
    vcpu = node.spm.vm_by_name("compute").vcpus[0]
    core = vcpu.resident_core
    if core is None:
        raise ConfigurationError("the compute VCPU is not on a core at the abort")
    abort_ps, cpu_ps, ops = engine.now, thread.cpu_time_ps, phase.remaining_ops
    node.spm.force_abort("compute", "forced-abort cell")
    engine.run_until(engine.now)  # the abort's zero-delay resume only
    masked = core.cpu_iface.masked
    cut_ps, cut_ops = thread.cpu_time_ps - cpu_ps, ops - phase.remaining_ops
    engine.run_until(engine.now + ms(100))
    return {
        "config": config,
        "abort_ps": abort_ps,
        "cut_slice_ps": cut_ps,
        "cut_slice_ops": cut_ops,
        "iface_masked_after_exit": masked,
        "cpu_time_ps": thread.cpu_time_ps,
        "remaining_ops": phase.remaining_ops,
        "exits": dict(sorted(vcpu.exits.items())),
        "runs": vcpu.runs,
        "resident": vcpu.resident_core is not None,
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
        [c for c in chosen_configs if c != CONFIG_NATIVE] if with_containment else []
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
#: Span after ``INJECT_DELAY_PS`` over which randomized faults are drawn.
RANDOMIZED_WINDOW_PS = ms(400)


def run_randomized(
    config: str,
    *,
    seed: int = 0xC0FFEE,
    trial: int = 0,
    count: int = 3,
) -> Dict[str, Any]:
    """One randomized multi-fault run: ``count`` faults drawn from the
    node's dedicated ``faults.plan`` RNG stream, uniform over the
    injection window, with kinds and targets chosen per draw.

    Same (config, seed, trial) → same plan → same trace; the randomness
    is *inside* the deterministic replay boundary.
    """
    if config != CONFIG_NATIVE:
        targets, kinds = [VICTIM_VM, BYSTANDER_VM], list(RANDOMIZED_KINDS)
    else:
        targets, kinds = ["native"], list(NATIVE_SCENARIOS)
    run = _faulted_run(
        config, seed, trial,
        lambda node, t0: FaultPlan.randomized(
            node.machine.rng,
            kinds,
            targets,
            start_ps=t0 + INJECT_DELAY_PS,
            window_ps=RANDOMIZED_WINDOW_PS,
            count=count,
        ),
    )
    node, t0, watchdog, recovery = run.node, run.t0, run.watchdog, run.recovery
    engine = node.machine.engine
    detections = len(run.failures())
    restart_events = run.restarts()

    # MTTF / availability over the observation span [t0, horizon).
    # "Failure" means a *detected* VM failure (watchdog declaration);
    # downtime per failure runs detection -> recovery, and a degraded VM
    # stays down through the end of the horizon. Availability is averaged
    # over the two tenant VMs the watchdog covers (victim + bystander).
    span_ps = engine.now - t0
    mttf_ms = availability = downtime_ms = None
    if watchdog is not None:
        downtime_ps = sum(e["recovery_time_ps"] for e in restart_events)
        for e in recovery.events:
            if e["action"] == "degrade":
                downtime_ps += engine.now - e["degraded_at_ps"]
        mttf_ms = (
            round(span_ps / detections / 1e9, 3) if detections else None
        )
        availability = round(
            max(0.0, 1.0 - downtime_ps / (2 * span_ps)), 6
        )
        downtime_ms = round(downtime_ps / 1e9, 3)

    return {
        "config": config,
        "seed": seed,
        "trial": trial,
        "plan": run.injector.plan.describe(),
        "faults_injected": len(run.injector.injections),
        "detections": detections,
        "restarts": len(restart_events),
        "degraded": sorted(recovery.degraded) if recovery is not None else [],
        **run.job_metrics(),
        "span_ms": round(span_ps / 1e9, 3),
        "mttf_ms": mttf_ms,
        "downtime_ms": downtime_ms,
        "availability": availability,
        "end_ps": engine.now,
        "digest": trace_digest(node),
    }


def run_randomized_campaign(
    *,
    config: str = CONFIG_HAFNIUM_KITTEN,
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
    span_total_ms = sum(r["span_ms"] for r in runs)
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
    keys = ("config", "scenario", "seed", "detected", "restarts",
            "job_survival_rate", "digest")
    return {k: result[k] for k in keys}
