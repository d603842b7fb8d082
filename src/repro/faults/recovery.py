"""VM failure recovery: force-abort, quiesce, re-verify, restart, resubmit.

When the watchdog declares a secondary VM failed, the recovery manager
runs the sequence a resilient SPM deployment would:

1. **Contain** — force-abort the VM (idempotent if the fault already did);
2. **Quiesce** — wait (deterministic polling) until the primary's driver
   threads for the VM's VCPUs have all died, so no stale context survives;
3. **Re-verify** — check the stored VM image's signature against the key
   embedded in the trusted boot chain (the paper's Section VII proposal).
   A tampered image refuses to launch: the node *degrades gracefully*
   instead of restarting compromised code;
4. **Restart** — reset the partition (fresh VCPUs and kernel over the same
   boot-time memory region) and relaunch it through the primary's
   management plane: the Kitten control task's job channel (the
   super-secondary's command path) or the Linux Hafnium driver;
5. **Resubmit** — respawn the registered job templates into the fresh
   guest kernel.

Recovery time (declare -> jobs resubmitted) and restart/degrade decisions
are recorded per event for the resilience campaign's report. VMs that
exhaust ``max_restarts`` also degrade: surviving VMs keep scheduling.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.units import us
from repro.faults.watchdog import FailureRecord, Watchdog
from repro.kernels.thread import Thread, ThreadState
from repro.tee.attestation import SignedImage, VerificationError


class RecoveryManager:
    """Restarts failed secondary VMs; degrades when restart is unsafe."""

    def __init__(
        self,
        node,
        watchdog: Watchdog,
        *,
        max_restarts: int = 2,
        quiesce_poll_ps: int = us(200),
        quiesce_limit: int = 20_000,
    ):
        if node.spm is None:
            raise ConfigurationError("recovery requires a Hafnium node")
        if node.boot_chain is None:
            raise ConfigurationError("recovery requires a boot chain (image keys)")
        self.node = node
        self.machine = node.machine
        self.watchdog = watchdog
        self.max_restarts = max_restarts
        self.quiesce_poll_ps = quiesce_poll_ps
        self.quiesce_limit = quiesce_limit
        #: vm_name -> [(job_name, body_factory, cpu)] respawned on restart
        self.job_templates: Dict[str, List[Tuple[str, Callable, int]]] = {}
        #: vm_name -> VCPU pinning used for relaunch
        self._pinning: Dict[str, Optional[List[int]]] = {}
        #: signed images as stored by the provisioning system; the
        #: attestation-tamper fault corrupts entries here.
        self.image_store: Dict[str, SignedImage] = {}
        self.events: List[Dict[str, Any]] = []
        self.degraded: List[str] = []
        self.restarted: Dict[str, int] = {}
        authority = node.boot_chain.authority
        for vm_id in sorted(node.spm.vms):
            vm = node.spm.vms[vm_id]
            if vm.is_primary:
                continue
            self.image_store[vm.name] = SignedImage.create(
                vm.name, bytes(vm.spec.image), authority
            )
        watchdog.on_failure(self._on_failure)
        node.recovery = self

    # -- configuration ---------------------------------------------------------

    def register_jobs(
        self, vm_name: str, templates: List[Tuple[str, Callable, int]]
    ) -> None:
        """Job templates (name, body_factory, cpu) resubmitted on restart."""
        self.job_templates[vm_name] = list(templates)

    def set_pinning(self, vm_name: str, vcpu_cpus: Optional[List[int]]) -> None:
        self._pinning[vm_name] = vcpu_cpus

    def tamper_image(self, vm_name: str) -> None:
        """Corrupt the stored image (the attestation-tamper fault hook)."""
        img = self.image_store.get(vm_name)
        if img is None:
            raise ConfigurationError(f"no stored image for VM {vm_name!r}")
        data = bytearray(img.data if img.data else b"\0")
        data[0] ^= 0x01
        img.data = bytes(data)
        self.machine.trace("recovery.tamper", "recovery", vm=vm_name)

    # -- the recovery sequence -------------------------------------------------

    def _on_failure(self, record: FailureRecord) -> None:
        vm_name = record.vm_name
        restarts = self.restarted.get(vm_name, 0)
        if restarts >= self.max_restarts:
            self._degrade(record, "restart budget exhausted")
            return
        self.machine.trace(
            "recovery.start", "recovery", vm=vm_name, kind=record.kind
        )
        # Containment first (idempotent if the fault already aborted it).
        self.node.spm.force_abort(vm_name, f"recovery:{record.kind}")
        self.machine.engine.schedule(
            self.quiesce_poll_ps, self._await_quiesce, record, self.quiesce_limit
        )

    def _await_quiesce(self, record: FailureRecord, polls_left: int) -> None:
        threads = self.node.vcpu_threads(record.vm_name) or []
        if any(t.state != ThreadState.DEAD for t in threads):
            if polls_left <= 0:
                self._degrade(record, "quiesce timeout")
                return
            self.machine.engine.schedule(
                self.quiesce_poll_ps, self._await_quiesce, record, polls_left - 1
            )
            return
        self._restart(record)

    def _restart(self, record: FailureRecord) -> None:
        vm_name = record.vm_name
        # Post-boot launch verification (paper Section VII): the image is
        # re-checked against the boot chain's embedded key before any
        # restart. A failed check means the partition stays down.
        try:
            self.image_store[vm_name].verify_with(self.node.boot_chain.embedded_key)
        except VerificationError as err:
            self.machine.trace(
                "recovery.verify_failed", "recovery", vm=vm_name, error=str(err)
            )
            self._degrade(record, "image verification failed")
            return
        vm = self.node.spm.reset_vm(vm_name)
        self.node.kernels[vm_name] = vm.kernel
        pinning = self._pinning.get(vm_name)
        control, driver = self.node.control_task, self.node.driver
        if control is not None:
            from repro.kitten.control import JobSpec

            control.submit(JobSpec("launch", vm_name, vcpu_cpus=pinning))
        elif driver is not None:
            driver.launch_vm(vm_name, vcpu_cpus=pinning)
        else:
            raise ConfigurationError("node has neither control task nor driver")
        for job_name, factory, cpu in self.job_templates.get(vm_name, []):
            vm.kernel.spawn(Thread(job_name, factory(), cpu=cpu, aspace="faults"))
        self.restarted[vm_name] = self.restarted.get(vm_name, 0) + 1
        now = self.machine.engine.now
        self.events.append(
            {
                "vm": vm_name,
                "action": "restart",
                "failure_kind": record.kind,
                "detected_at_ps": record.detected_at_ps,
                "recovered_at_ps": now,
                "recovery_time_ps": now - record.detected_at_ps,
                "restarts": self.restarted[vm_name],
                "jobs_resubmitted": len(self.job_templates.get(vm_name, [])),
            }
        )
        self.machine.trace(
            "recovery.complete", "recovery", vm=vm_name,
            restarts=self.restarted[vm_name],
        )
        self.watchdog.resume(record.vm_id)

    def _degrade(self, record: FailureRecord, reason: str) -> None:
        vm_name = record.vm_name
        if vm_name not in self.degraded:
            self.degraded.append(vm_name)
        self.watchdog.retire(record.vm_id)
        now = self.machine.engine.now
        self.events.append(
            {
                "vm": vm_name,
                "action": "degrade",
                "failure_kind": record.kind,
                "reason": reason,
                "detected_at_ps": record.detected_at_ps,
                "degraded_at_ps": now,
            }
        )
        self.machine.trace(
            "recovery.degraded", "recovery", vm=vm_name, reason=reason
        )
