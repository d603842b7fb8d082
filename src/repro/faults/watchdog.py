"""The SPM's VM liveness watchdog.

Each secondary VCPU heartbeats the watchdog every time its guest kernel
reaches a dispatch boundary (see ``KernelBase._schedule_loop``); VM-abort
exits notify it synchronously. A periodic check declares a VM failed when

* it aborted (fast path, latency ~= one notification), or
* any non-parked VCPU missed the heartbeat deadline (stall/lockup path,
  latency <= deadline + one check period).

Idle VCPUs (WFI/HALTED) are parked by definition — an idle VM is healthy,
so parked VCPUs auto-beat and never trip the deadline. Detection latency
(declare time minus last heartbeat) is the metric the resilience campaign
reports; failure declarations fan out to subscribers (the recovery
manager) via zero-delay engine events so recovery never runs inside a
hypercall frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.units import ms
from repro.sim.engine import Event
from repro.hafnium.spm import PRIMARY_VM_ID, Spm
from repro.hafnium.vm import VcpuState

#: Interval between liveness checks.
CHECK_PERIOD_PS = ms(50)
#: Heartbeat silence after which a non-parked VCPU counts as stalled.
DEADLINE_PS = ms(300)

#: VCPU states that do not owe heartbeats (parked, not stuck).
_PARKED = (VcpuState.WFI, VcpuState.HALTED, VcpuState.ABORTED)


@dataclass
class FailureRecord:
    """One declared VM failure."""

    vm_id: int
    vm_name: str
    kind: str                 # "abort" | "stall"
    detail: str
    detected_at_ps: int
    last_beat_ps: int

    @property
    def since_last_beat_ps(self) -> int:
        return self.detected_at_ps - self.last_beat_ps

    def describe(self) -> dict:
        return {
            "vm": self.vm_name,
            "kind": self.kind,
            "detail": self.detail,
            "detected_at_ps": self.detected_at_ps,
            "since_last_beat_ps": self.since_last_beat_ps,
        }


class Watchdog:
    """Heartbeat-deadline failure detector attached to the SPM."""

    def __init__(self, spm: Spm):
        if spm.watchdog is not None:
            raise ConfigurationError("SPM already has a watchdog attached")
        self.spm = spm
        self.machine = spm.machine
        #: (vm_id, vcpu_idx) -> last heartbeat timestamp
        self._last_beat: Dict[Tuple[int, int], int] = {}
        #: vm_ids currently monitored (secondaries + super-secondary)
        self._monitored: List[int] = []
        #: vm_ids with a declared, not-yet-recovered failure
        self._suspended: Dict[int, bool] = {}
        self._callbacks: List[Callable[[FailureRecord], None]] = []
        self.failures: List[FailureRecord] = []
        self.checks = 0
        self.beats = 0
        #: The armed periodic check; None while stopped.
        self._event: Optional[Event] = None
        now = self.machine.engine.now
        for vm_id in sorted(spm.vms):
            if vm_id == PRIMARY_VM_ID:
                continue
            self._monitored.append(vm_id)
            for vcpu in spm.vms[vm_id].vcpus:
                self._last_beat[(vm_id, vcpu.idx)] = now
        spm.watchdog = self

    # -- wiring ---------------------------------------------------------------

    def on_failure(self, callback: Callable[[FailureRecord], None]) -> None:
        self._callbacks.append(callback)

    def start(self) -> None:
        if self._event is None:
            self._arm()

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    # -- notifications from the SPM / guest kernels ---------------------------

    def beat(self, vm_id: Optional[int], vcpu_idx: int) -> None:
        if vm_id is None or self._suspended.get(vm_id):
            return
        key = (vm_id, vcpu_idx)
        if key in self._last_beat:
            self._last_beat[key] = self.machine.engine.now
            self.beats += 1

    def vm_aborted(self, vm_id: int, detail: str) -> None:
        """Synchronous notification: the SPM classified an abort exit (or
        force-aborted the VM itself)."""
        if vm_id in self._monitored and not self._suspended.get(vm_id):
            self._declare(vm_id, "abort", detail)

    def resume(self, vm_id: int) -> None:
        """Re-arm monitoring after a successful recovery."""
        if vm_id not in self._monitored:
            return
        self._suspended[vm_id] = False
        now = self.machine.engine.now
        for vcpu in self.spm.vms[vm_id].vcpus:
            self._last_beat[(vm_id, vcpu.idx)] = now

    def retire(self, vm_id: int) -> None:
        """Stop monitoring a VM permanently (graceful degradation: the VM
        stays down and its silence is expected, not a failure)."""
        self._suspended[vm_id] = True

    # -- the periodic check ----------------------------------------------------

    def _check(self) -> None:
        armed = self._event
        self.checks += 1
        now = self.machine.engine.now
        for vm_id in self._monitored:
            if self._suspended.get(vm_id):
                continue
            vm = self.spm.vms[vm_id]
            if vm.aborted:
                # Belt for aborts that bypassed vm_aborted (e.g. the VM
                # aborted while no watchdog was attached yet).
                self._declare(vm_id, "abort", "aborted flag")
                continue
            stalled_idx = None
            oldest = now
            for vcpu in vm.vcpus:
                if vcpu.state in _PARKED:
                    self._last_beat[(vm_id, vcpu.idx)] = now  # parked = healthy
                    continue
                beat = self._last_beat[(vm_id, vcpu.idx)]
                if now - beat > DEADLINE_PS and beat <= oldest:
                    stalled_idx, oldest = vcpu.idx, beat
            if stalled_idx is not None:
                self._declare(
                    vm_id, "stall", f"vcpu{stalled_idx} missed heartbeat deadline",
                    last_beat=oldest,
                )
        # Re-arm last, so the next check takes its sequence number after
        # the failure fan-out events above; a stop()/start() in between
        # replaced or cleared ``_event`` and owns the next check instead.
        if self._event is armed:
            self._arm()

    def _arm(self) -> None:
        self._event = self.machine.engine.schedule(CHECK_PERIOD_PS, self._check)

    def _declare(
        self, vm_id: int, kind: str, detail: str, last_beat: Optional[int] = None
    ) -> None:
        vm = self.spm.vms[vm_id]
        now = self.machine.engine.now
        if last_beat is None:
            beats = [self._last_beat[(vm_id, v.idx)] for v in vm.vcpus]
            last_beat = max(beats) if beats else now
        record = FailureRecord(
            vm_id=vm_id,
            vm_name=vm.name,
            kind=kind,
            detail=detail,
            detected_at_ps=now,
            last_beat_ps=last_beat,
        )
        self.failures.append(record)
        self._suspended[vm_id] = True
        self.machine.trace(
            "watchdog.detect", "watchdog", vm=vm.name, kind=kind, detail=detail
        )
        for cb in self._callbacks:
            # Zero-delay event: the handler runs outside whatever frame
            # (hypercall, injector callback) raised the declaration.
            self.machine.engine.schedule(0, cb, record)
