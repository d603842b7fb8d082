"""Deterministic fault injection and recovery.

The paper's isolation argument is ultimately a *fault containment*
argument: a lightweight-kernel VM that crashes, wedges, or misbehaves must
not take the node (or its co-tenants) with it. This package mechanises
that claim:

* :mod:`repro.faults.plan` — declarative, replayable fault schedules;
* :mod:`repro.faults.injector` — turns a plan into modeled hardware and
  software faults at exact simulated times;
* :mod:`repro.faults.watchdog` — the SPM's per-VCPU heartbeat monitor
  (detection latency is its headline metric);
* :mod:`repro.faults.recovery` — forced abort, quiesce, image
  re-verification, VM restart and job resubmission;
* :mod:`repro.faults.campaign` — the ``repro faults`` resilience sweep
  across the three evaluated configurations, reporting detection latency,
  recovery time, job survival, and cross-VM containment.
"""

from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.injector import FaultInjector
from repro.faults.watchdog import FailureRecord, Watchdog
from repro.faults.recovery import RecoveryManager

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "FailureRecord",
    "Watchdog",
    "RecoveryManager",
]
