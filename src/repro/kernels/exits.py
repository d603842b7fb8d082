"""VM exit types.

Guest kernel slices (the scheduling loop in :mod:`repro.kernels.base`)
raise these to hand control back to the hypervisor;
the SPM either handles the exit internally (e.g. re-injecting the guest's
own virtual-timer interrupt, as the paper notes "the majority [of exits]
are handled internally by the hypervisor") or returns it to the primary
VM's VCPU thread (IRQs for the primary, WFI, aborts).
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Optional


class ExitReason(Enum):
    INTERRUPT = "interrupt"   # physical IRQ arrived while guest ran
    WFI = "wfi"               # guest has nothing to run
    YIELD = "yield"           # guest yielded its timeslice voluntarily
    HALT = "halt"             # guest shut down
    ABORT = "abort"           # stage-2 / privilege violation by the guest


class VmExit(Exception):
    """Base exit, raised inside a guest slice and caught at the SPM."""

    reason = ExitReason.ABORT

    def __init__(self, detail: Any = None):
        # The message is formatted only when asked for (as ``Interrupted``
        # does): a guest raises an exit on every interrupt that reaches its
        # core, and almost none is ever printed.
        super().__init__(detail)
        self.detail = detail

    def __str__(self) -> str:
        return f"{self.reason.value}: {self.detail!r}"


class VmExitIntr(VmExit):
    reason = ExitReason.INTERRUPT


class VmExitWfi(VmExit):
    """Carries the guest's next timer deadline (absolute ps) if armed, so
    the primary's VCPU thread can sleep rather than spin."""

    reason = ExitReason.WFI

    def __init__(self, wake_at_ps: Optional[int] = None):
        super().__init__(wake_at_ps)
        self.wake_at_ps = wake_at_ps


class VmExitYield(VmExit):
    reason = ExitReason.YIELD


class VmExitHalt(VmExit):
    reason = ExitReason.HALT


class VmExitAbort(VmExit):
    reason = ExitReason.ABORT
