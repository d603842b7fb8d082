"""Exception hierarchy for the reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class SimulationError(ReproError):
    """Internal inconsistency in the discrete-event engine or a model."""


class ConfigurationError(ReproError):
    """A platform/VM/workload configuration is invalid."""


class HypercallError(ReproError):
    """A hypercall was rejected (privilege, arguments, or state)."""


def refuse_repeated(kind: str, names) -> None:
    """Raise :class:`ConfigurationError` naming every entry of ``names``
    that appears more than once (campaign cells keyed by name would
    collide in the report)."""
    names = list(names)
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigurationError(
            f"repeated {kind} name(s): {', '.join(repeated)}"
        )


class HardwareFault(ReproError):
    """A modeled hardware fault (bus error, translation abort, ...).

    Carries enough context for the fault handler (OS or hypervisor) to
    classify the fault the way real ARM syndrome registers would:
    ``address``/``fault_type`` mirror FAR_EL1/ESR_EL1, ``cpu_index`` the
    faulting PE (MPIDR affinity), and ``origin_vm`` the partition whose
    execution context raised it (known only once the fault reaches a
    layer that has VM identity — the hardware layers leave it None and
    the kernel/SPM fault paths stamp it via :meth:`annotate`).
    """

    def __init__(
        self,
        message: str,
        *,
        address: int = 0,
        fault_type: str = "unknown",
        cpu_index: "int | None" = None,
        origin_vm: "str | None" = None,
    ):
        super().__init__(message)
        self.address = address
        self.fault_type = fault_type
        self.cpu_index = cpu_index
        self.origin_vm = origin_vm

    def annotate(self, *, cpu_index: "int | None" = None, origin_vm: "str | None" = None) -> "HardwareFault":
        """Fill in context a lower layer didn't have (like a fault handler
        reading the syndrome registers on the way up). Existing values are
        never overwritten — the first layer to know wins."""
        if self.cpu_index is None and cpu_index is not None:
            self.cpu_index = cpu_index
        if self.origin_vm is None and origin_vm is not None:
            self.origin_vm = origin_vm
        return self

    def syndrome(self) -> dict:
        """The classification tuple as a repr-stable dict (trace payloads)."""
        return {
            "fault_type": self.fault_type,
            "address": self.address,
            "cpu_index": self.cpu_index,
            "origin_vm": self.origin_vm,
        }


class SecurityViolation(ReproError):
    """An access or operation that the isolation model forbids.

    Raised by the TrustZone address-space controller, the stage-2
    enforcement layer, and the hypercall privilege checks. Tests assert on
    this type to verify isolation properties.
    """

    def __init__(self, message: str, *, subject: str = "?", operation: str = "?"):
        super().__init__(message)
        self.subject = subject
        self.operation = operation
