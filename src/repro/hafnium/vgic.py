"""Para-virtual interrupt controller state (the vGIC).

Secondary VMs "must use a para-virtual interrupt controller interface
provided by Hafnium" (paper Section IV-b). The SPM queues virtual
interrupts here; the guest's kernel enables the IRQs it implements,
acknowledges the highest-priority pending one, handles it, and signals
EOI — mirroring the physical GIC's CPU-interface flow so guest interrupt
code is structurally identical to native interrupt code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.common.errors import SimulationError
from repro.hw.gic import highest_priority


class VgicCpu:
    """Per-VCPU virtual interrupt state."""

    def __init__(self, owner: str):
        self.owner = owner
        self.enabled: Set[int] = set()
        self.priority: Dict[int, int] = {}
        self._pending: List[int] = []  # insertion-ordered, deduplicated
        self.active: Optional[int] = None
        self.injected = 0
        self.delivered = 0

    # -- SPM side ------------------------------------------------------------

    def inject(self, virq: int) -> bool:
        """Queue a virtual interrupt. Idempotent while pending/active
        (level-like semantics). Returns True if newly queued."""
        if virq in self._pending or virq == self.active:
            return False
        self._pending.append(virq)
        self.injected += 1
        return True

    # -- guest side ------------------------------------------------------------

    def enable(self, virq: int, priority: int = 0xA0) -> None:
        self.enabled.add(virq)
        self.priority[virq] = priority

    def disable(self, virq: int) -> None:
        self.enabled.discard(virq)

    def next_deliverable(self) -> Optional[int]:
        """Highest-priority enabled pending vIRQ (None while one is active
        — the model delivers one at a time, like a GIC without nesting)."""
        if self.active is not None:
            return None
        return highest_priority(self._pending, self.enabled, self.priority)

    def ack(self) -> Optional[int]:
        virq = self.next_deliverable()
        if virq is None:
            return None
        self._pending.remove(virq)
        self.active = virq
        self.delivered += 1
        return virq

    def eoi(self, virq: int) -> None:
        if self.active != virq:
            raise SimulationError(
                f"{self.owner}: EOI of {virq} but active is {self.active}"
            )
        self.active = None

    # -- inspection ------------------------------------------------------------

    @property
    def pending(self) -> List[int]:
        return list(self._pending)

    def has_work(self) -> bool:
        """Anything deliverable now, or pending-but-disabled (which would
        become deliverable once the guest enables it)."""
        return bool(self._pending) or self.active is not None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"VgicCpu({self.owner}, pending={self._pending}, "
            f"active={self.active})"
        )
