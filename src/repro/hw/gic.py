"""Generic Interrupt Controller model (GICv2-style; GICv3 and the BCM2836
local controller are configured variants of the same model).

IRQ ID space follows the ARM convention: SGIs 0-15 (inter-processor),
PPIs 16-31 (per-core private — the generic timers live here), SPIs 32+
(shared peripherals, routable to any core — the routing table is what the
paper's super-secondary "selective IRQ routing" modifies).

Devices (and the IRQ-storm fault) pulse SPIs, which latch pending once;
the generic timers hold their banked PPI lines high on each core's CPU
interface (``raise_line``/``lower_line``), and a held line goes pending
again at every EOI. When a core has an enabled, pending, unmasked
interrupt the CPU interface invokes the core's ``irq_entry`` callback —
which preempts whatever the core is executing. Software then ``ack``s
(get the IRQ id, mark active) and ``eoi``s it.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError, SimulationError

SGI_BASE, PPI_BASE, SPI_BASE = 0, 16, 32
MAX_IRQ = 1020

# Standard ARM generic-timer PPIs.
PPI_HYP_TIMER = 26
PPI_VIRT_TIMER = 27
PPI_PHYS_TIMER = 30


def highest_priority(
    pending: Collection[int], enabled: Collection[int], priority: Dict[int, int]
) -> Optional[int]:
    """The one selection rule of the GIC CPU interface and the vGIC: the
    enabled pending IRQ with the lowest ``(priority, irq)``, or None. The
    keys are unique, so the minimum is independent of iteration order and
    a set needs no sort. A plain loop: it runs on every IRQ-pending check."""
    best = None
    best_prio = 0
    for irq in pending:
        if irq in enabled:
            prio = priority.get(irq, 0xA0)
            if best is None or prio < best_prio or (prio == best_prio and irq < best):
                best, best_prio = irq, prio
    return best


class Gic:
    """Distributor + per-core CPU interfaces."""

    def __init__(self, num_cores: int):
        if num_cores < 1:
            raise ConfigurationError("GIC needs at least one core")
        self.num_cores = num_cores
        self.enabled: Set[int] = set()
        #: IRQ -> priority; an IRQ is configured once it has an entry here
        self.priority: Dict[int, int] = {}
        self.spi_target: Dict[int, int] = {}  # SPI -> core
        self.cpu_ifaces: List[GicCpuInterface] = [
            GicCpuInterface(self, c) for c in range(num_cores)
        ]
        self.stats_delivered: Dict[int, int] = {}
        self.dropped: Dict[int, int] = {}
        #: (core, irq) -> remaining assertions to silently lose (fault hook)
        self._drop_next: Dict[Tuple[int, int], int] = {}

    # -- configuration -----------------------------------------------------

    @staticmethod
    def classify(irq: int) -> str:
        if not 0 <= irq < MAX_IRQ:
            raise ConfigurationError(f"IRQ {irq} out of range")
        if irq < PPI_BASE:
            return "sgi"
        if irq < SPI_BASE:
            return "ppi"
        return "spi"

    def configure(
        self,
        irq: int,
        priority: int = 0xA0,
        target_core: int = 0,
    ) -> None:
        kind = self.classify(irq)
        self.priority[irq] = priority
        self._invalidate_all()
        if kind == "spi":
            if not 0 <= target_core < self.num_cores:
                raise ConfigurationError(f"SPI {irq} target core {target_core} invalid")
            self.spi_target[irq] = target_core

    def enable(self, irq: int) -> None:
        if irq not in self.priority:
            self.configure(irq)
        self.enabled.add(irq)
        self._invalidate_all()

    def disable(self, irq: int) -> None:
        self.enabled.discard(irq)
        self._invalidate_all()

    def _invalidate_all(self) -> None:
        """An enable or priority write can change every core's answer."""
        for iface in self.cpu_ifaces:
            iface._best = _STALE

    # -- source side ---------------------------------------------------------

    def _iface(self, irq: int, core_hint: Optional[int]) -> "GicCpuInterface":
        """The CPU interface an assertion of `irq` reaches: the SPI's
        routing target, or the named core for a banked (SGI/PPI) line."""
        if SGI_BASE <= irq < SPI_BASE:
            if core_hint is None:
                raise SimulationError(
                    f"{self.classify(irq)} {irq} needs an explicit core"
                )
            return self.cpu_ifaces[core_hint]
        self.classify(irq)  # range check
        return self.cpu_ifaces[self.spi_target.get(irq, 0)]

    def pulse(self, irq: int, core: Optional[int] = None) -> None:
        """Edge-triggered assertion: latches pending once."""
        self._iface(irq, core).set_pending(irq)

    def send_sgi(self, irq: int, target_core: int) -> None:
        """Software-generated (inter-processor) interrupt."""
        if self.classify(irq) != "sgi":
            raise ConfigurationError(f"IRQ {irq} is not an SGI")
        self.cpu_ifaces[target_core].set_pending(irq)

    # -- fault injection -------------------------------------------------------

    def drop_pending(self, irq: int, core: Optional[int] = None) -> bool:
        """Silently lose a pending (not yet acked) interrupt — the
        fault-injection hook for a glitched/lost IRQ. A held banked line
        is lowered too, so it will not re-pend on its own: the source
        thinks it delivered, the CPU never sees it. Returns True if a
        pending instance was actually discarded."""
        iface = self._iface(irq, core)
        iface.asserted.discard(irq)
        if irq not in iface.pending:
            return False
        iface.clear_pending(irq)
        self.dropped[irq] = self.dropped.get(irq, 0) + 1
        return True

    def arm_drop_next(self, irq: int, core: Optional[int] = None) -> None:
        """Arm the distributor to silently lose the next assertion of `irq`
        toward its target core(s) — the deterministic variant of
        :meth:`drop_pending` for lines whose pending window is too short to
        catch in flight. Arming a line again loses one more assertion."""
        key = (self._iface(irq, core).core_id, irq)
        self._drop_next[key] = self._drop_next.get(key, 0) + 1

    def _consume_armed_drop(self, core: int, irq: int) -> bool:
        key = (core, irq)
        remaining = self._drop_next.get(key, 0)
        if remaining <= 0:
            return False
        if remaining == 1:
            del self._drop_next[key]
        else:
            self._drop_next[key] = remaining - 1
        self.dropped[irq] = self.dropped.get(irq, 0) + 1
        return True


#: ``GicCpuInterface._best`` before :meth:`GicCpuInterface.peek` recomputes it.
_STALE = object()


class GicCpuInterface:
    """Per-core view: pending/active sets + delivery callback.

    :meth:`peek` caches its answer, since it runs on every IRQ-pending
    check. Every write that can change it invalidates the cache: the
    pending-set writes below and the distributor's enable, disable and
    configure. Write ``pending`` only through these methods.
    """

    def __init__(self, gic: Gic, core_id: int):
        self.gic = gic
        self.core_id = core_id
        self.pending: Set[int] = set()
        self.active: Set[int] = set()
        #: this core's banked (SGI/PPI) level lines currently held high
        self.asserted: Set[int] = set()
        # Installed by the Core model: called when a deliverable IRQ appears.
        self.irq_entry: Optional[Callable[[], None]] = None
        #: PSTATE.I: a plain flag, so unmasking signals nothing by itself
        self.masked = True  # cores boot with IRQs masked
        self._best = _STALE  # cached peek() answer

    # -- signal path ---------------------------------------------------------

    def set_pending(self, irq: int) -> None:
        gic = self.gic
        if gic._drop_next and gic._consume_armed_drop(self.core_id, irq):
            return  # injected fault: this assertion is silently lost
        if irq in self.active:
            return  # already being handled; a held line re-pends at EOI
        self.pending.add(irq)
        self._best = _STALE
        if not self.masked and self.irq_entry is not None and self.peek() is not None:
            self.irq_entry()

    def clear_pending(self, irq: int) -> None:
        if irq in self.pending:
            self.pending.discard(irq)
            self._best = _STALE

    def raise_line(self, irq: int) -> None:
        """Assert this core's banked level line `irq` (a timer PPI): held
        high, it goes pending again at every EOI until lowered."""
        self.asserted.add(irq)
        self.set_pending(irq)

    def lower_line(self, irq: int) -> None:
        """Deassert this core's banked level line `irq`."""
        self.asserted.discard(irq)
        if irq in self.pending:  # clear_pending, inline: every tick lowers
            self.pending.discard(irq)
            self._best = _STALE

    def peek(self) -> Optional[int]:
        """Highest-priority deliverable IRQ without acknowledging it (the
        hypervisor uses this to classify an exit before deciding whether
        to handle the interrupt at EL2 or bounce it to the primary)."""
        best = self._best
        if best is _STALE:
            gic = self.gic
            best = self._best = highest_priority(self.pending, gic.enabled, gic.priority)
        return best

    # -- software interface ----------------------------------------------------

    def ack(self) -> Optional[int]:
        """Read IAR: highest-priority deliverable IRQ -> active. None = spurious."""
        irq = self.peek()
        if irq is None:
            return None
        self.pending.discard(irq)
        self._best = _STALE
        self.active.add(irq)
        self.gic.stats_delivered[irq] = self.gic.stats_delivered.get(irq, 0) + 1
        return irq

    def eoi(self, irq: int) -> None:
        """Write EOIR. This core's still-held line goes pending again."""
        if irq not in self.active:
            raise SimulationError(f"EOI for inactive IRQ {irq} on core {self.core_id}")
        self.active.discard(irq)
        if irq in self.asserted:
            self.pending.add(irq)
            self._best = _STALE
            if not self.masked and self.irq_entry is not None and self.peek() is not None:
                self.irq_entry()
