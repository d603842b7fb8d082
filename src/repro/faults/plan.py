"""Declarative fault schedules.

A :class:`FaultPlan` is an immutable list of :class:`FaultSpec` entries —
*what* goes wrong, *where*, and at exactly *which* simulated picosecond.
Plans are pure data: the same (seed, plan) pair always produces the same
trace, which is what makes fault campaigns replay-deterministic and lets
the determinism checker cover the failure paths, not just the happy path.

A spec carries no parameters: how hard each kind hits (storm length,
stall duration, IRQ line, ...) is a named constant of
:mod:`repro.faults.injector`, the same for every plan.

Randomised plans draw every choice (times, addresses, bits) from dedicated
``faults.*`` streams of the :class:`~repro.common.rng.RngHub`, so arming a
fault plan never perturbs the draws of any other model component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import RngHub

#: Every fault kind the injector implements.
FAULT_KINDS = (
    "mem-bit-flip",        # DRAM bit upset in the target VM's partition
    "bus-error",           # uncorrectable interconnect error attributed to a VM
    "irq-drop",            # a pending interrupt silently lost
    "irq-storm",           # a device line firing pathologically often
    "vcpu-stall",          # one VCPU wedges (hard lockup) for a while
    "vcpu-crash",          # the primary's driver thread for a VCPU dies
    "vm-panic",            # the target VM's kernel panics
    "mailbox-storm",       # a rogue guest floods the primary's mailbox
    "attestation-tamper",  # the stored VM image is corrupted (restart-time check)
    "node-failure",        # a whole cluster rank dies (host panic + fabric partition)
)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault."""

    at_ps: int
    kind: str
    target: str  # VM name ("" = machine-wide); "rank<N>" for node-failure

    def __post_init__(self):
        if self.at_ps < 0:
            raise ConfigurationError(f"fault at negative time {self.at_ps}")
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} (known: {', '.join(FAULT_KINDS)})"
            )

    def describe(self) -> Dict[str, Any]:
        return {
            "at_ps": self.at_ps,
            "kind": self.kind,
            "target": self.target,
            # The randomized-faults corpus cell hashes this dict into its
            # report: the key stays so the GOLDEN.json digests hold.
            "params": {},
        }


class FaultPlan:
    """An ordered, immutable schedule of faults."""

    def __init__(self, faults: Optional[List[FaultSpec]] = None):
        self._faults: Tuple[FaultSpec, ...] = tuple(
            sorted(faults or [], key=lambda f: (f.at_ps, f.kind, f.target))
        )

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self._faults)

    def __len__(self) -> int:
        return len(self._faults)

    @property
    def faults(self) -> Tuple[FaultSpec, ...]:
        return self._faults

    def describe(self) -> List[Dict[str, Any]]:
        return [f.describe() for f in self._faults]

    # -- construction --------------------------------------------------------

    @staticmethod
    def single(kind: str, target: str, at_ps: int) -> "FaultPlan":
        """A plan of one fault: `kind` hits `target` at `at_ps`."""
        return FaultPlan([FaultSpec(at_ps, kind, target)])

    @staticmethod
    def randomized(
        hub: RngHub,
        kinds: List[str],
        targets: List[str],
        *,
        start_ps: int,
        window_ps: int,
        count: int,
    ) -> "FaultPlan":
        """Draw `count` faults uniformly over ``[start, start+window)``.

        Kind and target choices come from the dedicated plan stream, so
        two campaigns with the same seed draw the same schedule and other
        RNG consumers never observe the plan being built.
        """
        if count < 1:
            raise ConfigurationError("randomized plan needs count >= 1")
        if not kinds or not targets:
            raise ConfigurationError("randomized plan needs kinds and targets")
        gen = hub.stream("faults.plan")
        faults = []
        for _ in range(count):
            at = start_ps + int(gen.integers(0, max(1, window_ps)))
            kind = kinds[int(gen.integers(0, len(kinds)))]
            target = targets[int(gen.integers(0, len(targets)))]
            faults.append(FaultSpec(at, kind, target))
        return FaultPlan(faults)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({len(self._faults)} faults)"
