"""Analytic performance model.

Per-access simulation of memory benchmarks (billions of updates) is
infeasible in Python, so phases of work are priced in closed form from the
machine parameters and the current warmth state of the core's TLB/caches.
The discrete-event layer slices phases at interrupts and charges warm-up
costs after pollution events — which is how scheduler noise (the paper's
subject) turns into measured throughput differences.

Calibration
-----------
Constants here are calibrated to the Pine A64-LTS class hardware of the
paper's Section V and to the ratios of its Figure 8 (see DESIGN.md §5 and
EXPERIMENTS.md). In particular ``walk_ref_cost_ns`` is an *effective*
per-descriptor cost assuming hot walk caches — set so that the steady-state
two-stage translation penalty of a TLB-thrashing workload lands in the
few-percent band the paper measures (its RandomAccess column), rather than
the order-of-magnitude penalty raw DRAM-latency walks would predict. The
``benchmarks/test_ablation_stage2.py`` sweep explores the sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.units import cycles_to_ps
from repro.hw.soc import SoCConfig


@dataclass(frozen=True)
class TranslationInfo:
    """What the active translation regime costs, as the perf model sees it.

    ``page_size`` is the effective TLB granule: the minimum of the stage-1
    and stage-2 block sizes, since a combined TLB entry can only cover the
    intersection of both mappings.
    """

    two_stage: bool = False
    s1_depth: int = 2          # walk levels of stage 1 (2 = 2 MiB blocks)
    s2_depth: int = 0          # walk levels of stage 2 (0 = no stage 2)
    page_size: int = 2 * 1024 * 1024

    @property
    def walk_refs(self) -> int:
        """Descriptor fetches per combined walk."""
        if self.s1_depth and self.s2_depth:
            return (self.s1_depth + 1) * (self.s2_depth + 1) - 1
        return self.s1_depth or self.s2_depth


NATIVE_TRANSLATION = TranslationInfo()


@dataclass(frozen=True)
class CostParams:
    """All calibration constants, in one inspectable place."""

    # Interrupt / context switch paths (cycles)
    irq_entry_cycles: int = 350          # vector + pipeline drain + GIC ack
    irq_exit_cycles: int = 250
    context_switch_cycles: int = 1_800   # save/restore + runqueue update
    # Hypervisor paths (cycles)
    vm_exit_cycles: int = 1_500          # EL1 -> EL2 trap + state save
    vm_entry_cycles: int = 1_400         # state restore + ERET
    hypercall_cycles: int = 900          # EL2 handler dispatch base cost
    el2_irq_bounce_cycles: int = 600     # phys IRQ routed through EL2 to primary
    world_switch_cycles: int = 3_200     # EL3 secure/non-secure world switch
    # Memory system
    dram_latency_ns: float = 110.0
    dram_random_extra_ns: float = 45.0   # row misses / bank conflicts on random
    l2_latency_ns: float = 8.0
    walk_ref_cost_ns: float = 0.7        # effective, walk-cache-hot (see module doc)
    # After a pollution event, re-walk cost per descriptor blends L2 and
    # DRAM latencies; how hot the descriptors are depends on how large
    # the page-table working set is relative to this knee (in TLB-reach
    # multiples): a 512-page working set re-walks from L2, a 16k-page one
    # (RandomAccess) re-walks mostly from DRAM.
    warmup_desc_knee: float = 8.0
    # Run-to-run DRAM efficiency variation (thermal/refresh/placement):
    # one multiplicative factor per trial, shared by every configuration
    # of that trial (common random numbers), so it widens reported
    # standard deviations — as on the paper's hardware — without
    # perturbing cross-configuration ratios.
    trial_variation_sigma: float = 0.004
    # Fraction of a context's cache-resident bytes an event displaces.
    # Fractional (not absolute) displacement captures that a handler's
    # evictions spread over whatever the previous occupant had resident:
    # a 128 KiB-tile workload (LU) loses proportionally more than a
    # 16 KiB-footprint one (SP) — which is exactly the differentiation
    # Figure 10 shows between LU and the other NPB kernels under Linux.
    pollution_cache_frac: Dict[str, float] = field(
        default_factory=lambda: {
            "tick.kitten": 0.02,
            "tick.linux": 0.20,
            "ctxsw": 0.30,
            "kthread": 0.80,
            "vm_exit": 0.03,
            "vm_switch": 0.05,
            "hypercall": 0.02,
        }
    )
    # Fraction of TLB entries an event displaces.
    pollution_tlb_frac: Dict[str, float] = field(
        default_factory=lambda: {
            "tick.kitten": 0.01,
            "tick.linux": 0.04,
            "ctxsw": 0.30,
            "kthread": 0.40,
            "vm_exit": 0.02,
            # A VM entry/exit roundtrip costs part of the shared TLB: the
            # A53 micro-TLBs and walk caches do not tag by VMID, so every
            # world/VM transition re-fetches them ("increased TLB pressure
            # from the more frequent VM context switches", paper V-b).
            # Fractions calibrated against Figure 8's RandomAccess ratios
            # (native : Kitten : Linux = 1 : 0.954 : 0.929).
            "vm_switch": 0.02,
            "hypercall": 0.01,
        }
    )

    def with_overrides(self, **kw) -> "CostParams":
        return replace(self, **kw)


import math


class MemContext:
    """Warmth of one logical data structure on one core (TLB + cache).

    Contexts are keyed by (kernel, address space, data-structure tag), so
    each workload footprint (the LU tile, the CG vector, the GUPS table)
    ages independently: a phase transition between footprints charges no
    spurious warm-up, while a pollution event cools them all.

    Decay is applied lazily: :class:`MemEnv` accumulates log-space "keep"
    products; a context syncs against them when next priced — O(1) per
    pollution event regardless of how many contexts exist.
    """

    __slots__ = ("tlb_resident", "cache_resident", "_mark_tlb", "_mark_cache")

    def __init__(self, mark_tlb: float = 0.0, mark_cache: float = 0.0):
        self.tlb_resident: float = 0.0     # entries currently useful
        self.cache_resident: float = 0.0   # bytes currently useful
        self._mark_tlb = mark_tlb
        self._mark_cache = mark_cache

    def sync(self, env: "MemEnv") -> "MemContext":
        """Apply all pollution since the last sync."""
        if env.log_tlb_keep != self._mark_tlb:
            self.tlb_resident *= math.exp(env.log_tlb_keep - self._mark_tlb)
            self._mark_tlb = env.log_tlb_keep
        if env.log_cache_keep != self._mark_cache:
            self.cache_resident *= math.exp(env.log_cache_keep - self._mark_cache)
            self._mark_cache = env.log_cache_keep
        return self


_MAX_FRAC = 0.999


class MemEnv:
    """Per-core memory-system state the perf model prices against."""

    def __init__(self, soc: SoCConfig, params: Optional[CostParams] = None):
        self.soc = soc
        self.params = params or CostParams()
        self._contexts: Dict[Tuple, MemContext] = {}
        self.log_tlb_keep = 0.0
        self.log_cache_keep = 0.0
        self.pollution_events = 0
        #: kind -> (log TLB keep, log cache keep), priced on first use
        self._log_keep: Dict[str, Tuple[float, float]] = {}

    def context(self, key: Tuple) -> MemContext:
        """The (synced) warmth state for one data structure."""
        ctx = self._contexts.get(key)
        if ctx is None:
            ctx = MemContext(self.log_tlb_keep, self.log_cache_keep)
            self._contexts[key] = ctx
        return ctx.sync(self)

    def pollute(self, kind: str) -> None:
        """An event of class `kind` ran on this core; cool every context."""
        keep = self._log_keep.get(kind)
        if keep is None:
            p = self.params
            keep = self._log_keep[kind] = (
                math.log1p(-min(_MAX_FRAC, p.pollution_tlb_frac.get(kind, 0.1))),
                math.log1p(-min(_MAX_FRAC, p.pollution_cache_frac.get(kind, 0.1))),
            )
        self.log_tlb_keep += keep[0]
        self.log_cache_keep += keep[1]
        self.pollution_events += 1

    def flush_all(self) -> None:
        for ctx in self._contexts.values():
            ctx.sync(self)
            ctx.tlb_resident = 0.0
            ctx.cache_resident = 0.0


class PerfModel:
    """Prices compute and memory work on a given SoC."""

    def __init__(self, soc: SoCConfig, params: Optional[CostParams] = None):
        self.soc = soc
        self.params = params or CostParams()
        #: per-trial memory-system efficiency factor (set by Machine)
        self.trial_factor = 1.0
        p = self.params
        #: event_cost's table, priced once
        self._event_ps = {
            "irq_entry": self.cycles(p.irq_entry_cycles),
            "irq_exit": self.cycles(p.irq_exit_cycles),
            "ctxsw": self.cycles(p.context_switch_cycles),
            "vm_exit": self.cycles(p.vm_exit_cycles),
            "vm_entry": self.cycles(p.vm_entry_cycles),
            "hypercall": self.cycles(p.hypercall_cycles),
            "el2_irq_bounce": self.cycles(p.el2_irq_bounce_cycles),
            "world_switch": self.cycles(p.world_switch_cycles),
        }

    # -- simple conversions --------------------------------------------------

    def cycles(self, n: float) -> int:
        """Picoseconds for `n` core cycles."""
        return cycles_to_ps(n, self.soc.freq_hz)

    def compute_ps(self, ops: float, ipc: Optional[float] = None) -> int:
        """Duration of `ops` retired operations at the core's sustained IPC."""
        if ops < 0:
            raise ConfigurationError("negative op count")
        return self.cycles(ops / (ipc or self.soc.ipc))

    # -- event costs -----------------------------------------------------------

    def event_cost(self, name: str) -> int:
        """Fixed path costs, by name (cycles constants above), in ps."""
        try:
            return self._event_ps[name]
        except KeyError:
            raise ConfigurationError(f"unknown event cost {name!r}") from None

    # -- memory pricing ----------------------------------------------------------

    def random_access_ns(self, working_set: int, trans: TranslationInfo) -> float:
        """Steady-state nanoseconds per uniformly-random access."""
        p = self.params
        pages = max(1.0, working_set / trans.page_size)
        tlb_hit = min(1.0, self.soc.tlb_entries / pages)
        cache_hit = min(1.0, self.soc.l2_size / max(1, working_set))
        miss_ns = p.dram_latency_ns + p.dram_random_extra_ns
        base = cache_hit * p.l2_latency_ns + (1.0 - cache_hit) * miss_ns
        walk = (1.0 - tlb_hit) * trans.walk_refs * p.walk_ref_cost_ns
        return (base + walk) * self.trial_factor

    def stream_ns_per_byte(self, trans: TranslationInfo) -> float:
        """Nanoseconds per byte of streaming (bandwidth-bound) traffic."""
        p = self.params
        per_byte = 1e9 / self.soc.dram_bw_bytes_per_s
        # One combined walk per page of the sweep.
        walk_per_byte = trans.walk_refs * p.walk_ref_cost_ns / trans.page_size
        return (per_byte + walk_per_byte) * self.trial_factor

    def tlb_warmup_ps(
        self, ctx: MemContext, working_set: int, trans: TranslationInfo
    ) -> Tuple[int, float]:
        """Cost to re-warm the TLB for a random-access working set after
        pollution, and the resident-entry count once warm.

        Returns (warmup_ps, steady_resident_entries). Each lost entry is
        reloaded by one full walk at DRAM-class latency (the walk caches
        are cold too after a pollution event).
        """
        pages = max(1.0, working_set / trans.page_size)
        steady = min(float(self.soc.tlb_entries), pages)
        lost = max(0.0, steady - ctx.tlb_resident)
        # Descriptor hotness: small page-table working sets re-walk from
        # L2; ones many times the TLB reach re-walk mostly from DRAM.
        l2f = 1.0 / (1.0 + pages / (self.soc.tlb_entries * self.params.warmup_desc_knee))
        per_walk_ns = trans.walk_refs * (
            l2f * self.params.l2_latency_ns + (1.0 - l2f) * self.params.dram_latency_ns
        )
        return (round(lost * per_walk_ns * 1000), steady)

    def cache_warmup_ps(self, ctx: MemContext, working_set: int) -> Tuple[int, float]:
        """Cost to re-fill displaced cache lines, and the steady residency."""
        p = self.params
        steady = float(min(self.soc.l2_size, working_set))
        lost = max(0.0, steady - ctx.cache_resident)
        lines = lost / self.soc.l1_line
        return (round(lines * p.dram_latency_ns * 1000), steady)
