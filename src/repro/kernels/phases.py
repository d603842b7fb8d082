"""Work phases: the units of execution a thread body yields.

A phase describes a stretch of work abstractly (ops, bytes, accesses); the
kernel's dispatch loop *arms* it — pricing the remaining work against the
current machine state — waits out the priced duration, and *advances* it
by however much simulated time actually elapsed before completion or
interruption. Because phase objects persist across interrupts, preemptions
and VM exits, work is conserved: a phase interrupted at 40% resumes with
60% remaining, plus whatever warm-up cost the interruption's cache/TLB
pollution added (that is the mechanism by which scheduler noise becomes
throughput loss in the reproduced figures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.hw.perfmodel import MemContext, MemEnv, PerfModel, TranslationInfo

if TYPE_CHECKING:
    import numpy as np


@dataclass
class PricingContext:
    """Everything a phase needs to price its next slice."""

    perf: PerfModel
    env: MemEnv
    base_key: tuple
    trans: TranslationInfo
    jitter: Callable[[], float]  # multiplicative noise factor, ~1.0

    def warm(self, tag) -> MemContext:
        """Warmth state of one data structure within this context."""
        return self.env.context(self.base_key + (tag,))

    @staticmethod
    def no_jitter() -> Callable[[], float]:
        return lambda: 1.0


class Phase:
    """Base phase. Subclasses define pricing and progress accounting."""

    def __init__(self):
        self._armed_rate: Optional[float] = None  # work units per ps
        self._armed_warmup_ps: int = 0
        self._gap_start: Optional[int] = None
        self.total_gap_ps = 0

    # -- protocol ------------------------------------------------------------

    @property
    def done(self) -> bool:
        raise NotImplementedError

    def remaining_units(self) -> float:
        raise NotImplementedError

    def _consume_units(self, units: float) -> None:
        raise NotImplementedError

    def _price(self, ctx: PricingContext) -> Tuple[int, float, int]:
        """Return (duration_ps, rate_units_per_ps, warmup_ps) for the
        remaining work."""
        raise NotImplementedError

    # -- driven by the kernel loop ------------------------------------------

    def arm(self, ctx: PricingContext, now: int) -> int:
        """Price the remaining work; note any pending interruption gap.

        Returns the slice duration in ps (>= 1 while work remains).
        """
        if self.done:
            raise SimulationError("arming a completed phase")
        if self._gap_start is not None:
            self.note_gap(self._gap_start, now)
            self._gap_start = None
        duration, rate, warmup = self._price(ctx)
        self._armed_rate = rate
        self._armed_warmup_ps = warmup
        return max(1, duration)

    def advance(self, elapsed_ps: int, now: int, interrupted: bool = False) -> None:
        """Account `elapsed_ps` of execution against the armed pricing."""
        if self._armed_rate is None:
            raise SimulationError("advance() before arm()")
        productive = max(0, elapsed_ps - self._armed_warmup_ps)
        if not interrupted:
            # Completed the armed slice: all remaining armed work is done.
            self._consume_units(self.remaining_units())
        else:
            units = min(self.remaining_units(), productive * self._armed_rate)
            self._consume_units(units)
            self._gap_start = now
        self._armed_rate = None
        self._armed_warmup_ps = 0

    def note_gap(self, start: int, end: int) -> None:
        """An interruption gap [start, end) elapsed while this phase was
        off-CPU (or handling an interrupt). Subclasses may record it."""
        self.total_gap_ps += max(0, end - start)


class ComputePhase(Phase):
    """CPU-bound work: `ops` retired operations at the core's IPC.

    `footprint_bytes` declares the cache-resident data the computation
    reuses (e.g. the tile of an LU wavefront sweep). After a pollution
    event (tick handler, background kthread) the displaced lines must be
    refetched, which is charged as warm-up time on the next slice — the
    dominant way OS noise taxes cache-blocked HPC kernels.
    """

    def __init__(
        self,
        ops: float,
        ipc: Optional[float] = None,
        footprint_bytes: int = 0,
        ctx_tag: Optional[str] = None,
    ):
        super().__init__()
        if ops <= 0:
            raise ConfigurationError("ComputePhase needs positive ops")
        if footprint_bytes < 0:
            raise ConfigurationError("negative footprint")
        self.total_ops = float(ops)
        self.remaining_ops = float(ops)
        self.ipc = ipc
        self.footprint_bytes = footprint_bytes
        self.ctx_tag = ctx_tag or ("fp", footprint_bytes)

    @property
    def done(self) -> bool:
        return self.remaining_ops <= 1e-9

    def remaining_units(self) -> float:
        return self.remaining_ops

    def _consume_units(self, units: float) -> None:
        self.remaining_ops = max(0.0, self.remaining_ops - units)

    def _price(self, ctx: PricingContext) -> Tuple[int, float, int]:
        warm_ps = 0
        if self.footprint_bytes > 0:
            warm = ctx.warm(self.ctx_tag)
            fp = min(self.footprint_bytes, ctx.perf.soc.l2_size)
            warm_ps, steady = ctx.perf.cache_warmup_ps(warm, fp)
            warm.cache_resident = steady
        work_ps = ctx.perf.compute_ps(self.remaining_ops, self.ipc)
        work_ps = max(1, round(work_ps * ctx.jitter()))
        dur = warm_ps + work_ps
        return (dur, self.remaining_ops / work_ps, warm_ps)


class MemoryPhase(Phase):
    """Memory-dominated work.

    pattern="seq": `total_bytes` of streaming traffic (bandwidth-bound),
    e.g. STREAM kernels or the SpMV sweep of HPCG.
    pattern="rand": `total_accesses` uniform accesses over `working_set`
    bytes (latency-bound), e.g. RandomAccess updates. Random phases pay
    TLB warm-up after pollution events and the steady-state two-stage
    translation penalty of the active regime.

    `compute_overlap_ns` adds a per-access (rand) or per-byte (seq) CPU
    cost that does not overlap with memory (address generation etc.).

    `bw_fraction` is this thread's share of the DRAM bus: a 4-thread
    streaming workload gives each thread 0.25 (the cores contend for one
    memory controller). Latency-bound random phases keep full nominal
    latency regardless — bank-level parallelism absorbs 4 in-order cores'
    worth of outstanding misses.
    """

    def __init__(
        self,
        pattern: str,
        working_set: int,
        total_bytes: Optional[float] = None,
        total_accesses: Optional[float] = None,
        compute_overlap_ns: float = 0.0,
        bw_fraction: float = 1.0,
        ctx_tag: Optional[str] = None,
    ):
        super().__init__()
        if pattern not in ("seq", "rand"):
            raise ConfigurationError(f"unknown pattern {pattern!r}")
        if working_set <= 0:
            raise ConfigurationError("working_set must be positive")
        if bw_fraction is None or not 0.0 < bw_fraction <= 1.0:
            raise ConfigurationError(f"bw_fraction {bw_fraction} outside (0,1]")
        self.pattern = pattern
        self.working_set = working_set
        self.extra_ns = compute_overlap_ns
        self.bw_fraction = bw_fraction
        self.ctx_tag = ctx_tag or ("mem", pattern, working_set)
        if pattern == "seq":
            if not total_bytes or total_bytes <= 0:
                raise ConfigurationError("seq phase needs total_bytes")
            self.total_units = float(total_bytes)
        else:
            if not total_accesses or total_accesses <= 0:
                raise ConfigurationError("rand phase needs total_accesses")
            self.total_units = float(total_accesses)
        self.remaining = self.total_units

    @property
    def done(self) -> bool:
        return self.remaining <= 1e-9

    def remaining_units(self) -> float:
        return self.remaining

    def _consume_units(self, units: float) -> None:
        self.remaining = max(0.0, self.remaining - units)

    def _price(self, ctx: PricingContext) -> Tuple[int, float, int]:
        perf = ctx.perf
        warm = ctx.warm(self.ctx_tag)
        if self.pattern == "seq":
            per_unit_ns = (
                perf.stream_ns_per_byte(ctx.trans) / self.bw_fraction
                + self.extra_ns
            )
            # Streaming rewarms the cache as a side effect of running, and
            # barely relies on it, so charge no explicit warm-up time.
            warm_ps = 0
            warm.cache_resident = float(min(self.working_set, perf.soc.l2_size))
        else:
            per_unit_ns = (
                perf.random_access_ns(self.working_set, ctx.trans) + self.extra_ns
            )
            warm_ps, steady_tlb = perf.tlb_warmup_ps(warm, self.working_set, ctx.trans)
            cache_ps, steady_cache = perf.cache_warmup_ps(
                warm, min(self.working_set, perf.soc.l2_size)
            )
            # The workload only relies on the cache to the extent its
            # working set fits (reliance = hit fraction), and a displaced
            # line only costs extra when it would have been re-referenced
            # before natural eviction (again ~reliance): rewarming an
            # already-thrashing cache costs (almost) nothing extra.
            reliance = min(1.0, perf.soc.l2_size / self.working_set)
            warm_ps += round(cache_ps * reliance * reliance)
            warm.tlb_resident = steady_tlb
            warm.cache_resident = steady_cache
        per_unit_ps = per_unit_ns * 1000.0 * ctx.jitter()
        dur = warm_ps + round(self.remaining * per_unit_ps)
        rate = 1.0 / per_unit_ps
        return (max(1, dur), rate, warm_ps)


class SpinPhase(Phase):
    """A timing loop (the selfish-detour benchmark): spins for a fixed
    wall-clock amount of CPU time, recording every interruption gap whose
    latency exceeds `threshold_ps` as a detour (timestamp, latency)."""

    def __init__(self, duration_ps: int, threshold_ps: int, loop_ns: float = 8.0):
        super().__init__()
        if duration_ps <= 0:
            raise ConfigurationError("SpinPhase needs positive duration")
        if threshold_ps <= 0:
            raise ConfigurationError("SpinPhase needs positive threshold")
        self.total_ps = duration_ps
        self.remaining_ps = float(duration_ps)
        self.threshold_ps = threshold_ps
        self.loop_ps = loop_ns * 1000.0  # one loop iteration (min gap seen)
        self.detours: List[Tuple[int, int]] = []  # (time, latency_ps)

    @property
    def done(self) -> bool:
        return self.remaining_ps <= 0.5

    def remaining_units(self) -> float:
        return self.remaining_ps

    def _consume_units(self, units: float) -> None:
        self.remaining_ps = max(0.0, self.remaining_ps - units)

    def _price(self, ctx: PricingContext) -> Tuple[int, float, int]:
        dur = round(self.remaining_ps)
        return (max(1, dur), 1.0, 0)

    def note_gap(self, start: int, end: int) -> None:
        super().note_gap(start, end)
        # The loop observes the gap plus one iteration's own time.
        latency = (end - start) + round(self.loop_ps)
        if latency >= self.threshold_ps:
            self.detours.append((start, latency))

    def detour_times_us(self) -> np.ndarray:
        import numpy as np

        return np.array([t for t, _ in self.detours], dtype=np.int64) / 1e6

    def detour_latencies_us(self) -> np.ndarray:
        import numpy as np

        return np.array([l for _, l in self.detours], dtype=np.int64) / 1e6
