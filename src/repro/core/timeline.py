"""Execution timelines reconstructed from the scheduler trace.

Turns the ``sched.switch`` trace stream into per-CPU interval lists —
who ran where, when — for debugging, for tests that assert scheduling
behaviour, and for ASCII Gantt rendering in examples. (The timeline shows
*dispatch* intervals of a kernel's CPU slots; time a VCPU thread spends
running its guest counts as that VCPU thread's interval.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.trace import Tracer

#: Threads named in each CPU row's legend of :meth:`Timeline.render`.
LEGEND_THREADS = 8


@dataclass(frozen=True)
class Interval:
    """One dispatch interval on one CPU."""

    cpu: str          # subject, e.g. "linux-primary.cpu2"
    thread: str
    start_ps: int
    end_ps: Optional[int]  # None = still running at trace end

    def duration_ps(self, horizon_ps: int) -> int:
        end = self.end_ps if self.end_ps is not None else horizon_ps
        return max(0, end - self.start_ps)


class Timeline:
    """Per-CPU dispatch history of one (or all) kernels."""

    def __init__(self, intervals: Dict[str, List[Interval]], horizon_ps: int):
        self.per_cpu = intervals
        self.horizon_ps = horizon_ps

    @staticmethod
    def from_tracer(
        tracer: Tracer,
        kernel: Optional[str] = None,
        horizon_ps: Optional[int] = None,
    ) -> "Timeline":
        records = tracer.filter("sched.switch")
        if kernel is not None:
            records = [r for r in records if r.subject.startswith(kernel + ".")]
        horizon = horizon_ps
        if horizon is None:
            horizon = max((r.time for r in records), default=0)
        per_cpu: Dict[str, List[Interval]] = {}
        open_iv: Dict[str, Interval] = {}
        for r in sorted(records, key=lambda r: r.time):
            cpu = r.subject
            prev = open_iv.pop(cpu, None)
            if prev is not None:
                per_cpu.setdefault(cpu, []).append(
                    Interval(cpu, prev.thread, prev.start_ps, r.time)
                )
            open_iv[cpu] = Interval(cpu, r.data["next"], r.time, None)
        for cpu, iv in open_iv.items():
            per_cpu.setdefault(cpu, []).append(iv)
        return Timeline(per_cpu, horizon)

    # -- queries -----------------------------------------------------------

    def cpus(self) -> List[str]:
        return sorted(self.per_cpu)

    def intervals(self, cpu: str) -> List[Interval]:
        return self.per_cpu.get(cpu, [])

    def busy_ps(self, cpu: str, thread_prefix: str = "") -> int:
        return sum(
            iv.duration_ps(self.horizon_ps)
            for iv in self.intervals(cpu)
            if iv.thread.startswith(thread_prefix)
        )

    def share(self, cpu: str, thread_prefix: str) -> float:
        """Fraction of the cpu's *dispatched* time that matched threads got."""
        total = self.busy_ps(cpu)
        return self.busy_ps(cpu, thread_prefix) / total if total else 0.0

    def switch_count(self, cpu: str) -> int:
        return max(0, len(self.intervals(cpu)) - 1)

    def threads_seen(self, cpu: str) -> List[str]:
        seen: List[str] = []
        for iv in self.intervals(cpu):
            if iv.thread not in seen:
                seen.append(iv.thread)
        return seen

    # -- rendering -----------------------------------------------------------

    def render(self, width: int = 72) -> str:
        """ASCII Gantt: one row per CPU, a letter per thread."""
        lines = []
        for cpu in self.cpus():
            ivs = self.intervals(cpu)
            letters: Dict[str, str] = {}
            row = [" "] * width
            for iv in ivs:
                if iv.thread not in letters:
                    letters[iv.thread] = chr(ord("A") + (len(letters) % 26))
                a = min(width - 1, int(iv.start_ps / max(1, self.horizon_ps) * width))
                end = iv.end_ps if iv.end_ps is not None else self.horizon_ps
                b = min(width, max(a + 1, int(end / max(1, self.horizon_ps) * width)))
                for x in range(a, b):
                    row[x] = letters[iv.thread]
            lines.append(f"{cpu:>24s} |{''.join(row)}|")
            legend = ", ".join(
                f"{v}={k}" for k, v in list(letters.items())[:LEGEND_THREADS]
            )
            lines.append(f"{'':>24s}  {legend}")
        return "\n".join(lines)
