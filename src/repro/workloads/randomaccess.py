"""HPCC RandomAccess (GUPS) benchmark (Figures 7/8).

Random 64-bit XOR updates over a large table: the lowest TLB hit rate of
any benchmark in the suite, so the most sensitive to two-stage address
translation — "this additional overhead will be particularly noticeable
in the RandomAccess benchmark due to its low TLB hit rates" (Section
V-b). The GUPS convention performs 4x(table entries) updates total.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.units import MiB
from repro.kernels.phases import MemoryPhase
from repro.kernels.thread import BarrierWait, SpinBarrier
from repro.workloads.base import Workload

#: Barrier-delimited chunks per thread (the MPI version syncs).
CHUNKS = 8


class RandomAccessBenchmark(Workload):
    name = "randomaccess"
    unit = "GUP/s"

    def __init__(
        self,
        table_bytes: int = 64 * MiB,
        updates_per_entry: float = 4.0,
    ):
        super().__init__()
        self.table_bytes = table_bytes
        self.entries = table_bytes // 8
        self.total_updates = updates_per_entry * self.entries

    def _thread_body(self, tid: int, barrier: Optional[SpinBarrier]):
        per_thread = self.total_updates / self.nthreads
        per_chunk = per_thread / CHUNKS
        for _c in range(CHUNKS):
            yield MemoryPhase(
                "rand",
                working_set=self.table_bytes,
                total_accesses=per_chunk,
                compute_overlap_ns=2.0,  # RNG + XOR per update
            )
            if barrier is not None:
                yield BarrierWait(barrier)
        return "done"

    def total_work(self) -> float:
        """Giga-updates."""
        return self.total_updates / 1e9

    def extra_metrics(self) -> Dict[str, float]:
        return {"updates": self.total_updates, "table_mib": self.table_bytes / MiB}
