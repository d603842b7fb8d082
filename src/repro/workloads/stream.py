"""STREAM memory-bandwidth benchmark (Figures 7/8).

Four kernels over three N-element double arrays, `ntimes` repetitions,
all threads in lockstep with a barrier between kernels (the OpenMP
structure of the reference STREAM). Traffic per kernel follows the
standard STREAM byte counting: Copy/Scale move 2 words per element,
Add/Triad move 3.

Streaming is bandwidth-bound, so virtualization barely touches it — the
paper finds the three configurations statistically indistinguishable
(differences within one standard deviation), and so should we.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.units import MiB
from repro.kernels.phases import MemoryPhase
from repro.kernels.thread import BarrierWait, SpinBarrier
from repro.workloads.base import Workload

KERNELS = ("copy", "scale", "add", "triad")
WORDS_MOVED = {"copy": 2, "scale": 2, "add": 3, "triad": 3}
#: flops per element (for completeness of reporting; STREAM reports MB/s)
KERNEL_FLOPS = {"copy": 0, "scale": 1, "add": 1, "triad": 2}


class StreamBenchmark(Workload):
    name = "stream"
    unit = "MB/s"

    def __init__(
        self,
        n_elements: int = 2_000_000,
        ntimes: int = 5,
    ):
        super().__init__()
        self.n = n_elements
        self.ntimes = ntimes
        # Three arrays of N doubles, partitioned across threads.
        self.array_bytes = 8 * n_elements
        self.working_set = 3 * self.array_bytes

    def _per_thread_bytes(self, kernel: str) -> float:
        return WORDS_MOVED[kernel] * self.array_bytes / self.nthreads

    def _thread_body(self, tid: int, barrier: Optional[SpinBarrier]):
        share = 1.0 / self.nthreads
        for _rep in range(self.ntimes):
            for kernel in KERNELS:
                yield MemoryPhase(
                    "seq",
                    working_set=self.working_set,
                    total_bytes=self._per_thread_bytes(kernel),
                    bw_fraction=share,
                )
                if barrier is not None:
                    yield BarrierWait(barrier)
        return "verified"

    def total_work(self) -> float:
        """Total megabytes moved over the whole run."""
        total_bytes = sum(
            WORDS_MOVED[k] * self.array_bytes for k in KERNELS
        ) * self.ntimes
        return total_bytes / 1e6

    def extra_metrics(self) -> Dict[str, float]:
        """Best-rate style per-kernel MB/s assuming uniform kernel rates
        (the phase model prices all four kernels identically per byte)."""
        mbps = self.metric()
        weights = {k: WORDS_MOVED[k] for k in KERNELS}
        wsum = sum(weights.values())
        return {f"{k}_mbps": mbps * weights[k] * len(KERNELS) / wsum for k in KERNELS}
