"""HPCG mini-app (Figures 7/8).

The phase model follows HPCG's per-iteration structure: a symmetric
Gauss-Seidel preconditioner application (two SpMV-weight sweeps), one
SpMV, and the CG vector updates/dot products. Sweeps stream the matrix
(sequential, bandwidth-bound) while the `x`-vector gathers add a modest
random component whose working set is the vector, not the matrix — which
is why HPCG, unlike RandomAccess, is barely hurt by two-stage translation
(the vector stays TLB/cache resident).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.kernels.phases import ComputePhase, MemoryPhase
from repro.kernels.thread import BarrierWait, SpinBarrier
from repro.workloads.base import Workload

NNZ_PER_ROW = 27          # 27-point stencil
BYTES_PER_NNZ = 12        # 8B value + 4B column index
SYMGS_SWEEPS = 2          # forward + backward
DOTS_PER_ITER = 5         # CG dot products / axpys touching vectors


class HpcgBenchmark(Workload):
    name = "hpcg"
    unit = "GFLOP/s"

    def __init__(self, nx: int = 48, iterations: int = 25, threads: int = 4):
        super().__init__(threads=threads)
        self.nx = nx
        self.rows = nx**3
        self.nnz = NNZ_PER_ROW * self.rows
        self.iterations = iterations
        self.matrix_bytes = self.nnz * BYTES_PER_NNZ
        self.vector_bytes = 8 * self.rows

    # Flop counting follows the HPCG report: 2 flops per nonzero per
    # sweep, 2 per vector element per dot/axpy.
    def flops_per_iteration(self) -> float:
        sweeps = 1 + SYMGS_SWEEPS  # SpMV + SymGS fwd/bwd
        return 2.0 * self.nnz * sweeps + 2.0 * self.rows * DOTS_PER_ITER

    def _thread_body(self, tid: int, barrier: Optional[SpinBarrier]):
        share = 1.0 / self.nthreads
        sweep_bytes = (self.matrix_bytes + 2 * self.vector_bytes) / self.nthreads
        gather_accesses = 0.15 * self.nnz / self.nthreads
        vec_bytes = DOTS_PER_ITER * 2 * self.vector_bytes / self.nthreads
        for _it in range(self.iterations):
            # SymGS + SpMV: matrix streaming with x-vector gathers.
            for _sweep in range(1 + SYMGS_SWEEPS):
                yield MemoryPhase(
                    "seq",
                    working_set=self.matrix_bytes,
                    total_bytes=sweep_bytes,
                    bw_fraction=share,
                    compute_overlap_ns=0.0,
                )
                if barrier is not None:
                    yield BarrierWait(barrier)
            yield MemoryPhase(
                "rand",
                working_set=self.vector_bytes,
                total_accesses=gather_accesses,
            )
            # Dot products / vector updates (+ their reduction barrier).
            yield MemoryPhase(
                "seq",
                working_set=self.vector_bytes,
                total_bytes=vec_bytes,
                bw_fraction=share,
            )
            if barrier is not None:
                yield BarrierWait(barrier)
        return "converged"

    def total_work(self) -> float:
        """Total gigaflops executed."""
        return self.iterations * self.flops_per_iteration() / 1e9

    def extra_metrics(self) -> Dict[str, float]:
        return {"rows": float(self.rows), "nnz": float(self.nnz)}
