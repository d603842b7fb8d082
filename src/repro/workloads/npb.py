"""NAS Parallel Benchmarks subset: LU, BT, CG, EP, SP (Figures 9/10).

Each benchmark is a per-iteration phase program whose mix encodes the
real kernel's machine sensitivity:

* **EP** (embarrassingly parallel) — pure compute, tiny footprint, one
  final reduction: immune to everything, as in the paper.
* **CG** (conjugate gradient) — sparse gathers over a (mostly resident)
  vector plus matrix streaming, a couple of reductions per iteration.
* **LU** (SSOR wavefront) — cache-blocked tile compute with *frequent*
  pipelined synchronization: the most noise-sensitive of the suite, the
  one benchmark the paper shows degrading (~3%) under the Linux
  scheduler. Tick/kthread cache pollution forces tile re-warms, and every
  wavefront barrier amplifies per-core delays across all threads.
* **BT / SP** (block-tridiagonal / scalar-pentadiagonal ADI) — plane
  sweeps streaming through memory with moderate compute and coarse
  per-sweep synchronization: mildly sensitive at most.

`metric_mops` calibrates the reported Mop/s numerator to the operation
counts of the paper's build (Figure 10 raw values are in each kernel's
own op accounting); ratios between configurations are what the model
produces mechanistically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.units import KiB, MiB
from repro.kernels.phases import ComputePhase, MemoryPhase
from repro.kernels.thread import BarrierWait, SpinBarrier
from repro.workloads.base import Workload


@dataclass(frozen=True)
class NpbSpec:
    """Per-iteration, per-thread phase recipe of one NPB kernel."""

    name: str
    niter: int
    substeps: int                  # barrier-delimited stages per iteration
    compute_mops: float            # per substep, per thread (millions of ops)
    compute_footprint: int         # cache-resident bytes the compute reuses
    seq_bytes: float               # per substep, per thread
    seq_ws: int                    # working set of the streamed data
    rand_accesses: float           # per iteration, per thread
    rand_ws: int                   # working set of the random gathers
    metric_mops: float             # Mop/s numerator per the NPB op counting


#: Calibrated against Figure 10's native column (see EXPERIMENTS.md):
#: `metric_mops` totals put native throughput at the paper's scale; the
#: phase mixes determine each kernel's sensitivity to the configurations.
NPB_SPECS: Dict[str, NpbSpec] = {
    "ep": NpbSpec(
        name="ep", niter=8, substeps=1,
        compute_mops=40.0, compute_footprint=4 * KiB,
        seq_bytes=0.0, seq_ws=1 * MiB,
        rand_accesses=0.0, rand_ws=1 * MiB,
        metric_mops=0.20,
    ),
    "cg": NpbSpec(
        name="cg", niter=15, substeps=2,
        compute_mops=3.0, compute_footprint=16 * KiB,
        seq_bytes=5.5 * MiB, seq_ws=14 * MiB,
        rand_accesses=120_000.0, rand_ws=2 * MiB,
        metric_mops=2.9,
    ),
    "lu": NpbSpec(
        name="lu", niter=50, substeps=4,
        compute_mops=1.2, compute_footprint=192 * KiB,
        seq_bytes=0.5 * MiB, seq_ws=8 * MiB,
        rand_accesses=0.0, rand_ws=1 * MiB,
        metric_mops=12.5,
    ),
    "bt": NpbSpec(
        name="bt", niter=60, substeps=3,
        compute_mops=3.0, compute_footprint=10 * KiB,
        seq_bytes=3.0 * MiB, seq_ws=40 * MiB,
        rand_accesses=0.0, rand_ws=1 * MiB,
        metric_mops=48.0,
    ),
    "sp": NpbSpec(
        name="sp", niter=100, substeps=3,
        compute_mops=1.2, compute_footprint=8 * KiB,
        seq_bytes=1.5 * MiB, seq_ws=24 * MiB,
        rand_accesses=0.0, rand_ws=1 * MiB,
        metric_mops=17.0,
    ),
}

#: The subset evaluated by the paper (Figures 9/10).
PAPER_SUBSET = ("lu", "bt", "cg", "ep", "sp")


class NpbBenchmark(Workload):
    unit = "Mop/s"

    def __init__(self, spec: NpbSpec):
        super().__init__()
        self.spec = spec
        self.name = f"npb.{spec.name}"

    def _thread_body(self, tid: int, barrier: Optional[SpinBarrier]):
        spec = self.spec
        share = 1.0 / self.nthreads
        ops_per_substep = spec.compute_mops * 1e6
        for _it in range(spec.niter):
            for _s in range(spec.substeps):
                if spec.seq_bytes > 0:
                    yield MemoryPhase(
                        "seq",
                        working_set=spec.seq_ws,
                        total_bytes=spec.seq_bytes,
                        bw_fraction=share,
                    )
                yield ComputePhase(
                    ops_per_substep, footprint_bytes=spec.compute_footprint
                )
                if barrier is not None:
                    yield BarrierWait(barrier)
            if spec.rand_accesses > 0:
                yield MemoryPhase(
                    "rand",
                    working_set=spec.rand_ws,
                    total_accesses=spec.rand_accesses,
                    compute_overlap_ns=1.0,
                )
                if barrier is not None:
                    yield BarrierWait(barrier)
        return "verified"

    def total_work(self) -> float:
        """Mop count per the benchmark's own accounting."""
        return self.spec.metric_mops

    def metric(self) -> float:
        """Mop/s."""
        return self.total_work() / self.elapsed_s

    def extra_metrics(self) -> Dict[str, float]:
        return {
            "iterations": float(self.spec.niter),
            "barrier_episodes": float(
                getattr(self.barrier, "episodes", 0) if self.barrier else 0
            ),
        }


def make_npb(name: str) -> NpbBenchmark:
    try:
        spec = NPB_SPECS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown NPB benchmark {name!r}; available: {sorted(NPB_SPECS)}"
        ) from None
    return NpbBenchmark(spec)
