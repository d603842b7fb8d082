"""Workload protocol.

A workload builds its threads (pinned one per CPU for the HPC benchmarks,
matching the paper's single-workload-per-node evaluation), runs to
completion on a node, and computes its headline metric from the elapsed
simulated time.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.common.units import to_seconds
from repro.kernels.thread import SpinBarrier, Thread
from repro.sim.engine import Engine


class Workload:
    """Base class for benchmark workloads."""

    name = "workload"
    unit = "units/s"
    #: Threads, pinned one per core from core 0.
    nthreads = 4
    #: Address-space key of every thread (cache/TLB warmth tracking).
    aspace = "bench"

    def __init__(self) -> None:
        self.threads: List[Thread] = []
        self.start_ps: Optional[int] = None
        self.end_ps: Optional[int] = None

    # -- to implement -------------------------------------------------------

    def _thread_body(self, tid: int, barrier: Optional[SpinBarrier]):
        """Generator body of thread `tid`."""
        raise NotImplementedError

    def total_work(self) -> float:
        """Total work units completed (for the metric numerator)."""
        raise NotImplementedError

    # -- common machinery ------------------------------------------------------

    def make_threads(self, engine: Engine) -> List[Thread]:
        if self.threads:
            raise SimulationError(f"{self.name}: threads already built")
        barrier = (
            SpinBarrier(engine, self.nthreads, f"{self.name}.barrier")
            if self.nthreads > 1
            else None
        )
        self.barrier = barrier
        for tid in range(self.nthreads):
            body = self._timed_body(tid, barrier, engine)
            self.threads.append(
                Thread(
                    f"{self.name}.t{tid}",
                    body,
                    cpu=tid,
                    aspace=self.aspace,
                    kind="user",
                )
            )
        return self.threads

    def _timed_body(self, tid, barrier, engine):
        def body():
            if tid == 0:
                self.start_ps = engine.now
            result = yield from self._thread_body(tid, barrier)
            if tid == 0 or self.end_ps is None or engine.now > self.end_ps:
                self.end_ps = engine.now
            return result

        return body()

    @property
    def elapsed_s(self) -> float:
        if self.start_ps is None or self.end_ps is None:
            raise SimulationError(f"{self.name}: not finished")
        return to_seconds(self.end_ps - self.start_ps)

    def metric(self) -> float:
        """Headline throughput: total work / elapsed seconds."""
        return self.total_work() / self.elapsed_s

    def extra_metrics(self) -> Dict[str, float]:
        return {}


#: Simulated-time budget of a :class:`WorkloadRun` before it is declared stuck.
RUN_MAX_SECONDS = 300.0


class WorkloadRun:
    """Convenience: build + spawn + run a workload on a node."""

    def __init__(self, node, workload: Workload):
        from repro.core.node import run_until_done

        self.node = node
        self.workload = workload
        threads = workload.make_threads(node.engine)
        node.spawn_workload_threads(threads)
        run_until_done(node, threads, max_seconds=RUN_MAX_SECONDS)

    @property
    def metric(self) -> float:
        return self.workload.metric()
