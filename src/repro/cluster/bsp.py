"""Bulk-synchronous (BSP) cluster workload: compute + halo exchange +
allreduce per superstep.

Per node, one thread per core runs the compute phase (the existing
cache-footprint ComputePhase model, so OS noise taxes it exactly as it
taxes the single-node benchmarks), then rendezvouses at an intra-node
spin barrier. Core 0 then acts as the rank's communication proxy: it
exchanges halos with the ring neighbors and joins a cluster-wide
allreduce before the node's threads start the next step.

Because every rank must pass the allreduce to advance, the *slowest*
node's step time becomes the whole cluster's step time — this max-of-N
coupling is what amplifies per-node OS noise at scale (the effect the
scaling campaign measures).

Failure semantics: if a non-root rank dies, the survivors re-form around
it (membership re-evaluated on in-band death notices). If the collective
root (rank 0) dies, every live rank aborts its current superstep cleanly
— recorded in ``aborted`` — rather than deadlocking.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.collectives import (
    COLLECTIVE_ROOT,
    allreduce,
    recv_match,
    send_message,
)
from repro.cluster.fabric import MSG_DEATH
from repro.common.units import KiB
from repro.kernels.phases import ComputePhase
from repro.kernels.thread import BarrierWait, SpinBarrier, Thread

DEFAULT_SUPERSTEPS = 6
DEFAULT_STEP_COMPUTE_S = 0.002
#: Cache-resident bytes each superstep's compute phase reuses.
COMPUTE_FOOTPRINT = 96 * KiB
#: Bytes of one halo message to a ring neighbour.
HALO_BYTES = 8 * KiB


class BspClusterWorkload:
    """Halo-exchange BSP workload spanning every rank of a cluster."""

    def __init__(
        self,
        cluster,
        *,
        supersteps: int = DEFAULT_SUPERSTEPS,
        step_compute_s: float = DEFAULT_STEP_COMPUTE_S,
    ):
        self.cluster = cluster
        self.supersteps = supersteps
        self.step_compute_s = step_compute_s
        self.threads: List[Thread] = []
        self.start_ps: Optional[int] = None
        #: rank -> completion timestamp (ps) of each finished superstep.
        self.step_done_ps: Dict[int, List[int]] = {
            r: [] for r in range(cluster.size)
        }
        #: rank -> superstep at which the rank aborted (root failure).
        self.aborted: Dict[int, int] = {}

    def neighbors(self, rank: int) -> List[int]:
        """Static ring topology (membership is resolved at comm time)."""
        size = self.cluster.size
        return sorted({(rank - 1) % size, (rank + 1) % size} - {rank})

    def spawn(self) -> List[Thread]:
        """Build and spawn one thread per core on every rank."""
        engine = self.cluster.engine
        self.start_ps = engine.now
        for cnode in self.cluster.nodes:
            rank = cnode.rank
            ncpus = cnode.node.machine.soc.num_cores
            intra = SpinBarrier(engine, ncpus, f"bsp.n{rank}.intra")
            state = {"abort": False}
            for tid in range(ncpus):
                thread = Thread(
                    f"bsp.n{rank}.t{tid}",
                    self._body(rank, tid, intra, state),
                    cpu=tid,
                    aspace="bsp",
                )
                # Lets Cluster.run ignore threads stranded on failed ranks.
                thread.cluster_rank = rank
                cnode.node.spawn_workload_threads([thread])
                self.threads.append(thread)
        return self.threads

    # -- thread bodies -------------------------------------------------

    def _body(self, rank: int, tid: int, intra: SpinBarrier, state: Dict):
        cluster = self.cluster
        soc = cluster.nodes[rank].node.machine.soc
        ops = self.step_compute_s * soc.ipc * soc.freq_hz
        for step in range(self.supersteps):
            yield ComputePhase(ops, footprint_bytes=COMPUTE_FOOTPRINT)
            yield BarrierWait(intra)
            if tid == 0:
                ok = yield from self._comm_step(rank, step)
                if ok:
                    self.step_done_ps[rank].append(cluster.engine.now)
                else:
                    state["abort"] = True
                    self.aborted[rank] = step
            # Second rendezvous: the comm proxy arrives even on abort so
            # sibling spinners are always released before anyone exits.
            yield BarrierWait(intra)
            if state["abort"]:
                return {"rank": rank, "tid": tid, "aborted_at": step}
        return {"rank": rank, "tid": tid, "aborted_at": None}

    def _comm_step(self, rank: int, step: int):
        """Core-0 communication phase: ring halo exchange + allreduce.
        Returns False when the rank must abort (collective root died)."""
        cluster = self.cluster
        ring = self.neighbors(rank)
        for nb in ring:
            if not cluster.alive(nb):
                continue
            sent = yield from send_message(
                cluster, rank, nb, ("halo", step),
                kind="halo", tag=("halo", step), size_bytes=HALO_BYTES,
            )
            if not sent["ok"] and sent["error"] not in ("peer-dead", "self-dead"):
                return False  # backoff exhausted: treat as partition

        got: List[int] = []

        def match(msg) -> bool:
            return (
                msg.kind == "halo"
                and msg.tag == ("halo", step)
                and msg.src in ring
            ) or msg.kind == MSG_DEATH

        while True:
            need = [
                nb for nb in ring if cluster.alive(nb) and nb not in got
            ]
            if not need:
                break
            msg = yield from recv_match(cluster, rank, match)
            if msg.kind == MSG_DEATH:
                if not cluster.alive(COLLECTIVE_ROOT):
                    return False
                continue  # neighbor membership re-evaluated above
            got.append(msg.src)

        result = yield from allreduce(
            cluster, rank, float(step + rank), tag=("bsp-ar", step)
        )
        return bool(result["ok"])

    # -- metrics -------------------------------------------------------

    def completed_steps(self, rank: int = 0) -> int:
        return len(self.step_done_ps.get(rank, []))

    def step_durations_ps(self, rank: int = 0) -> List[int]:
        """Per-superstep wall time (ps) observed at ``rank``."""
        if self.start_ps is None:
            return []
        out: List[int] = []
        prev = self.start_ps
        for t in self.step_done_ps.get(rank, []):
            out.append(t - prev)
            prev = t
        return out
