"""Cluster assembly: N existing :class:`repro.core.node.Node` machines on
one shared :class:`repro.sim.engine.Engine`, wired to a
:class:`repro.cluster.fabric.NetworkFabric`.

Every node is built by the ordinary ``core.configs.build_node`` path —
boot chain, SPM, primary/guest kernels, noise models all included — with
``trial`` derived from its rank so each node draws independent (but
seed-deterministic) noise streams. Because they share one engine, cross-
node timing interleaves on a single simulated clock: exactly what the
BSP amplification measurement needs.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.units import seconds
from repro.core.configs import build_node
from repro.core.node import Node
from repro.cluster.fabric import NetMessage, NetworkFabric
from repro.kernels.thread import Thread, ThreadState
from repro.sim.engine import Engine, Signal

#: Rank multiplier reserving a per-node band of RNG trial numbers, so
#: (seed, trial, rank) cells never collide across campaign trials.
TRIAL_STRIDE = 4096


class NodeInterface:
    """A rank's NIC receive side: an unbounded RX queue plus a wake
    signal. ``take`` removes the first matching message (FIFO within the
    deterministic delivery order); blocked receivers wait on
    ``recv_signal`` with a ready-predicate over ``peek``."""

    def __init__(self, engine: Engine, rank: int):
        self.engine = engine
        self.rank = rank
        self.rx: List[NetMessage] = []
        self.recv_signal = Signal(engine, f"cluster.nic{rank}.recv")
        self.delivered = 0

    def deliver(self, msg: NetMessage) -> None:
        self.rx.append(msg)
        self.delivered += 1
        self.recv_signal.fire(msg)

    def peek(self, match) -> Optional[NetMessage]:
        for msg in self.rx:
            if match(msg):
                return msg
        return None

    def take(self, match) -> Optional[NetMessage]:
        for i, msg in enumerate(self.rx):
            if match(msg):
                return self.rx.pop(i)
        return None


class ClusterNode:
    """One rank: an ordinary booted Node plus its NIC."""

    def __init__(self, cluster: "Cluster", rank: int, node: Node):
        self.cluster = cluster
        self.rank = rank
        self.node = node
        self.nic = NodeInterface(cluster.engine, rank)
        cluster.fabric.attach(rank, self.nic.deliver)
        # Back-references used by the fault injector's node-failure kind.
        node.cluster = cluster
        node.rank = rank

    def __repr__(self) -> str:  # pragma: no cover
        return f"ClusterNode(rank={self.rank}, {self.node.config_name})"


class Cluster:
    """N nodes of one configuration on a shared engine + fabric."""

    def __init__(
        self,
        config: str,
        size: int,
        *,
        seed: int = 0xC0FFEE,
        trial: int = 0,
    ):
        if size < 2:
            raise ConfigurationError(f"cluster size must be >= 2, got {size}")
        if size >= TRIAL_STRIDE:
            raise ConfigurationError(f"cluster size must be < {TRIAL_STRIDE}")
        self.config = config
        self.size = size
        self.seed = seed
        self.trial = trial
        self.engine = Engine()
        self.fabric = NetworkFabric(self.engine, size)
        self.nodes: List[ClusterNode] = []
        self.failed: List[int] = []
        self.failures: List[Dict[str, Any]] = []
        #: Per-rank memory of recently completed collectives (str(tag) ->
        #: result), used by the tree algorithm to answer stragglers whose
        #: gather parent died after the collective finished.
        self.collective_memory: List[Dict[str, Any]] = [
            {} for _ in range(size)
        ]
        #: (op, tag, rank, t_ps) completion tuples, in simulation order.
        self.collective_log: List[tuple] = []
        for rank in range(size):
            node = build_node(
                config,
                seed=seed,
                trial=trial * TRIAL_STRIDE + rank,
                engine=self.engine,
            )
            self.nodes.append(ClusterNode(self, rank, node))

    # -- membership ----------------------------------------------------

    def alive(self, rank: int) -> bool:
        return rank not in self.failed

    def live_ranks(self) -> List[int]:
        return [r for r in range(self.size) if r not in self.failed]

    def fail(self, rank: int, reason: str = "node-failure") -> None:
        """Kill a whole rank: panic its host kernel (freezing every VM on
        the node, since guest VCPUs are driven by primary threads) and
        partition it off the fabric. Death notices go out in-band."""
        if not (0 <= rank < self.size):
            raise ConfigurationError(f"bad rank {rank} (size {self.size})")
        if rank in self.failed:
            return
        self.failed.append(rank)
        cnode = self.nodes[rank]
        host = cnode.node.kernels.get("native") or cnode.node.kernels.get("primary")
        if host is not None:
            host.panic(reason)
        self.fabric.fail_rank(rank)
        self.failures.append(
            {"rank": rank, "at_ps": self.engine.now, "reason": reason}
        )
        cnode.node.machine.trace("cluster.node_failure", f"rank{rank}",
                                 reason=reason)

    # -- bookkeeping ---------------------------------------------------

    def record_collective(self, op: str, tag: Any, rank: int) -> None:
        t = self.engine.now
        self.collective_log.append((op, str(tag), rank, t))
        self.nodes[rank].node.machine.trace(
            "cluster.collective", f"rank{rank}", op=op, tag=str(tag)
        )

    def run(self, threads: List[Thread], *, max_seconds: float = 120.0) -> int:
        """Advance the shared engine until every thread on a still-live
        rank is dead (threads stranded on failed ranks are frozen by the
        host panic and don't count). Raises on deadline, naming the
        stuck threads — same contract as ``core.node.run_until_done``."""
        engine = self.engine
        deadline = engine.now + seconds(max_seconds)
        step = seconds(0.05)  # polling slice

        def pending() -> List[Thread]:
            dead_set = self.failed
            return [
                t
                for t in threads
                if t.state != ThreadState.DEAD
                and getattr(t, "cluster_rank", None) not in dead_set
            ]

        while engine.now < deadline:
            if not pending():
                return engine.now
            engine.run_until(min(deadline, engine.now + step))
        stuck = [t.name for t in pending()]
        if stuck:
            raise SimulationError(
                f"cluster workload did not finish within {max_seconds}s "
                f"simulated: stuck threads {stuck}"
            )
        return engine.now

    def digest(self) -> str:
        """Cluster-wide determinism digest: per-node trace digests in rank
        order + engine totals + the collective completion log."""
        h = hashlib.sha256()
        for cnode in self.nodes:
            h.update(cnode.node.machine.tracer.digest_records().encode())
        h.update(repr((self.engine.now, self.engine.events_fired)).encode())
        h.update(repr(self.collective_log).encode())
        h.update(repr(sorted(self.fabric.stats().items())).encode())
        return h.hexdigest()
