"""Discrete-event interconnect fabric.

Models the cluster network the way the rest of the simulator models
hardware: integer-picosecond costs, deterministic ordering, no hidden
randomness. Each destination rank owns an *ingress port* — the
serialization point of its NIC — with three cost components:

* **serialization**: ``size_bytes / bandwidth`` occupancy on the port;
* **queueing**: FIFO delay behind messages already occupying the port
  (``start = max(now, busy_until)``), accounted deterministically;
* **propagation**: a fixed per-hop ``DEFAULT_LATENCY_PS`` after
  serialization.

Ports have bounded capacity: a ``submit`` while ``DEFAULT_PORT_CAPACITY``
messages are already queued-or-serializing returns BUSY *at send time*,
so senders back off and retry (``send_message`` in
:mod:`repro.cluster.collectives`). This mirrors the single-slot Hafnium
mailbox flow-control shape at cluster scale.

Node failure (:meth:`NetworkFabric.fail_rank`) drops traffic to and from
the dead rank and broadcasts a ``death`` notice to every live NIC through
the normal delivery path, so blocked receivers wake deterministically and
collectives can re-evaluate membership instead of deadlocking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.sim.engine import Engine, PRIO_HW

#: Fixed per-hop propagation delay (~HPC-class RDMA fabric), picoseconds.
DEFAULT_LATENCY_PS = 1_500_000  # 1.5 us

#: Link bandwidth in bytes/second (100 Gb/s).
DEFAULT_BANDWIDTH_BPS = 12_500_000_000.0

#: Messages admitted per ingress port before senders see BUSY.
DEFAULT_PORT_CAPACITY = 16

MSG_DEATH = "death"


@dataclass(frozen=True)
class NetMessage:
    """One fabric message. ``tag`` must be a repr-stable primitive (str /
    int / tuple thereof) because completion records derived from it feed
    the determinism digest."""

    src: int
    dst: int
    kind: str
    tag: Any
    payload: Any
    size_bytes: int
    sent_at_ps: int
    seq: int


class IngressPort:
    """Serialization point of one rank's NIC (FIFO, bounded)."""

    def __init__(self, fabric: "NetworkFabric", rank: int):
        self.fabric = fabric
        self.rank = rank
        self.busy_until_ps = 0
        self.queued = 0
        self.max_depth = 0
        self.messages = 0
        self.bytes = 0
        self.queue_delay_ps = 0
        self.busy_rejections = 0
        #: Total serialization occupancy (ps) — how long this NIC's wire
        #: was busy. The root port's value is the collectives' O(N) vs
        #: O(log N) hotspot measurement.
        self.busy_ps = 0

    def submit(self, msg: NetMessage) -> Dict[str, Any]:
        if self.queued >= DEFAULT_PORT_CAPACITY:
            self.busy_rejections += 1
            return {"ok": False, "busy": True, "error": "port-busy"}
        engine = self.fabric.engine
        now = engine.now
        ser_ps = self.fabric.serialization_ps(msg.size_bytes)
        start = now if now > self.busy_until_ps else self.busy_until_ps
        self.queue_delay_ps += start - now
        self.busy_ps += ser_ps
        self.busy_until_ps = start + ser_ps
        self.queued += 1
        self.max_depth = self.queued if self.queued > self.max_depth else self.max_depth
        self.messages += 1
        self.bytes += msg.size_bytes
        engine.schedule_at(self.busy_until_ps, self._serialized, priority=PRIO_HW)
        engine.schedule_at(
            self.busy_until_ps + DEFAULT_LATENCY_PS,
            self.fabric._deliver,
            msg,
            priority=PRIO_HW,
        )
        return {"ok": True, "busy": False, "queue_delay_ps": start - now}

    def _serialized(self) -> None:
        self.queued -= 1


class NetworkFabric:
    """All-to-all interconnect between ``size`` ranks on one engine."""

    def __init__(self, engine: Engine, size: int):
        if size < 2:
            raise ConfigurationError(f"a cluster fabric needs >= 2 ranks, got {size}")
        self.engine = engine
        self.size = size
        self.ports: List[IngressPort] = [IngressPort(self, r) for r in range(size)]
        # deliver(msg) sinks, one per rank, installed by the NIC layer.
        self.sinks: List[Optional[Callable[[NetMessage], None]]] = [None] * size
        self.dead: List[bool] = [False] * size
        self._seq = 0
        self.dropped = 0

    def serialization_ps(self, size_bytes: int) -> int:
        return int(round(size_bytes * 1e12 / DEFAULT_BANDWIDTH_BPS))

    def attach(self, rank: int, sink: Callable[[NetMessage], None]) -> None:
        self.sinks[rank] = sink

    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        *,
        kind: str,
        tag: Any,
        size_bytes: int = 64,
    ) -> Dict[str, Any]:
        """Submit one message; returns ``{"ok", "busy", ...}`` at send time
        (BUSY when the destination ingress port is saturated — retry with
        backoff; a dead endpoint is a hard error so retry loops break)."""
        if not (0 <= src < self.size and 0 <= dst < self.size):
            raise ConfigurationError(f"bad ranks {src}->{dst} (size {self.size})")
        if self.dead[dst]:
            return {"ok": False, "busy": False, "error": "peer-dead"}
        if self.dead[src]:
            return {"ok": False, "busy": False, "error": "self-dead"}
        self._seq += 1
        msg = NetMessage(
            src=src,
            dst=dst,
            kind=kind,
            tag=tag,
            payload=payload,
            size_bytes=int(size_bytes),
            sent_at_ps=self.engine.now,
            seq=self._seq,
        )
        return self.ports[dst].submit(msg)

    def _deliver(self, msg: NetMessage) -> None:
        # Liveness is re-checked at delivery time: traffic already in
        # flight to or from a rank that died mid-flight is dropped.
        if self.dead[msg.dst] or (self.dead[msg.src] and msg.kind != MSG_DEATH):
            self.dropped += 1
            return
        sink = self.sinks[msg.dst]
        if sink is None:
            self.dropped += 1
            return
        sink(msg)

    def fail_rank(self, rank: int) -> None:
        """Mark ``rank`` dead and notify every live NIC via an in-band
        ``death`` message (normal delivery latency), waking any blocked
        receiver so collectives re-evaluate membership."""
        if self.dead[rank]:
            return
        self.dead[rank] = True
        for dst in range(self.size):
            if dst == rank or self.dead[dst]:
                continue
            self._seq += 1
            notice = NetMessage(
                src=rank,
                dst=dst,
                kind=MSG_DEATH,
                tag=("death", rank),
                payload=rank,
                size_bytes=0,
                sent_at_ps=self.engine.now,
                seq=self._seq,
            )
            self.engine.schedule(DEFAULT_LATENCY_PS, self._deliver, notice,
                                 priority=PRIO_HW)

    def port_stats(self, rank: int) -> Dict[str, Any]:
        """One ingress port's counters (the campaign reports rank 0's —
        the collective root — to show the O(N) vs O(log N) hotspot)."""
        port = self.ports[rank]
        return {
            "messages": port.messages,
            "bytes": port.bytes,
            "busy_ps": port.busy_ps,
            "queue_delay_ps": port.queue_delay_ps,
            "busy_rejections": port.busy_rejections,
            "max_depth": port.max_depth,
        }

    def stats(self) -> Dict[str, Any]:
        """Aggregate counters (all ints — repr-stable for digests)."""
        return {
            "messages": sum(p.messages for p in self.ports),
            "bytes": sum(p.bytes for p in self.ports),
            "busy_rejections": sum(p.busy_rejections for p in self.ports),
            "queue_delay_ps": sum(p.queue_delay_ps for p in self.ports),
            "max_port_depth": max(p.max_depth for p in self.ports),
            "dropped": self.dropped,
            "dead_ranks": sum(1 for d in self.dead if d),
        }
