"""Multi-node cluster simulation (scale-out layer over ``repro.core``).

The paper's Kitten/Hafnium machine is one HPC *compute node*; what a
low-noise LWK primary buys you only shows at scale, where bulk-synchronous
collectives amplify every node's worst local detour into whole-cluster
slack. This package instantiates N existing :class:`repro.core.node.Node`
machines inside one shared :class:`repro.sim.engine.Engine`, connects them
with a discrete-event :class:`NetworkFabric`, and layers mailbox-style
messaging, collective primitives, and a BSP workload on top — all under
the same (config, seed) -> bit-identical-trace determinism contract as the
single-node models.
"""

from repro.cluster.fabric import NetworkFabric, NetMessage
from repro.cluster.node import Cluster, ClusterNode, NodeInterface
from repro.cluster.collectives import (
    allgather,
    allreduce,
    barrier,
    recv_match,
    send_message,
)
from repro.cluster.bsp import BspClusterWorkload
from repro.cluster.campaign import run_cluster, run_scaling

__all__ = [
    "NetworkFabric",
    "NetMessage",
    "Cluster",
    "ClusterNode",
    "NodeInterface",
    "send_message",
    "recv_match",
    "barrier",
    "allreduce",
    "allgather",
    "BspClusterWorkload",
    "run_cluster",
    "run_scaling",
]
