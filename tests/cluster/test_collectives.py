"""Collective primitives: correctness, failure semantics, determinism."""

import contextlib
from unittest import mock

from repro.cluster import collectives
from repro.cluster.collectives import (
    COLLECTIVE_ROOT, allgather, allreduce, barrier, recv_match, send_message,
)
from repro.cluster.fabric import MSG_DEATH
from repro.cluster.node import Cluster
from repro.kernels.thread import Thread

SEED = 20260806


def _linear_gather_broadcast(
    cluster, rank, tag, *, op, value, combine, root=COLLECTIVE_ROOT,
    size_bytes=64, send_opts=None,
):
    """Reference oracle for the binomial tree: a flat gather + broadcast.

    Non-roots send a ``contrib`` straight to the root and await the
    ``result`` (or root death); the root collects contributions from
    every currently-live rank (membership re-checked whenever a death
    notice arrives), reduces them in rank order, and broadcasts. Same
    calling convention and return shape as the tree core it stands in
    for; the root's port sees O(N) messages per collective.
    """
    opts = dict(send_opts or {})
    engine = cluster.engine
    if not cluster.alive(root):
        return {"ok": False, "value": None, "t_ps": engine.now,
                "error": "root-failed"}

    def want(kind):
        def match(msg):
            return (msg.kind == kind and msg.tag == tag) or msg.kind == MSG_DEATH
        return match

    if rank == root:
        contribs = {root: value}
        while any(r not in contribs for r in cluster.live_ranks()):
            msg = yield from recv_match(cluster, rank, want("contrib"))
            if msg.kind == MSG_DEATH:
                continue  # live_ranks() already shrank; re-evaluate need.
            contribs[msg.src] = msg.payload
        live = cluster.live_ranks()
        result = combine({r: contribs[r] for r in live})
        for dst in live:
            if dst == root:
                continue
            yield from send_message(
                cluster, root, dst, result,
                kind="result", tag=tag, size_bytes=size_bytes, **opts,
            )
        cluster.record_collective(op, tag, rank)
        return {"ok": True, "value": result, "t_ps": engine.now, "error": None}

    sent = yield from send_message(
        cluster, rank, root, value,
        kind="contrib", tag=tag, size_bytes=size_bytes, **opts,
    )
    if not sent["ok"]:
        return {"ok": False, "value": None, "t_ps": engine.now,
                "error": sent["error"]}
    while True:
        msg = yield from recv_match(cluster, rank, want("result"))
        if msg.kind != MSG_DEATH:
            cluster.record_collective(op, tag, rank)
            return {"ok": True, "value": msg.payload, "t_ps": engine.now,
                    "error": None}
        if not cluster.alive(root):
            return {"ok": False, "value": None, "t_ps": engine.now,
                    "error": "root-failed"}


def _run_collectives(size, seed=SEED, fail_rank=None, fail_at_ps=None,
                     linear=False):
    """Drive one barrier + allreduce + allgather per rank; returns
    (cluster, results-by-rank). ``linear=True`` swaps the tree core for
    the linear oracle under the same public collectives, so both runs
    share one set of combine functions."""
    cluster = Cluster("native", size, seed=seed)
    results = {}

    def proxy(rank):
        def body():
            b = yield from barrier(cluster, rank, tag="b0")
            ar = yield from allreduce(cluster, rank, float(rank + 1), tag="ar0")
            ag = yield from allgather(cluster, rank, rank * 10, tag="ag0")
            results[rank] = {"barrier": b, "allreduce": ar, "allgather": ag}

        return Thread(f"coll.n{rank}", body(), cpu=0, aspace="coll")

    threads = []
    for cnode in cluster.nodes:
        t = proxy(cnode.rank)
        t.cluster_rank = cnode.rank
        cnode.node.spawn_workload_threads([t])
        threads.append(t)
    if fail_rank is not None:
        cluster.engine.schedule_at(
            cluster.engine.now + fail_at_ps, cluster.fail, fail_rank
        )
    core = (
        mock.patch.object(
            collectives, "_tree_gather_broadcast", _linear_gather_broadcast
        )
        if linear else contextlib.nullcontext()
    )
    with core:
        cluster.run(threads, max_seconds=10.0)
    return cluster, results


def test_collectives_compute_correct_values():
    size = 3
    cluster, results = _run_collectives(size)
    assert sorted(results) == [0, 1, 2]
    for rank in range(size):
        r = results[rank]
        assert r["barrier"]["ok"]
        assert r["allreduce"]["ok"]
        # Deterministic rank-order sum: 1 + 2 + 3.
        assert r["allreduce"]["value"] == 6.0
        assert r["allgather"]["value"] == ((0, 0), (1, 10), (2, 20))
    # No rank passes the barrier before the last arrival reaches the root.
    arrive_times = [results[r]["barrier"]["t_ps"] for r in range(size)]
    assert min(arrive_times) > 0
    # Completion order lands in the cluster's collective log (one entry
    # per op per rank) with monotonically consistent timestamps.
    ops = [entry[0] for entry in cluster.collective_log]
    assert ops.count("barrier") == size
    assert ops.count("allreduce") == size
    assert ops.count("allgather") == size


def test_collective_completion_times_are_replay_stable():
    cluster_a, res_a = _run_collectives(3)
    cluster_b, res_b = _run_collectives(3)
    assert res_a == res_b
    assert cluster_a.collective_log == cluster_b.collective_log
    assert cluster_a.digest() == cluster_b.digest()


def test_non_root_failure_reforms_membership():
    size = 4
    # Kill rank 2 shortly after the run starts (1 us, well before the
    # first barrier completes at ~7 us): survivors must complete every
    # collective with membership re-evaluated, no deadlock.
    cluster, results = _run_collectives(
        size, fail_rank=2, fail_at_ps=1_000_000
    )
    assert cluster.failed == [2]
    assert sorted(results) == [0, 1, 3]
    for rank in (0, 1, 3):
        assert results[rank]["allreduce"]["ok"]
        # Rank 2's contribution (3.0) is gone: 1 + 2 + 4.
        assert results[rank]["allreduce"]["value"] == 7.0
        assert results[rank]["allgather"]["value"] == ((0, 0), (1, 10), (3, 30))


def test_root_failure_aborts_cleanly_without_deadlock():
    size = 3
    cluster, results = _run_collectives(
        size, fail_rank=0, fail_at_ps=1_000_000
    )
    assert cluster.failed == [0]
    # Survivors observed the root's death and errored out of whichever
    # collective they were in — nobody hangs, nobody succeeds.
    assert sorted(results) == [1, 2]
    for rank in (1, 2):
        r = results[rank]
        failed_ops = [
            op for op in ("barrier", "allreduce", "allgather")
            if not r[op]["ok"]
        ]
        assert failed_ops, f"rank {rank} should have seen a failed collective"
        assert all(
            r[op]["error"] in ("root-failed", "peer-dead") for op in failed_ops
        )


def test_tree_topology_invariants():
    from repro.cluster.collectives import (
        tree_children, tree_parent, tree_subtree,
    )

    for size in (2, 3, 4, 5, 8, 13, 16, 33, 64):
        seen = set()
        for v in range(size):
            kids = tree_children(v, size)
            assert all(v < c < size for c in kids)
            for c in kids:
                assert tree_parent(c) == v
                assert c not in seen
                seen.add(c)
            members = set(tree_subtree(v, size))
            assert v in members
            for c in kids:
                assert set(tree_subtree(c, size)) <= members
        # Every non-root vrank is exactly one node's child.
        assert seen == set(range(1, size))
        assert tree_parent(0) == 0 and list(tree_subtree(0, size)) == list(
            range(size)
        )


def test_tree_and_linear_agree_on_values():
    size = 8
    _, tree = _run_collectives(size)
    _, linear = _run_collectives(size, linear=True)
    assert sorted(tree) == sorted(linear) == list(range(size))
    for rank in range(size):
        for op in ("barrier", "allreduce", "allgather"):
            assert tree[rank][op]["ok"] and linear[rank][op]["ok"]
        # Float-identical: both combine in the same sorted live-rank order.
        assert tree[rank]["allreduce"]["value"] == linear[rank]["allreduce"]["value"]
        assert tree[rank]["allgather"]["value"] == linear[rank]["allgather"]["value"]


def test_tree_cuts_root_port_messages():
    size = 8
    ctree, _ = _run_collectives(size)
    clinear, _ = _run_collectives(size, linear=True)
    tree_msgs = ctree.fabric.port_stats(0)["messages"]
    linear_msgs = clinear.fabric.port_stats(0)["messages"]
    # Linear: every rank hits rank 0 directly (O(N) per collective);
    # tree: only rank 0's log2(N) direct children do.
    assert tree_msgs < linear_msgs
    # Serialized bytes at the root are conserved — the win is fan-in
    # concentration, not payload accounting.
    assert ctree.fabric.port_stats(0)["busy_ps"] == clinear.fabric.port_stats(0)["busy_ps"]


def test_tree_and_linear_agree_under_interior_death():
    # Rank 2 of 4 is an interior tree node (child rank 3 must re-home to
    # the root): the orphan-repair path must converge on exactly the
    # membership the linear oracle sees.
    size = 4
    kwargs = dict(fail_rank=2, fail_at_ps=1_000_000)
    _, tree = _run_collectives(size, **kwargs)
    _, linear = _run_collectives(size, linear=True, **kwargs)
    assert sorted(tree) == sorted(linear) == [0, 1, 3]
    for rank in (0, 1, 3):
        assert tree[rank]["allreduce"]["ok"]
        assert tree[rank]["allreduce"]["value"] == linear[rank]["allreduce"]["value"] == 7.0
        assert tree[rank]["allgather"]["value"] == linear[rank]["allgather"]["value"]


def test_campaign_cell_completes_through_tree_collectives():
    from repro.cluster.campaign import run_cluster

    cell = run_cluster("native", 4, SEED, supersteps=2, step_compute_s=0.0005)
    # Every BSP step passes its allreduce and nobody fails.
    assert cell["completed_steps"] == 2
    assert cell["failed_ranks"] == []


def test_collectives_identical_with_and_without_observer_jobs():
    """Same (config, seed) cluster cells are bit-identical when fanned
    over the parallel runner at different --jobs levels (satellite:
    barrier/allreduce completion times under --jobs 1 vs --jobs 4)."""
    from repro.cluster.campaign import run_scaling

    kwargs = dict(
        configs=["native"],
        node_counts=[2, 3],
        seed=SEED,
        supersteps=2,
        step_compute_s=0.0005,
    )
    serial = run_scaling(jobs=1, **kwargs)
    parallel = run_scaling(jobs=4, **kwargs)
    assert serial == parallel


def test_collectives_identical_across_jobs_under_node_failure():
    from repro.cluster.campaign import run_scaling

    kwargs = dict(
        configs=["native"],
        node_counts=[3],
        seed=SEED,
        supersteps=3,
        step_compute_s=0.0005,
        fail_rank=1,
        fail_at_ms=0.7,
    )
    serial = run_scaling(jobs=1, **kwargs)
    parallel = run_scaling(jobs=4, **kwargs)
    assert serial == parallel
    cell = serial["cells"]["native@3"]
    assert cell["failed_ranks"] == [1]
    assert cell["fault_injections"] == 1
    # Survivors finished every superstep despite the dead rank.
    assert cell["completed_steps"] == 3
