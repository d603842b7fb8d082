"""Collective primitives over the cluster fabric.

These are generator *fragments*: thread bodies compose them with
``yield from`` so every CPU cost (per-message software overhead), sleep
(retry backoff) and block (waiting on the NIC's receive signal) runs
through the ordinary kernel dispatch loop — meaning OS noise on the
hosting config delays messaging exactly as it delays compute. That
coupling is the mechanism behind BSP noise amplification.

``send_message`` follows the Hafnium mailbox's flow-control discipline:
BUSY from a saturated ingress port backs off exponentially
(``RETRY_BASE_BACKOFF_PS << attempt``) up to ``RETRY_MAX_ATTEMPTS``
tries; a non-busy failure (dead peer) breaks out immediately.

``allreduce`` runs as a binomial tree rooted at rank 0: each rank
merges its subtree's *coverage* (a rank-keyed contribution dict) and
forwards one message to its parent, so the root's ingress port handles
O(log N) messages per collective rather than O(N). The reduction itself
happens only at the root, over the rank-sorted contributions of the live
set, so the values do not depend on the shape of the tree.

Collectives tolerate node failure: in-band ``death`` notices wake
blocked participants, gather membership is re-evaluated against the
live set, and a dead root makes the collective return
``{"ok": False, "error": "root-failed"}`` rather than deadlock. Interior
deaths are repaired: orphaned subtrees re-send their coverage to the
nearest live ancestor (the binomial parent chain guarantees the orphan's
ancestor path passes through the dead parent's own parent), and each
rank keeps a small memory of recently completed collectives so a
straggler's duplicate coverage is answered with the stored result
instead of being lost. A caller that receives between collectives
(the BSP halo exchange) answers such stragglers too, through
:func:`is_stale_coverage` and :func:`service_stale`: the straggler may be
the very peer it is waiting on. Remaining limitation: an orphan whose
repair lands on a rank that has already finished its *entire* workload
(nothing left to service the request) will hang until the cluster
deadline — only reachable when a rank dies inside the final collective
of a run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.cluster.fabric import MSG_DEATH, NetMessage
from repro.kernels.phases import ComputePhase
from repro.kernels.thread import Sleep, WaitEvent

#: Software cost of posting/draining one message (ops on the sending
#: core): syscall-ish overhead where per-message OS noise couples in.
SEND_CPU_OPS = 2500.0

COLLECTIVE_ROOT = 0

#: Size of one collective message (per rank of coverage on the way up).
MESSAGE_BYTES = 64

#: Send tries before BUSY counts as failure. The backoff between tries
#: doubles: 50 us, 100 us, 200 us, ... — long enough for a busy port to
#: drain, short next to the ~100 ms scheduler quantum.
RETRY_MAX_ATTEMPTS = 8
RETRY_BASE_BACKOFF_PS = 50_000_000


def send_message(
    cluster,
    src: int,
    dst: int,
    payload: Any,
    *,
    kind: str,
    tag: Any,
    size_bytes: int = MESSAGE_BYTES,
):
    """Yield-from fragment: send with mailbox-style retry/backoff.

    Returns ``{"ok": bool, "attempts": int, "error": Optional[str]}``.
    """
    attempt = 0
    result: Dict[str, Any] = {"ok": False, "busy": False, "error": "not-sent"}
    while attempt < RETRY_MAX_ATTEMPTS:
        # Per-attempt software overhead (fresh phase object per yield).
        yield ComputePhase(SEND_CPU_OPS)
        result = cluster.fabric.send(
            src, dst, payload, kind=kind, tag=tag, size_bytes=size_bytes
        )
        attempt += 1
        if result["ok"]:
            return {"ok": True, "attempts": attempt, "error": None}
        if not result.get("busy"):
            break
        if attempt < RETRY_MAX_ATTEMPTS:
            yield Sleep(RETRY_BASE_BACKOFF_PS << (attempt - 1))
    return {"ok": False, "attempts": attempt, "error": result.get("error")}


def recv_match(cluster, rank: int, match: Callable[[NetMessage], bool]):
    """Yield-from fragment: block until a matching message arrives on this
    rank's NIC, then consume and return it. The match predicate should
    also accept ``death`` notices when membership changes matter — a
    blocked receiver is only woken by messages it matches."""
    nic = cluster.nodes[rank].nic
    while True:
        msg = nic.take(match)
        if msg is not None:
            return msg
        yield WaitEvent(
            nic.recv_signal, ready=lambda: nic.peek(match) is not None
        )


#: Completed (tag -> result) entries each rank remembers for straggler
#: servicing; oldest evicted beyond this.
COLLECTIVE_MEMORY = 16


def is_stale_coverage(cluster, rank: int, msg: NetMessage) -> bool:
    """A straggler's coverage for a collective `rank` already finished."""
    return msg.kind == "coverage" and str(msg.tag) in cluster.collective_memory[rank]


def service_stale(cluster, rank: int, msg: NetMessage):
    """Yield-from fragment: answer stale coverage with the stored result."""
    stored = cluster.collective_memory[rank].get(str(msg.tag))
    if stored is not None:
        yield from send_message(
            cluster, rank, msg.src, stored, kind="result", tag=msg.tag,
        )


def tree_parent(v: int) -> int:
    """Binomial-tree parent of virtual rank ``v`` (> 0): clear the lowest
    set bit."""
    return v & (v - 1)


def tree_children(v: int, size: int) -> List[int]:
    """Binomial-tree children of virtual rank ``v``: ``v + 2**k`` for
    every ``2**k`` below ``v``'s lowest set bit (any power for the root),
    clipped to the cluster."""
    span = (v & -v) if v else size
    out: List[int] = []
    k = 1
    while k < span and v + k < size:
        out.append(v + k)
        k <<= 1
    return out


def tree_subtree(v: int, size: int) -> range:
    """Virtual ranks covered by ``v``'s subtree: the contiguous block
    ``[v, v + lowbit(v))`` (the whole cluster for the root)."""
    span = (v & -v) if v else size
    return range(v, min(v + span, size))


def _tree_gather_broadcast(
    cluster,
    rank: int,
    tag: Any,
    *,
    op: str,
    value: Any,
    combine: Callable[[Dict[int, Any]], Any],
):
    """Binomial-tree gather + broadcast core of :func:`allreduce` (see
    the module docstring). The tree is rooted at ``COLLECTIVE_ROOT``
    (rank 0), so a rank is its own tree position.

    Gather moves *coverage dicts* — ``{rank: contribution}`` for
    everything a subtree has heard from — up the tree; the reduction is
    applied once, at the root, over the live ranks in sorted order.
    Results flow back down along the edges that actually carried
    coverage. Returns ``{"ok", "value", "t_ps", "error"}``.
    """
    engine = cluster.engine
    size = cluster.size
    memory = cluster.collective_memory[rank]
    if not cluster.alive(COLLECTIVE_ROOT):
        return {"ok": False, "value": None, "t_ps": engine.now,
                "error": "root-failed"}

    def remember(result: Any) -> None:
        memory[str(tag)] = result
        while len(memory) > COLLECTIVE_MEMORY:
            memory.pop(next(iter(memory)))

    def match(msg: NetMessage) -> bool:
        if msg.kind == MSG_DEATH:
            return True
        if msg.tag == tag and msg.kind in ("coverage", "result"):
            return True
        # Straggler repair for a collective this rank already finished.
        return is_stale_coverage(cluster, rank, msg)

    coverage: Dict[int, Any] = {rank: value}
    contrib_srcs: List[int] = []
    my_subtree = tree_subtree(rank, size)

    def gather_done() -> bool:
        return all(u in coverage or not cluster.alive(u) for u in my_subtree)

    # -- gather: wait until every live member of the subtree is covered --
    while not gather_done():
        msg = yield from recv_match(cluster, rank, match)
        if msg.kind == MSG_DEATH:
            if not cluster.alive(COLLECTIVE_ROOT):
                return {"ok": False, "value": None, "t_ps": engine.now,
                        "error": "root-failed"}
            continue  # live set shrank; gather_done re-evaluates.
        if msg.kind == "coverage" and msg.tag == tag:
            coverage.update(msg.payload)
            if msg.src not in contrib_srcs:
                contrib_srcs.append(msg.src)
        elif msg.kind == "coverage":
            yield from service_stale(cluster, rank, msg)
        # A stray early "result" for this tag cannot arrive before this
        # rank has sent coverage up; ignore anything else defensively.

    if rank == COLLECTIVE_ROOT:
        # Root: reduce in rank-sorted order over the live set.
        result = combine({r: coverage[r] for r in cluster.live_ranks()})
        remember(result)
        for dst in contrib_srcs:
            if not cluster.alive(dst):
                continue
            yield from send_message(
                cluster, rank, dst, result, kind="result", tag=tag,
            )
        cluster.record_collective(op, tag, rank)
        return {"ok": True, "value": result, "t_ps": engine.now, "error": None}

    # -- non-root: forward merged coverage to the nearest live ancestor --
    def send_up():
        """Send coverage up; returns (dst, error) — dst None on failure."""
        dst = rank
        while True:
            dst = tree_parent(dst)
            if cluster.alive(dst):
                sent = yield from send_message(
                    cluster, rank, dst, dict(coverage),
                    kind="coverage", tag=tag,
                    size_bytes=MESSAGE_BYTES * len(coverage),
                )
                if sent["ok"]:
                    return dst, None
                if sent["error"] != "peer-dead":
                    return None, sent["error"]
                # Ancestor died between the liveness check and the send:
                # resume the walk from the same point.
            if dst == COLLECTIVE_ROOT:
                return None, "root-failed"

    gather_dst, err = yield from send_up()
    if gather_dst is None:
        return {"ok": False, "value": None, "t_ps": engine.now, "error": err}

    # -- await the result, repairing around ancestor deaths --
    while True:
        msg = yield from recv_match(cluster, rank, match)
        if msg.kind == MSG_DEATH:
            if not cluster.alive(COLLECTIVE_ROOT):
                return {"ok": False, "value": None, "t_ps": engine.now,
                        "error": "root-failed"}
            if not cluster.alive(gather_dst):
                # Orphaned: the ancestor holding our coverage died before
                # forwarding the result. Re-send to the next live one.
                gather_dst, err = yield from send_up()
                if gather_dst is None:
                    return {"ok": False, "value": None, "t_ps": engine.now,
                            "error": err}
            continue
        if msg.kind == "coverage" and msg.tag == tag:
            # A child's orphan repaired to us after we sent up: merge and
            # forward, so the ancestor stops waiting on the orphan.
            coverage.update(msg.payload)
            if msg.src not in contrib_srcs:
                contrib_srcs.append(msg.src)
            gather_dst, err = yield from send_up()
            if gather_dst is None:
                return {"ok": False, "value": None, "t_ps": engine.now,
                        "error": err}
            continue
        if msg.kind == "coverage":
            yield from service_stale(cluster, rank, msg)
            continue
        result = msg.payload
        break

    remember(result)
    for dst in contrib_srcs:
        if not cluster.alive(dst):
            continue
        yield from send_message(
            cluster, rank, dst, result, kind="result", tag=tag,
        )
    cluster.record_collective(op, tag, rank)
    return {"ok": True, "value": result, "t_ps": engine.now, "error": None}


def allreduce(cluster, rank: int, value: float, tag: Any):
    """Sum-reduce ``value`` across live ranks (deterministic rank-order
    accumulation) and broadcast the total."""
    def combine(contribs: Dict[int, Any]) -> float:
        total = 0.0
        for r in sorted(contribs):
            total += contribs[r]
        return total

    result = yield from _tree_gather_broadcast(
        cluster, rank, tag, op="allreduce", value=value, combine=combine,
    )
    return result
