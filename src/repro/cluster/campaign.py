"""Scaling campaign: BSP step time vs node count across configurations.

``run_cluster`` is the pure cell function — (config, nodes, seed, ...) ->
picklable report — and fans out over the PR-3 ``ParallelRunner`` as one
``SimJob`` per (config, nodes) cell in ``run_scaling``, bit-identical at
any ``--jobs`` level.

The headline derived metrics:

* **slowdown** — mean BSP step time relative to ``native`` at the same
  node count (what virtualization + primary-OS noise costs you);
* **amplification** — mean step time relative to the same config at the
  smallest node count (how that cost *grows* with scale; flat for quiet
  primaries, growing for the Linux primary, reproducing the classic
  max-of-N noise amplification result).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.units import ms, to_ms
from repro.core.configs import ALL_CONFIGS, CONFIG_NATIVE
from repro.cluster.bsp import BspClusterWorkload
from repro.cluster.node import Cluster

#: Node counts swept by the paper-style scaling experiment (2..64).
SCALING_NODE_COUNTS = (2, 4, 8, 16, 32, 64)

DEFAULT_SUPERSTEPS = 6
DEFAULT_STEP_COMPUTE_S = 0.002


def run_cluster(
    config: str,
    nodes: int,
    seed: int,
    *,
    trial: int = 0,
    supersteps: int = DEFAULT_SUPERSTEPS,
    step_compute_s: float = DEFAULT_STEP_COMPUTE_S,
    halo_bytes: int = 8 * 1024,
    fail_rank: Optional[int] = None,
    fail_at_ms: Optional[float] = None,
    max_seconds: float = 120.0,
    collective_algo: str = "tree",
) -> Dict[str, Any]:
    """Run one BSP scaling cell; returns a picklable, digestable report.

    With ``fail_rank``/``fail_at_ms`` set, a ``node-failure`` fault is
    armed through the PR-2 fault framework so cluster campaigns compose
    with the resilience machinery. ``collective_algo`` selects the
    allreduce implementation (binomial ``tree`` by default, ``linear``
    for the O(N)-at-the-root baseline).
    """
    cluster = Cluster(
        config, nodes, seed=seed, trial=trial, collective_algo=collective_algo
    )
    workload = BspClusterWorkload(
        cluster,
        supersteps=supersteps,
        step_compute_s=step_compute_s,
        halo_bytes=halo_bytes,
    )
    threads = workload.spawn()

    injections: List[Dict[str, Any]] = []
    if fail_rank is not None:
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan

        at_ps = cluster.engine.now + ms(
            fail_at_ms if fail_at_ms is not None else 1.0
        )
        plan = FaultPlan.single(
            "node-failure", f"rank{fail_rank}", at_ps, rank=fail_rank
        )
        injector = FaultInjector(cluster.nodes[0].node, plan)
        injector.arm()
        injections = injector.injections

    cluster.run(threads, max_seconds=max_seconds)

    root_steps_ps = workload.step_durations_ps(rank=0)
    # Root may be the failed rank: fall back to the lowest live rank's
    # step log for the timing series.
    timing_rank = 0
    if not root_steps_ps and cluster.live_ranks():
        timing_rank = cluster.live_ranks()[0]
        root_steps_ps = workload.step_durations_ps(rank=timing_rank)
    per_step_ms = [round(to_ms(d), 6) for d in root_steps_ps]
    # Headline mean over steady-state steps: the first superstep carries
    # cold caches + residual boot activity identically in every config,
    # which would dilute the scaling ratios.
    steady = per_step_ms[1:] if len(per_step_ms) > 1 else per_step_ms
    mean_step_ms = round(sum(steady) / len(steady), 6) if steady else 0.0

    return {
        "config": config,
        "nodes": nodes,
        "seed": seed,
        "trial": trial,
        "supersteps": supersteps,
        "completed_steps": workload.completed_steps(timing_rank),
        "timing_rank": timing_rank,
        "per_step_ms": per_step_ms,
        "mean_step_ms": mean_step_ms,
        "max_step_ms": round(max(per_step_ms), 6) if per_step_ms else 0.0,
        # Finish time of the last completed superstep anywhere in the
        # cluster (the engine itself stops on a coarse polling slice).
        "elapsed_ms": round(
            to_ms(
                max(
                    (t for log in workload.step_done_ps.values() for t in log),
                    default=cluster.engine.now,
                )
                - (workload.start_ps or 0)
            ),
            6,
        ),
        "failed_ranks": list(cluster.failed),
        "aborted_ranks": sorted(workload.aborted),
        "fault_injections": len(injections),
        "collective_algo": collective_algo,
        "fabric": cluster.fabric.stats(),
        # The collective root's ingress port: the O(N) vs O(log N) hotspot.
        "root_port": cluster.fabric.port_stats(0),
        "digest": cluster.digest(),
    }


def run_scaling(
    *,
    configs: Optional[Sequence[str]] = None,
    node_counts: Iterable[int] = (2, 4, 8),
    seed: int = 0xC0FFEE,
    jobs: int = 1,
    supersteps: int = DEFAULT_SUPERSTEPS,
    step_compute_s: float = DEFAULT_STEP_COMPUTE_S,
    fail_rank: Optional[int] = None,
    fail_at_ms: Optional[float] = None,
    collective_algo: str = "tree",
) -> Dict[str, Any]:
    """Sweep (config x node_count) cells over the parallel runner and
    derive the slowdown / amplification table."""
    from repro.exec import ParallelRunner, SimJob

    configs = list(configs if configs is not None else ALL_CONFIGS)
    counts = sorted(set(int(n) for n in node_counts))
    if not counts:
        raise ConfigurationError("node_counts must be non-empty")
    sim_jobs = [
        SimJob.make(
            "cluster-run",
            config=config,
            nodes=n,
            seed=seed,
            supersteps=supersteps,
            step_compute_s=step_compute_s,
            fail_rank=fail_rank,
            fail_at_ms=fail_at_ms,
            collective_algo=collective_algo,
        )
        for config in configs
        for n in counts
    ]
    results = ParallelRunner(jobs).run_values(sim_jobs)

    cells: Dict[str, Dict[str, Any]] = {}
    it = iter(results)
    for config in configs:
        for n in counts:
            cells[f"{config}@{n}"] = next(it)

    base_n = counts[0]
    rows: List[Dict[str, Any]] = []
    for config in configs:
        base = cells[f"{config}@{base_n}"]["mean_step_ms"]
        for n in counts:
            cell = cells[f"{config}@{n}"]
            native = cells.get(f"{CONFIG_NATIVE}@{n}")
            row = {
                "config": config,
                "nodes": n,
                "mean_step_ms": cell["mean_step_ms"],
                "max_step_ms": cell["max_step_ms"],
                "slowdown_vs_native": (
                    round(cell["mean_step_ms"] / native["mean_step_ms"], 4)
                    if native and native["mean_step_ms"] > 0
                    else None
                ),
                "amplification": (
                    round(cell["mean_step_ms"] / base, 4) if base > 0 else None
                ),
                "failed_ranks": cell["failed_ranks"],
                "root_port_messages": cell["root_port"]["messages"],
                "root_port_busy_ms": round(
                    to_ms(cell["root_port"]["busy_ps"]), 6
                ),
            }
            rows.append(row)
    return {
        "seed": seed,
        "supersteps": supersteps,
        "step_compute_s": step_compute_s,
        "node_counts": counts,
        "configs": configs,
        "collective_algo": collective_algo,
        "cells": cells,
        "rows": rows,
    }


def run_cluster_smoke(seed: int) -> Dict[str, Any]:
    """Small fixed cluster cell for the ``check-determinism`` sweep."""
    return run_cluster(
        "hafnium-kitten",
        3,
        seed,
        supersteps=3,
        step_compute_s=0.0008,
        max_seconds=30.0,
    )
