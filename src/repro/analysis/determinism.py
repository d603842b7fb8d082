"""Determinism replay checker.

The engine's contract says a (platform config, root seed) pair always
produces bit-identical traces. This module *mechanises* that claim: build
a small configuration, run a fixed quickstart workload, digest the full
trace (every record, the final clock, the event count), and do it again
with the same seed. Any divergence — an unmanaged RNG, an unordered-set
iteration that leaked into event order, a wall-clock read — shows up as a
digest mismatch with no test having to know where the bug lives.

Exposed as ``python -m repro check-determinism``.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List

from repro.common.errors import ConfigurationError

#: Simulated compute per core in the quickstart workload (seconds), split
#: evenly across ``QUICKSTART_STEPS`` compute+barrier supersteps so the
#: replay check also covers the spin-barrier/wakeup paths that real
#: benchmarks live in, not just straight-line compute.
QUICKSTART_COMPUTE_S = 0.01
QUICKSTART_STEPS = 2


def trace_digest(node) -> str:
    """SHA-256 over the node's entire trace + terminal engine state.

    Every record contributes (time, category, subject, sorted payload), so
    any reordering, retiming, or payload drift changes the digest. Real
    tracers are digested through :meth:`Tracer.digest_records`, which
    hashes incrementally in batches — repeated digests of a growing trace
    (per scenario, per sweep entry) never re-hash the prefix.
    """
    h = hashlib.sha256()
    engine = node.machine.engine
    tracer = node.machine.tracer
    h.update(f"now={engine.now};fired={engine.events_fired}".encode())
    digest_records = getattr(tracer, "digest_records", None)
    if digest_records is not None:
        h.update(digest_records().encode())
    else:  # duck-typed tracer (tests): one-shot batched fallback
        from repro.sim.trace import record_bytes

        h.update(b"".join(record_bytes(r) + b"\x1e" for r in tracer.records))
    return h.hexdigest()


def run_quickstart(config: str, seed: int) -> Dict[str, Any]:
    """Build ``config``, run the quickstart compute workload, and return
    ``{"digest", "events", "end_ps", "records"}``."""
    # Imported here so `repro lint` (which imports this module's package)
    # doesn't drag the whole model stack in.
    from repro.core.configs import ALL_CONFIGS, build_node
    from repro.core.node import run_until_done
    from repro.kernels.phases import ComputePhase
    from repro.kernels.thread import BarrierWait, SpinBarrier, Thread

    if config not in ALL_CONFIGS:
        raise ConfigurationError(
            f"unknown config {config!r} (choose from {', '.join(ALL_CONFIGS)})"
        )
    node = build_node(config, seed=seed)
    soc = node.machine.soc
    barrier = SpinBarrier(node.machine.engine, soc.num_cores, "det.barrier")

    def body(ops):
        for _ in range(QUICKSTART_STEPS):
            yield ComputePhase(ops)
            yield BarrierWait(barrier)
        return "done"

    ops = QUICKSTART_COMPUTE_S / QUICKSTART_STEPS * soc.ipc * soc.freq_hz
    threads = [
        Thread(f"det{c}", body(ops), cpu=c, aspace="det")
        for c in range(soc.num_cores)
    ]
    node.spawn_workload_threads(threads)
    end = run_until_done(node, threads, max_seconds=10.0)
    return {
        "digest": trace_digest(node),
        "events": node.machine.engine.events_fired,
        "end_ps": end,
        "records": len(node.machine.tracer),
    }


def check_determinism(
    config: str = "hafnium-kitten",
    seed: int = 0xC0FFEE,
    runs: int = 2,
    *,
    jobs: int = 1,
    seeds: int = 1,
) -> Dict[str, Any]:
    """Run ``config`` ``runs`` times with the same seed and diff digests.

    Returns ``{"identical": bool, "digests": [...], "runs": [...]}``.
    ``config="all"`` sweeps every evaluated configuration *plus* one
    fault-injection scenario (the campaign smoke run) *plus* one
    multi-node cluster scenario (a 3-rank BSP smoke), so the replay
    guarantee is checked on the failure and scale-out paths too; the
    result then has a
    per-config ``"sweep"`` mapping and top-level ``identical`` is the AND.
    With ``seeds > 1`` the ``"all"`` sweep repeats for root seeds
    ``seed, seed+1, ...`` and keys entries ``"{config}@seed={s}"``.

    Each replay run is one ``determinism-run`` job dispatched through
    :class:`~repro.exec.ParallelRunner` (in-process at ``jobs=1``, over a
    worker pool otherwise); digests are merged by job id, so the verdict
    is identical at any ``jobs`` level — which is itself the point.
    """
    if runs < 2:
        raise ConfigurationError("determinism check needs at least 2 runs")
    if seeds < 1:
        raise ConfigurationError("determinism check needs at least 1 seed")
    if config == "all":
        return _check_all(seed, runs, jobs=jobs, seeds=seeds)
    from repro.exec import ParallelRunner, SimJob

    results = ParallelRunner(jobs).run_values(
        SimJob.make("determinism-run", config=config, seed=seed, run=i)
        for i in range(runs)
    )
    digests = [r["digest"] for r in results]
    return {**_sweep_entry(config, seed, digests), "runs": results}


def _sweep_entry(config: str, seed: int, digests: List[str]) -> Dict[str, Any]:
    return {
        "config": config,
        "seed": seed,
        "identical": len(set(digests)) == 1,
        "digests": digests,
    }


def _check_all(
    seed: int, runs: int, *, jobs: int = 1, seeds: int = 1
) -> Dict[str, Any]:
    from repro.core.configs import ALL_CONFIGS
    from repro.exec import ParallelRunner, SimJob

    names = list(ALL_CONFIGS) + ["faults-smoke", "cluster-smoke"]
    seed_list = [seed + i for i in range(seeds)]
    # One flat fan-out: (config x seed x run). The merge walks the same
    # nesting serially, so sweep keys/order never depend on completion.
    sim_jobs = [
        SimJob.make("determinism-run", config=cfg, seed=s, run=i)
        for cfg in names
        for s in seed_list
        for i in range(runs)
    ]
    merged = ParallelRunner(jobs).run(sim_jobs)
    results = iter(merged.values())

    sweep: Dict[str, Any] = {}
    for cfg in names:
        for s in seed_list:
            run_results = [next(results) for _ in range(runs)]
            digests = [r["digest"] for r in run_results]
            key = cfg if seeds == 1 else f"{cfg}@seed={s}"
            sweep[key] = _sweep_entry(cfg, s, digests)
    return {
        "config": "all",
        "seed": seed,
        "seeds": seeds,
        "identical": all(entry["identical"] for entry in sweep.values()),
        "sweep": sweep,
    }
