"""Trace digests and the quickstart workload.

The engine's contract says a (platform config, root seed) pair always
produces bit-identical traces. :func:`trace_digest` reduces a node's
full trace (every record, the final clock, the event count) to one
SHA-256, and :func:`run_quickstart` runs a fixed compute workload and
returns that digest. The golden corpus (:mod:`repro.analysis.golden`)
pins quickstart cells across commits, so an unmanaged RNG, an
unordered-set iteration that leaked into event order or a wall-clock
read shows up as a digest mismatch with no test having to know where
the bug lives.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict

from repro.common.errors import ConfigurationError

#: Simulated compute per core in the quickstart workload (seconds), split
#: evenly across ``QUICKSTART_STEPS`` compute+barrier supersteps so the
#: digest also covers the spin-barrier/wakeup paths that real
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
