"""Golden corpus: simulated results pinned across commits.

``CORPUS`` is a tuple of short :class:`~repro.exec.SimJob` cells over the
ordinary job kinds. Each result is reduced to one SHA-256 and committed
in ``GOLDEN.json`` (repository root) as ``{SimJob.key: digest}``;
``python -m repro check-golden`` reruns the corpus and names every cell
that drifted. A change that means to move simulated results reruns it
with ``--update``, and the ``GOLDEN.json`` diff is how it says so.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from array import array
from pathlib import Path
from typing import Any, Dict, Tuple

from repro.core.experiments import DEFAULT_SEED
from repro.exec import ParallelRunner, SimJob
from repro.hw.mmu import BLOCK_2M
from repro.hw.perfmodel import CostParams

#: The committed digests, found from the package's own location.
GOLDEN_PATH = Path(__file__).resolve().parents[3] / "GOLDEN.json"

_S = DEFAULT_SEED
_CONFIGS = ("native", "hafnium-kitten", "hafnium-linux")


def _trial(benchmark_set, benchmark, config, **extra):
    return SimJob.make(
        "bench-trial", benchmark_set=benchmark_set, benchmark=benchmark,
        config=config, trial=0, seed=_S, **extra,
    )


def _fault(config, scenario, seed=_S):
    return SimJob.make("fault-scenario", config=config, scenario=scenario, seed=seed)


def _cluster(config, nodes, seed=_S, **extra):
    return SimJob.make("cluster-run", config=config, nodes=nodes, seed=seed, **extra)


def _selfish(**extra):
    return SimJob.make(
        "selfish-profile", config="hafnium-linux", duration_s=0.2,
        threshold_us=1.0, seed=_S, **extra,
    )


CORPUS: Tuple[SimJob, ...] = (
    # Figures 9/10: NPB on every config, the full suite on hafnium-linux.
    *(_trial("npb", b, c) for b in ("lu", "cg") for c in _CONFIGS),
    *(_trial("npb", b, "hafnium-linux") for b in ("bt", "ep", "sp")),
    # Figures 4-6 at default costs, and with IRQ entry and EL2 bounce free.
    _selfish(),
    _selfish(node_kwargs={
        "params": CostParams(irq_entry_cycles=0, el2_irq_bounce_cycles=0),
    }),
    # Extensions: trustzone, selective IRQ routing, co-location.
    _trial("memory", "randomaccess", "hafnium-kitten",
           node_kwargs={"secure_compute_vm": True}),
    *(SimJob.make("irq-latency", routing=r, duration_s=0.3, seed=_S)
      for r in ("forwarded", "direct")),
    *(SimJob.make("interference", scheduler=s, benchmark="lu",
                  with_neighbor=True, seed=_S)
      for s in ("kitten", "linux")),
    # Ablations: a 1000 Hz quiet Linux primary; 2 MiB stage-2 blocks.
    _trial("npb", "lu", "hafnium-linux",
           node_kwargs={"primary_tick_hz": 1000.0, "noise_specs": []}),
    _trial("memory", "randomaccess", "hafnium-kitten",
           node_kwargs={"stage2_block": BLOCK_2M}),
    # The quickstart compute workload, three root seeds per config.
    *(SimJob.make("quickstart", config=c, seed=s)
      for c in _CONFIGS for s in (_S, _S + 1, _S + 2)),
    # Fault scenarios.
    *(_fault("hafnium-kitten", k) for k in (
        "vcpu-stall", "vcpu-crash", "vm-panic", "irq-storm", "irq-drop",
        "mem-bit-flip", "bus-error", "mailbox-storm", "attestation-tamper",
    )),
    *(_fault("hafnium-kitten", "vm-panic", seed=s) for s in (_S + 1, _S + 2)),
    _fault("native", "vm-panic"),
    _fault("hafnium-linux", "vm-panic"),
    SimJob.make("containment", config="hafnium-kitten", seed=_S),
    # The forced abort's throw into a guest's phase wait: the cut slice's
    # accounting and the re-mask of the core's GIC CPU interface.
    SimJob.make("forced-abort", config="hafnium-kitten", seed=_S),
    SimJob.make("randomized-faults", config="hafnium-kitten", seed=_S, count=3),
    # Cluster BSP runs.
    _cluster("hafnium-kitten", 4, supersteps=3),
    *(_cluster("hafnium-kitten", 3, seed=s, supersteps=3, step_compute_s=0.0008)
      for s in (_S, _S + 1, _S + 2)),
    _cluster("native", 4, supersteps=3),
    _cluster("hafnium-linux", 4, supersteps=3),
    _cluster("hafnium-kitten", 16, supersteps=3),
)


def _canonical(value: Any) -> Any:
    if isinstance(value, dict):
        return sorted(value.items())
    if isinstance(value, array):
        return value.tobytes()
    return value


def result_digest(obj: Any) -> str:
    """SHA-256 over the exact ``repr`` of a cell result (``repr`` of a
    float is exact, so any retiming shows). A dataclass becomes the tuple
    of its fields; a dict, at top level or as a field, its sorted items;
    an ``array`` (a :class:`~repro.core.metrics.Float64Series`) its raw
    bytes, as an equal ndarray's were."""
    if dataclasses.is_dataclass(obj):
        obj = tuple(_canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    else:
        obj = _canonical(obj)
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def load_golden() -> Dict[str, str]:
    """Read ``GOLDEN.json``; raises ``OSError``/``ValueError`` if absent
    or unreadable."""
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    if not isinstance(golden, dict):
        raise ValueError(f"{GOLDEN_PATH}: expected a JSON object")
    return golden


def check_golden(jobs: int = 1, update: bool = False) -> Dict[str, list]:
    """Run the corpus and compare it with ``GOLDEN.json``: returns
    ``{"mismatched", "missing", "stale"}`` lists of ``(key, golden, fresh)``
    digests, ``None`` where a key is absent. An unreadable file raises
    before any cell runs, unless ``update`` rewrites it from this run."""
    try:
        golden = load_golden()
    except (OSError, ValueError):
        if not update:
            raise
        golden = {}
    results = ParallelRunner(jobs).run(CORPUS)
    fresh = {key: result_digest(r) for key, r in results.items()}
    report = {
        "mismatched": [(k, golden[k], d) for k, d in fresh.items()
                       if k in golden and golden[k] != d],
        "missing": [(k, None, d) for k, d in fresh.items() if k not in golden],
        "stale": [(k, d, None) for k, d in sorted(golden.items()) if k not in fresh],
    }
    if update:
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(fresh, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return report
