"""The cached process pool: bit-identity with the in-process path.

The executor's contract is that *how* a cell runs (in-process or in a
pool worker) never changes the result — only wall-clock. This pins that
with pickled bytes (literal bit-identity), over one small cell of
**every registered job kind**, at ``jobs=1`` vs ``jobs=4``.
"""

import pickle

from repro.exec.jobs import SimJob, job_kinds
from repro.exec.runner import ParallelRunner

SEED = 20260806


def _all_kind_cells():
    """One deliberately small cell per registered job kind."""
    cells = [
        SimJob.make(
            "selfish-profile", config="hafnium-kitten",
            duration_s=0.02, threshold_us=1.0, seed=SEED,
        ),
        SimJob.make(
            "bench-trial", benchmark_set="memory", benchmark="stream",
            config="hafnium-kitten", trial=0, seed=SEED,
        ),
        SimJob.make("determinism-run", config="hafnium-kitten", seed=SEED),
        SimJob.make(
            "fault-scenario", config="hafnium-kitten", scenario="vm-panic",
            seed=SEED,
        ),
        SimJob.make("containment", config="hafnium-kitten", seed=SEED),
        SimJob.make(
            "irq-latency", routing="forwarded", duration_s=0.01, seed=SEED,
        ),
        SimJob.make(
            "interference", scheduler="kitten", benchmark="ep",
            with_neighbor=False, seed=SEED,
        ),
        SimJob.make(
            "randomized-faults", config="hafnium-kitten", seed=SEED, count=1,
        ),
        SimJob.make(
            "cluster-run", config="hafnium-kitten", nodes=2, seed=SEED,
            supersteps=2, step_compute_s=0.0008,
        ),
    ]
    assert {c.kind for c in cells} == set(job_kinds())
    return cells


def _bits(results):
    return [
        pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL) for r in results
    ]


def test_warm_pool_matches_serial_bit_for_bit():
    serial = ParallelRunner(1).run(_all_kind_cells())
    pooled = ParallelRunner(4).run(_all_kind_cells())
    assert _bits(pooled) == _bits(serial)
