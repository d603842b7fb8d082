"""The executor's headline guarantee: parallel == serial, bit for bit.

Host parallelism must never affect simulated results — the entire fan-out
is over (config, seed, trial, scenario) cells that are pure functions of
their parameters. These tests run the same campaigns at ``jobs=1`` (the
dispatch in-process) and ``jobs=4`` (a cached worker pool) and compare the
full result structures (modulo ``wall_seconds``, which measures the host,
not the simulation); one small cell of **every registered job kind** is
also compared as pickled bytes (literal bit-identity).
"""

import pickle

import numpy as np

from repro.exec.jobs import SimJob, job_kinds
from repro.exec.runner import ParallelRunner

SEED = 20260806


def _strip_wall(results):
    out = dict(results)
    out.pop("wall_seconds", None)
    return out


def test_run_campaign_parallel_is_bit_identical():
    from repro.core.campaign import run_campaign

    kwargs = dict(
        seed=SEED, trials=1, selfish_duration_s=0.05, include_extensions=True
    )
    serial = run_campaign(jobs=1, **kwargs)
    parallel = run_campaign(jobs=4, **kwargs)
    assert _strip_wall(serial) == _strip_wall(parallel)


def test_fig7_fig8_tables_identical_across_jobs():
    from repro.core.experiments import run_fig7_fig8

    t1 = run_fig7_fig8(trials=1, seed=SEED, jobs=1)
    t4 = run_fig7_fig8(trials=1, seed=SEED, jobs=4)
    assert list(t1) == list(t4)
    for bench in t1:
        assert t1[bench].unit == t4[bench].unit
        assert t1[bench].normalized == t4[bench].normalized
        assert list(t1[bench].aggregates) == list(t4[bench].aggregates)
        for cfg in t1[bench].aggregates:
            assert (
                list(t1[bench].aggregates[cfg].values)
                == list(t4[bench].aggregates[cfg].values)
            )


def test_selfish_profiles_identical_across_jobs():
    from repro.core.experiments import run_selfish_profiles

    p1 = run_selfish_profiles(duration_s=0.05, seed=SEED, jobs=1)
    p4 = run_selfish_profiles(duration_s=0.05, seed=SEED, jobs=4)
    assert list(p1) == list(p4)
    for cfg in p1:
        assert p1[cfg].summary == p4[cfg].summary
        assert np.array_equal(p1[cfg].times_us, p4[cfg].times_us)
        assert np.array_equal(p1[cfg].latencies_us, p4[cfg].latencies_us)


def test_resilience_report_identical_across_jobs():
    from repro.faults.campaign import run_resilience

    kwargs = dict(
        seed=SEED,
        configs=["hafnium-kitten"],
        scenarios=["vm-panic", "irq-drop"],
        with_containment=False,
    )
    serial = run_resilience(jobs=1, **kwargs)
    parallel = run_resilience(jobs=4, **kwargs)
    assert serial == parallel


def test_randomized_campaign_identical_across_jobs():
    from repro.faults.campaign import run_randomized_campaign

    kwargs = dict(config="hafnium-kitten", seed=SEED, campaigns=2, count=2)
    serial = run_randomized_campaign(jobs=1, **kwargs)
    parallel = run_randomized_campaign(jobs=4, **kwargs)
    assert serial == parallel
    agg = serial["aggregate"]
    assert 0.0 <= agg["survival_min"] <= agg["survival_mean"] <= agg["survival_max"] <= 1.0


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
        SimJob.make("quickstart", config="hafnium-kitten", seed=SEED),
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


def test_every_job_kind_pooled_matches_in_process_bit_for_bit():
    serial = ParallelRunner(1).run(_all_kind_cells())
    pooled = ParallelRunner(4).run(_all_kind_cells())
    assert _bits(pooled) == _bits(serial)
