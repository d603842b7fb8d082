"""SimJob descriptors and the ParallelRunner merge contract."""

import inspect
import os
import subprocess
import sys

import pytest

from repro.common.errors import ConfigurationError
from repro.exec import ParallelRunner, SimJob, execute_job, job_kinds, resolve_jobs


def test_simjob_key_is_stable_and_order_insensitive():
    a = SimJob.make("bench-trial", config="native", trial=1, seed=7)
    b = SimJob.make("bench-trial", seed=7, trial=1, config="native")
    assert a == b
    assert a.key == b.key
    assert a.key == "bench-trial(config='native', seed=7, trial=1)"
    assert a.kwargs() == {"config": "native", "trial": 1, "seed": 7}


def test_simjob_is_hashable_and_picklable():
    import pickle

    job = SimJob.make("irq-latency", routing="direct", seed=3)
    assert pickle.loads(pickle.dumps(job)) == job
    assert len({job, SimJob.make("irq-latency", routing="direct", seed=3)}) == 1


def test_job_kinds_cover_the_campaign_cells():
    kinds = set(job_kinds())
    assert {
        "selfish-profile",
        "bench-trial",
        "quickstart",
        "fault-scenario",
        "containment",
        "irq-latency",
        "interference",
        "randomized-faults",
    } <= kinds


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError, match="unknown job kind"):
        execute_job(SimJob.make("no-such-kind", x=1))


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(None) >= 1
    with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
        resolve_jobs(0)


def test_duplicate_job_keys_rejected():
    jobs = [
        SimJob.make("irq-latency", routing="direct", seed=3),
        SimJob.make("irq-latency", routing="direct", seed=3),
    ]
    with pytest.raises(ConfigurationError, match="duplicate job keys"):
        ParallelRunner(jobs=1).run(jobs)


def test_runner_merge_is_keyed_by_submission_order():
    jobs = [
        SimJob.make("quickstart", config="native", seed=seed)
        for seed in (11, 12)
    ]
    serial = ParallelRunner(jobs=1).run(jobs)
    assert list(serial) == [j.key for j in jobs]
    parallel = ParallelRunner(jobs=2).run(jobs)
    assert serial == parallel


def test_runner_pool_path_matches_in_process_results():
    jobs = [
        SimJob.make("irq-latency", routing=mode, seed=5, duration_s=0.05)
        for mode in ("forwarded", "direct")
    ]
    serial = ParallelRunner(jobs=1).run(jobs)
    parallel = ParallelRunner(jobs=2).run(jobs)
    assert serial == parallel
    assert list(serial) == [j.key for j in jobs]


def test_in_process_run_never_loads_the_process_pool():
    code = (
        "import sys; from repro.exec import ParallelRunner, SimJob; "
        "ParallelRunner(1).run([SimJob.make("
        "'irq-latency', routing='direct', seed=1, duration_s=0.005)]); "
        "print('concurrent.futures.process' in sys.modules)"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "False"

def test_pooled_run_shuts_its_executor_down_at_exit():
    """A jobs=2 run leaves no executor for interpreter teardown to collect
    (teardown prints ``Exception ignored`` from its manager thread).

    The hook registered first runs last, so it sees the cache after every
    handler the run registered."""
    code = (
        "import atexit; from repro.exec import ParallelRunner, SimJob, runner; "
        "atexit.register(lambda: print('cached at exit:', len(runner._EXECUTORS))); "
        "ParallelRunner(2).run([SimJob.make("
        "'irq-latency', routing=r, seed=1, duration_s=0.005) "
        "for r in ('forwarded', 'direct')])"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "cached at exit: 0"
    assert "Exception ignored" not in out.stderr


def test_every_campaign_driver_defaults_to_one_job():
    from repro.analysis.golden import check_golden
    from repro.cluster.campaign import run_scaling
    from repro.core.campaign import run_campaign
    from repro.core.experiments import run_benchmark_table, run_selfish_profiles
    from repro.faults.campaign import run_randomized_campaign, run_resilience

    drivers = (
        check_golden, run_scaling, run_campaign, run_benchmark_table,
        run_selfish_profiles, run_randomized_campaign, run_resilience,
    )
    for driver in drivers:
        assert inspect.signature(driver).parameters["jobs"].default == 1, driver
