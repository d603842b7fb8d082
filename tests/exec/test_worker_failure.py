"""A failing cell fails the dispatch loudly and by name, never hangs it."""

import os
import pickle
import signal
import time

import pytest

from repro.exec import ParallelRunner, SimJob, WorkerCrashError, shutdown_executors
from repro.exec import jobs, runner


def _exit_worker(code):
    os._exit(code)


def _raise(message):
    raise ValueError(message)


def _hung(signum, frame):
    raise TimeoutError("dispatch hung instead of failing")


@pytest.fixture
def failing_kinds(monkeypatch):
    """Register the failing kinds, then fork workers that know them.

    A 60 s alarm turns a hang into a test failure."""
    monkeypatch.setitem(jobs._HANDLERS, "exit-worker", _exit_worker)
    monkeypatch.setitem(jobs._HANDLERS, "raise", _raise)
    shutdown_executors()
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        shutdown_executors()


def _ok(seed):
    return SimJob.make("irq-latency", routing="direct", seed=seed, duration_s=0.01)


def test_killed_worker_raises_naming_the_cell_then_pool_recovers(failing_kinds):
    crash = SimJob.make("exit-worker", code=3)
    pool = ParallelRunner(2)
    with pytest.raises(WorkerCrashError) as info:
        pool.run([_ok(1), crash])
    assert crash.key in info.value.keys
    assert crash.key in str(info.value)
    # The broken executor was evicted: the next dispatch forks a fresh one.
    cells = [_ok(1), _ok(2)]
    pooled, serial = pool.run_values(cells), ParallelRunner(1).run_values(cells)
    assert [pickle.dumps(r) for r in pooled] == [pickle.dumps(r) for r in serial]


def test_worker_killed_between_dispatches_fails_the_next_one(failing_kinds):
    cells = [_ok(1), _ok(2)]
    pool = ParallelRunner(2)
    pool.run(cells)
    executor = runner._EXECUTORS[2]
    pid = next(iter(executor._processes))
    os.kill(pid, signal.SIGKILL)
    # SIGKILL lands asynchronously. Until the executor's manager thread
    # notices the death, a loaded host can let the surviving worker
    # finish both cells, and that dispatch rightly succeeds. Wait for
    # the executor to report itself broken (the fixture's alarm bounds
    # the wait).
    while not executor._broken:
        time.sleep(0.005)
    with pytest.raises(WorkerCrashError) as info:
        pool.run(cells)
    # Every cell is unfinished when the pool is already broken at
    # submit; at least one is always named, and only cells of this run.
    keys = [c.key for c in cells]
    assert info.value.keys and set(info.value.keys) <= set(keys)
    assert list(pool.run(cells)) == keys


@pytest.mark.parametrize("workers", [1, 2])
def test_handler_exception_is_reraised_with_its_key(failing_kinds, workers):
    bad = SimJob.make("raise", message="boom")
    with pytest.raises(ValueError, match="boom") as info:
        ParallelRunner(workers).run([_ok(1), bad])
    assert f"raised by job {bad.key}" in info.value.__notes__
    # A handler error leaves the pool usable.
    cells = [_ok(3), _ok(4)]
    assert list(ParallelRunner(workers).run(cells)) == [c.key for c in cells]
