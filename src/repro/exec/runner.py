"""The parallel runner: fan SimJobs over a process pool, merge in order.

Determinism contract
--------------------
Results are keyed and ordered by *job id* (the position and key of each
job in the submitted sequence), never by completion order. Each worker
runs a handler that is a pure function of the job's parameters, so for
any ``jobs`` level — including the fully in-process ``jobs=1`` path —
``ParallelRunner.run`` returns the same mapping, bit for bit. The tests
under ``tests/exec/`` assert exactly that for every job kind.

Failure contract
----------------
A failing cell never hangs the campaign or goes missing from it. A
handler exception is re-raised in the parent with the job's key attached
as a note. A worker process that dies (killed, ``os._exit``, out of
memory) raises :class:`WorkerCrashError` naming every cell that had not
finished; the broken executor is dropped from the cache, so the next
``run`` forks a fresh one.
"""

from __future__ import annotations

import atexit
import os
from collections import Counter
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

from repro.common.errors import ConfigurationError, ReproError
from repro.exec.jobs import SimJob, execute_job


class WorkerCrashError(ReproError):
    """A pool worker died before its cells finished."""

    def __init__(self, keys: Sequence[str]):
        self.keys = list(keys)
        super().__init__(
            f"a worker process died; unfinished cells: {', '.join(self.keys)}"
        )


def default_jobs() -> int:
    """Worker count when none is requested: every core."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a user-supplied ``--jobs`` value (None = all cores)."""
    if jobs is None:
        return default_jobs()
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


#: One executor per worker count, forked on first use and kept for the
#: life of the process: a campaign issues many dispatches back to back,
#: and each would otherwise pay fork + model imports again. Caching one
#: registers ``shutdown_executors`` at exit: an executor left for module
#: teardown to collect prints ``Exception ignored`` from its manager
#: thread's weakref callback once ``multiprocessing`` is torn down.
_EXECUTORS: Dict[int, ProcessPoolExecutor] = {}


def shutdown_executors() -> None:
    """Stop every cached executor and reap its workers."""
    while _EXECUTORS:
        _, executor = _EXECUTORS.popitem()
        executor.shutdown(wait=True, cancel_futures=True)


def _name_job(exc: BaseException, job: SimJob) -> None:
    """Attach the failing job's key to ``exc`` as a PEP 678 note (printed
    with the traceback from Python 3.11; kept in ``__notes__`` before)."""
    note = f"raised by job {job.key}"
    if hasattr(exc, "add_note"):
        exc.add_note(note)
    else:
        exc.__notes__ = [*getattr(exc, "__notes__", ()), note]


def _finished(future: Future) -> bool:
    return future.done() and not future.cancelled() and future.exception() is None


def _run_in_pool(workers: int, jobs_list: List[SimJob]) -> List[Any]:
    # Imported here so an in-process (jobs=1) run never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    executor = _EXECUTORS.get(workers)
    if executor is None:
        if not _EXECUTORS:
            atexit.unregister(shutdown_executors)  # at most one registration
            atexit.register(shutdown_executors)
        executor = _EXECUTORS[workers] = ProcessPoolExecutor(max_workers=workers)
    futures: List[Future] = []
    results: List[Any] = []
    try:
        for job in jobs_list:
            futures.append(executor.submit(execute_job, job))
        # Collect in submission order, whatever the completion order.
        for job, future in zip(jobs_list, futures):
            results.append(future.result())
    except BrokenProcessPool as exc:
        # Also raised by submit() when a worker died between dispatches.
        del _EXECUTORS[workers]
        executor.shutdown(wait=True, cancel_futures=True)
        unfinished = [
            job.key for i, job in enumerate(jobs_list)
            if i >= len(futures) or not _finished(futures[i])
        ]
        raise WorkerCrashError(unfinished) from exc
    except Exception as exc:
        for future in futures:
            future.cancel()
        _name_job(exc, job)
        raise
    return results


class ParallelRunner:
    """Execute SimJobs over ``jobs`` worker processes (1 = in-process).

    ``run`` preserves submission order in the returned mapping regardless
    of completion order, and refuses duplicate job keys — a duplicate
    would make the merge silently drop a result.
    """

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = resolve_jobs(jobs)

    def run(self, sim_jobs: Iterable[SimJob]) -> Dict[str, Any]:
        """Run every job; return ``{job.key: result}`` in submission order."""
        jobs_list: List[SimJob] = list(sim_jobs)
        keys = [job.key for job in jobs_list]
        duplicates = sorted(k for k, n in Counter(keys).items() if n > 1)
        if duplicates:
            raise ConfigurationError(
                f"duplicate job keys would collide in the merge: {duplicates}"
            )
        if self.jobs > 1 and len(jobs_list) > 1:
            results = _run_in_pool(min(self.jobs, len(jobs_list)), jobs_list)
        else:
            results = []
            for job in jobs_list:
                try:
                    results.append(execute_job(job))
                except Exception as exc:
                    _name_job(exc, job)
                    raise
        return dict(zip(keys, results))

    def run_values(self, sim_jobs: Iterable[SimJob]) -> List[Any]:
        """Like :meth:`run` but returns just the results, in job order."""
        return list(self.run(sim_jobs).values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelRunner(jobs={self.jobs})"
