"""Parallel simulation executor.

The paper's artifact is an evaluation *campaign*: many independent
(config, seed, trial, scenario) simulation cells whose results are
aggregated into figures. Every cell is a pure function of its
parameters — the engine guarantees bit-identical traces per (config,
seed) — so cells can fan out over a process pool with no effect on the
science. Every campaign driver builds its list of cells and hands it to
:class:`~repro.exec.runner.ParallelRunner`; ``jobs=1`` runs that same
dispatch in-process, so there is no separate serial code path to drift
from the parallel one. This package provides:

* :class:`~repro.exec.jobs.SimJob` — a picklable descriptor of one cell;
* :func:`~repro.exec.jobs.execute_job` — the worker-side dispatcher;
* :class:`~repro.exec.runner.ParallelRunner` — in-process at ``jobs=1``,
  else one cached process pool per worker count, with results merged in
  *job order* (never completion order), so a parallel campaign is
  bit-identical to a serial one; a
  dead worker raises :class:`~repro.exec.runner.WorkerCrashError` naming
  the unfinished cells instead of hanging.

Its speedup is measured by ``perfbench/run.py``'s ``fault_campaign``
workload (``exec.speedup``), not from inside the package.
"""

from repro.exec.jobs import SimJob, execute_job, job_kinds
from repro.exec.runner import (
    ParallelRunner,
    WorkerCrashError,
    default_jobs,
    resolve_jobs,
    shutdown_executors,
)

__all__ = [
    "SimJob",
    "execute_job",
    "job_kinds",
    "ParallelRunner",
    "default_jobs",
    "resolve_jobs",
    "shutdown_executors",
    "WorkerCrashError",
]
