"""Simulation job descriptors and the worker-side dispatcher.

A :class:`SimJob` names one independent simulation cell — experiment kind
plus the parameters that fully determine its result (config, seed, trial,
fault scenario, ...). Jobs are plain picklable data; the handler registry
below maps each kind to the library function that runs it. Handlers
import the model stack lazily so importing this module stays cheap in
both the parent and forked workers.

Every handler must be a *pure function of the job parameters*: it builds
its own node from (config, seed, trial), runs it, and returns a picklable
result. That purity is what lets :class:`~repro.exec.runner.ParallelRunner`
promise bit-identical results at any ``--jobs`` level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class SimJob:
    """One schedulable simulation cell: a kind plus frozen parameters."""

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def make(kind: str, **params: Any) -> "SimJob":
        """Build a job with parameters frozen in sorted-key order."""
        return SimJob(kind, tuple(sorted(params.items())))

    @property
    def key(self) -> str:
        """Stable identity used to key and order merged results."""
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.kind}({inner})"

    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimJob[{self.key}]"


_HANDLERS: Dict[str, Callable[..., Any]] = {}


def handler(kind: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register the worker function for one job kind."""

    def _register(fn: Callable[..., Any]) -> Callable[..., Any]:
        if kind in _HANDLERS:
            raise ConfigurationError(f"duplicate job kind {kind!r}")
        _HANDLERS[kind] = fn
        return fn

    return _register


def job_kinds() -> Tuple[str, ...]:
    return tuple(sorted(_HANDLERS))


def execute_job(job: SimJob) -> Any:
    """Run one job in the current process and return its result.

    This is the function the worker pool maps over; it must stay
    module-level (picklable by reference) and side-effect free beyond the
    job's own simulation.
    """
    fn = _HANDLERS.get(job.kind)
    if fn is None:
        raise ConfigurationError(
            f"unknown job kind {job.kind!r} (known: {', '.join(job_kinds())})"
        )
    return fn(**job.kwargs())


# ---------------------------------------------------------------------------
# Handlers — one per experiment cell kind
# ---------------------------------------------------------------------------


@handler("selfish-profile")
def _selfish_profile(config, duration_s, threshold_us, seed, node_kwargs=None):
    """One configuration's Figures 4-6 noise profile."""
    from repro.core.experiments import run_selfish_profile

    return run_selfish_profile(
        config, duration_s=duration_s, threshold_us=threshold_us,
        seed=seed, node_kwargs=node_kwargs,
    )


@handler("bench-trial")
def _bench_trial(benchmark_set, benchmark, config, trial, seed, node_kwargs=None):
    """One (benchmark, config, trial) cell of Figures 7-10.

    The factory is resolved by name from the registry in
    ``repro.core.experiments`` — callables don't cross the process
    boundary, names do.
    """
    from repro.core.experiments import BENCHMARK_SETS, run_single_trial

    factories = BENCHMARK_SETS.get(benchmark_set)
    if factories is None or benchmark not in factories:
        raise ConfigurationError(
            f"unknown benchmark {benchmark_set!r}/{benchmark!r}"
        )
    return run_single_trial(
        factories[benchmark], benchmark, config,
        trial=trial, seed=seed, node_kwargs=node_kwargs,
    )


@handler("quickstart")
def _quickstart(config, seed):
    """The determinism quickstart: compute + barrier supersteps on every core."""
    from repro.analysis.determinism import run_quickstart

    return run_quickstart(config, seed)


@handler("fault-scenario")
def _fault_scenario(config, scenario, seed, trial=0):
    from repro.faults.campaign import run_scenario

    return run_scenario(config, scenario, seed=seed, trial=trial)


@handler("containment")
def _containment(config, seed, trial=0):
    from repro.faults.campaign import run_containment

    return run_containment(config, seed=seed, trial=trial)


@handler("forced-abort")
def _forced_abort(config, seed):
    from repro.faults.campaign import run_forced_abort

    return run_forced_abort(config, seed=seed)


@handler("irq-latency")
def _irq_latency(routing, seed, duration_s=1.0):
    from repro.core.experiments import run_irq_latency

    return run_irq_latency(routing=routing, duration_s=duration_s, seed=seed)


@handler("interference")
def _interference(scheduler, benchmark, with_neighbor, seed):
    from repro.core.experiments import run_interference

    return run_interference(
        scheduler=scheduler, benchmark=benchmark,
        with_neighbor=with_neighbor, seed=seed,
    )


@handler("randomized-faults")
def _randomized_faults(config, seed, count, trial=0):
    from repro.faults.campaign import run_randomized

    return run_randomized(config, seed=seed, count=count, trial=trial)


@handler("cluster-run")
def _cluster_run(config, nodes, seed, **options):
    """One (config, node-count, seed) cell of the cluster scaling sweep.

    ``options`` are :func:`~repro.cluster.campaign.run_cluster`'s keywords;
    its defaults apply to any the job leaves unset."""
    from repro.cluster.campaign import run_cluster

    return run_cluster(config, nodes, seed, **options)
