"""Linux background-task population.

The paper attributes the Linux-scheduler configuration's noise to "timer
tick latencies and competing threads in the Linux environment" (Section
V-a) and Kitten's advantage partly to having "little to no background
tasks that need to periodically run, nor ... deferred work that is
randomly assigned to a CPU core" (Section III-a). This module is that
competing-thread population: per-core kworkers and ksoftirqd, the RCU
grace-period kthread, kswapd, and a couple of userspace daemons, each
with calibrated wake-up and burst distributions.

All draws come from named RNG streams, so a given seed reproduces the
identical noise timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.common.units import ms, us, PS_PER_US
from repro.kernels.base import KernelBase
from repro.kernels.phases import ComputePhase
from repro.kernels.thread import Pollute, Sleep, Thread

#: Operations one core retires per picosecond at the A53's sustained IPC
#: (used to convert burst durations to op counts).
def _ops_per_ps(kernel: KernelBase) -> float:
    soc = kernel.machine.soc
    return soc.ipc * soc.freq_hz / 1e12


@dataclass(frozen=True)
class NoiseSpec:
    """One background-thread archetype."""

    name: str
    per_core: bool                 # one instance per core vs pinned
    cpu: int = 0                   # home core when not per-core
    interval_mean_us: float = 100_000.0   # mean wake interval
    periodic: bool = False         # exponential (False) or fixed period
    burst_median_us: float = 50.0  # lognormal median burst length
    burst_sigma: float = 0.7       # lognormal shape
    priority: int = 100            # CFS nice-equivalent (100 = nice 0)
    pollution: str = "kthread"     # footprint class (see CostParams)
    max_burst_us: float = 5_000.0


#: Calibrated default population (per-core noise comparable to a quiet
#: server-class Linux: ~0.1-0.3% CPU, dominated by kworker bursts).
DEFAULT_POPULATION: List[NoiseSpec] = [
    NoiseSpec("kworker", per_core=True, interval_mean_us=120_000, burst_median_us=60.0,
              burst_sigma=0.9),
    NoiseSpec("ksoftirqd", per_core=True, interval_mean_us=240_000, burst_median_us=20.0,
              burst_sigma=0.6),
    NoiseSpec("rcu_sched", per_core=False, cpu=0, interval_mean_us=26_000,
              periodic=True, burst_median_us=8.0, burst_sigma=0.4,
              pollution="tick.linux"),
    NoiseSpec("kswapd0", per_core=False, cpu=0, interval_mean_us=2_500_000,
              burst_median_us=400.0, burst_sigma=0.8),
    NoiseSpec("journald", per_core=False, cpu=0, interval_mean_us=1_000_000,
              periodic=True, burst_median_us=250.0, burst_sigma=0.6, priority=100),
    NoiseSpec("cron", per_core=False, cpu=0, interval_mean_us=3_000_000,
              burst_median_us=180.0, burst_sigma=0.7, priority=105),
]


def noise_body(kernel: KernelBase, spec: NoiseSpec, stream_name: str) -> Generator:
    """The body of one background thread: sleep, wake, burn a burst."""
    rng = kernel.machine.rng.stream(stream_name)
    ops_per_ps = _ops_per_ps(kernel)
    while True:
        if spec.periodic:
            interval_us = spec.interval_mean_us
        else:
            interval_us = rng.exponential(spec.interval_mean_us)
        yield Sleep(max(1, round(interval_us * PS_PER_US)))
        burst_us = min(
            max(rng.lognormal(math.log(spec.burst_median_us), spec.burst_sigma), 1.0),
            spec.max_burst_us,
        )
        yield Pollute(spec.pollution)
        yield ComputePhase(max(1.0, burst_us * PS_PER_US * ops_per_ps))


class BackgroundPopulation:
    """Creates and owns the noise threads of one Linux instance."""

    def __init__(self, specs: Optional[List[NoiseSpec]] = None):
        self.specs = specs if specs is not None else DEFAULT_POPULATION
        self.threads: List[Thread] = []

    def spawn(self, kernel: KernelBase) -> List[Thread]:
        for spec in self.specs:
            cpus = range(len(kernel.slots)) if spec.per_core else [spec.cpu]
            for cpu in cpus:
                name = f"{spec.name}/{cpu}" if spec.per_core else spec.name
                t = Thread(
                    name,
                    noise_body(kernel, spec, f"{kernel.name}.noise.{name}"),
                    cpu=cpu,
                    priority=spec.priority,
                    kind="kthread",
                )
                kernel.spawn(t)
                self.threads.append(t)
        return self.threads

    def total_cpu_ps(self) -> int:
        return sum(t.cpu_time_ps for t in self.threads)
