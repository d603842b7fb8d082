"""The selfish-detour noise benchmark (Figures 4-6).

A tight timing loop reads the cycle counter; whenever two consecutive
samples differ by more than a threshold, the loop was "detoured" — the OS
(or hypervisor) stole the CPU — and the (timestamp, latency) pair is
recorded. The paper uses it to compare the noise profiles of the three
configurations: native Kitten shows sparse, periodic, small detours
(housekeeping ticks); the Kitten-scheduled VM the same pattern with
slightly larger latencies (the VM-exit path); the Linux-scheduled VM
frequent, randomly-placed detours (250 Hz ticks + background threads).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.units import seconds, us
from repro.core.metrics import Float64Series, mean_std, pairwise_sum
from repro.kernels.phases import SpinPhase
from repro.kernels.thread import SpinBarrier
from repro.workloads.base import Workload

Series = Tuple[Float64Series, Float64Series]


class SelfishDetour(Workload):
    """One spinning thread on core 0, as a noise probe (the benchmark is
    not throughput-oriented)."""

    name = "selfish"
    unit = "detours/s"
    nthreads = 1

    def __init__(self, duration_s: float = 1.0, threshold_us: float = 1.0):
        super().__init__()
        self.duration_ps = seconds(duration_s)
        self.threshold_ps = us(threshold_us)
        self.phases: List[SpinPhase] = []

    def _thread_body(self, tid: int, barrier: Optional[SpinBarrier]):
        phase = SpinPhase(self.duration_ps, self.threshold_ps)
        self.phases.append(phase)
        yield phase
        return len(phase.detours)

    def total_work(self) -> float:
        return float(sum(len(p.detours) for p in self.phases))

    # -- analysis -----------------------------------------------------------------

    def detours(self) -> List[Tuple[int, int]]:
        return self.phases[0].detours

    def detour_series_us(self) -> Series:
        """(timestamps_us, latencies_us) — the scatter the figures plot."""
        p = self.phases[0]
        return p.detour_times_us(), p.detour_latencies_us()

    # The two reductions below take the ``detour_series_us()`` pair from
    # their caller, so a profile builds its series once. Each gives the
    # float64 result of the numpy expression in its comments, bit for bit.

    def noise_summary(self, series: Series) -> Dict[str, float]:
        _, lats = series
        if len(lats) == 0:
            return {
                "count": 0.0,
                "rate_hz": 0.0,
                "mean_latency_us": 0.0,
                "max_latency_us": 0.0,
                "stolen_fraction": 0.0,
            }
        window_s = self.duration_ps / 1e12
        total = pairwise_sum(lats)  # lats.sum()
        return {
            "count": float(len(lats)),
            "rate_hz": len(lats) / window_s,
            "mean_latency_us": total / len(lats),  # lats.mean()
            "max_latency_us": max(lats),
            # Fraction of the window lost to detours ("noise").
            "stolen_fraction": total * 1e-6 / window_s,
        }

    def interarrival_cv(self, series: Series) -> float:
        """Coefficient of variation of detour inter-arrival times: ~0 for
        a purely periodic source (timer ticks), >>0 for random noise.
        Used to test the paper's "more randomly distributed" claim."""
        times, _ = series
        if len(times) < 3:
            return 0.0
        gaps = [b - a for a, b in zip(times, times[1:])]  # np.diff(times)
        mean, std = mean_std(gaps)  # gaps.mean(), gaps.std()
        return std / mean if mean > 0 else 0.0
