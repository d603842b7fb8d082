"""Result containers and statistics for the experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: numpy's ``PW_BLOCKSIZE``: the longest run summed without splitting.
_PAIRWISE_BLOCK = 128


@dataclass
class TrialResult:
    """One benchmark run in one configuration."""

    config: str
    benchmark: str
    trial: int
    value: float              # throughput in the benchmark's native unit
    unit: str
    elapsed_s: float
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class Aggregate:
    """Mean/stdev over trials (one cell of Figure 8 / Figure 10)."""

    config: str
    benchmark: str
    unit: str
    mean: float
    stdev: float
    n: int
    values: List[float] = field(default_factory=list)

    @property
    def cv(self) -> float:
        """Coefficient of variation."""
        return self.stdev / self.mean if self.mean else 0.0


def _pairwise_sum(values: Sequence[float]) -> float:
    """numpy's float64 ``add.reduce``, bit for bit: below 8 values a
    sequential sum from 0.0; up to ``_PAIRWISE_BLOCK`` eight strided
    accumulators, combined pairwise, then the tail in order; above it,
    the two halves (split on a multiple of 8) summed recursively."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= _PAIRWISE_BLOCK:
        r = list(values[:8])
        tail = n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in values[tail:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def aggregate(trials: List[TrialResult]) -> Aggregate:
    if not trials:
        raise ValueError("no trials to aggregate")
    configs = {t.config for t in trials}
    benches = {t.benchmark for t in trials}
    if len(configs) != 1 or len(benches) != 1:
        raise ValueError(f"mixed aggregation: {configs} x {benches}")
    values = [t.value for t in trials]
    # The same float64 sums as numpy's mean and std(ddof=1), without
    # loading numpy into a run that builds no array.
    xs = [float(v) for v in values]
    n = len(xs)
    mean = _pairwise_sum(xs) / n
    stdev = 0.0
    if n > 1:
        devs = [x - mean for x in xs]
        stdev = math.sqrt(_pairwise_sum([d * d for d in devs]) / (n - 1))
    return Aggregate(
        config=trials[0].config,
        benchmark=trials[0].benchmark,
        unit=trials[0].unit,
        mean=mean,
        stdev=stdev,
        n=n,
        values=values,
    )


def normalize_to(
    aggregates: Dict[str, Aggregate], baseline_config: str
) -> Dict[str, float]:
    """Normalize each configuration's mean to the baseline (Figure 7/9)."""
    base = aggregates[baseline_config].mean
    if base == 0:
        raise ValueError("baseline mean is zero")
    return {cfg: agg.mean / base for cfg, agg in aggregates.items()}

