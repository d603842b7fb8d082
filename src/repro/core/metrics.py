"""Result containers and statistics for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


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


def aggregate(trials: List[TrialResult]) -> Aggregate:
    if not trials:
        raise ValueError("no trials to aggregate")
    configs = {t.config for t in trials}
    benches = {t.benchmark for t in trials}
    if len(configs) != 1 or len(benches) != 1:
        raise ValueError(f"mixed aggregation: {configs} x {benches}")
    values = [t.value for t in trials]
    arr = np.asarray(values, dtype=float)
    return Aggregate(
        config=trials[0].config,
        benchmark=trials[0].benchmark,
        unit=trials[0].unit,
        mean=float(arr.mean()),
        stdev=float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
        n=len(arr),
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

