"""Statistics containers for the experiment harness."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.metrics import (
    Aggregate,
    TrialResult,
    aggregate,
    normalize_to,
)


def trial(value, config="native", bench="b", n=0):
    return TrialResult(config, bench, n, value, "u", 1.0)


def test_aggregate_mean_std():
    agg = aggregate([trial(1.0, n=0), trial(2.0, n=1), trial(3.0, n=2)])
    assert agg.mean == 2.0
    assert agg.stdev == pytest.approx(1.0)
    assert agg.n == 3
    assert agg.cv == pytest.approx(0.5)


def test_aggregate_single_trial_has_zero_stdev():
    agg = aggregate([trial(5.0)])
    assert agg.stdev == 0.0


def test_aggregate_equals_numpy_mean_and_std_exactly():
    # Lengths on both sides of the pairwise sum's 8-value unroll and
    # 128-value block; a sequential sum differs from numpy's at some of them.
    rng = random.Random(7)
    lengths = [rng.randint(1, 300) for _ in range(200)] + [7, 8, 9, 128, 129, 257]
    for n in lengths:
        values = [rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-3, 6) for _ in range(n)]
        agg = aggregate([trial(v, n=i) for i, v in enumerate(values)])
        arr = np.array(values)
        assert agg.mean == float(np.mean(arr)), n
        if n > 1:
            assert agg.stdev == float(np.std(arr, ddof=1)), n


def test_aggregate_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([trial(1.0, config="a"), trial(1.0, config="b")])


def test_normalize_to():
    aggs = {
        "native": aggregate([trial(10.0)]),
        "virt": aggregate([trial(9.0, config="virt")]),
    }
    norm = normalize_to(aggs, "native")
    assert norm == {"native": 1.0, "virt": 0.9}


def test_normalize_zero_baseline():
    aggs = {"native": aggregate([trial(0.0)])}
    with pytest.raises(ValueError):
        normalize_to(aggs, "native")


@given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=2, max_size=20))
def test_property_mean_bounded_by_extremes(values):
    trials = [trial(v, n=i) for i, v in enumerate(values)]
    agg = aggregate(trials)
    eps = 1e-9 * max(values)
    assert min(values) - eps <= agg.mean <= max(values) + eps
    assert agg.values == values
