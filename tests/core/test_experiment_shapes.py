"""Reduced-size end-to-end experiment shape tests.

These assert the paper's RandomAccess ordering on a scaled-down workload
(the full-length bounds are the fig7-8 rows in tests/core/test_paper_claims.py).
They are a quick regression net for the calibration: if a model change
flips an ordering the paper reports, these fail.
"""

import pytest

from repro.common.units import MiB
from repro.core.configs import ALL_CONFIGS, build_node
from repro.workloads import RandomAccessBenchmark
from repro.workloads.base import WorkloadRun


def run_metric(config, factory, seed=21, **node_kwargs):
    node = build_node(config, seed=seed, **node_kwargs)
    w = factory()
    WorkloadRun(node, w)
    return w.metric()


@pytest.fixture(scope="module")
def gups():
    factory = lambda: RandomAccessBenchmark(
        table_bytes=32 * MiB, updates_per_entry=1.0
    )
    return {cfg: run_metric(cfg, factory) for cfg in ALL_CONFIGS}


class TestRandomAccessShape:
    def test_ordering_native_kitten_linux(self, gups):
        assert gups["native"] > gups["hafnium-kitten"] > gups["hafnium-linux"]

    def test_virtualization_penalty_band(self, gups):
        """Two-stage translation costs a few percent, not an order of
        magnitude (Figure 8's band)."""
        ratio = gups["hafnium-kitten"] / gups["native"]
        assert 0.90 < ratio < 0.99
