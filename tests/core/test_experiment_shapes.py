"""Reduced-size end-to-end experiment shape tests.

These assert the paper's qualitative results on scaled-down workloads
(the full-size regeneration lives in benchmarks/). They are the
regression net for the calibration: if a model change flips an ordering
the paper reports, these fail.
"""

import numpy as np
import pytest

from repro.common.units import MiB
from repro.core.configs import ALL_CONFIGS, build_node
from repro.core.experiments import run_selfish_profiles
from repro.kitten.kernel import DEFAULT_TICK_HZ as KITTEN_TICK_HZ
from repro.linuxk.kernel import HZ as LINUX_TICK_HZ
from repro.workloads import RandomAccessBenchmark, StreamBenchmark, make_npb
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

    def test_linux_penalty_exceeds_kitten(self, gups):
        assert gups["hafnium-linux"] / gups["hafnium-kitten"] < 0.995


class TestStreamShape:
    def test_stream_flat_across_configs(self):
        factory = lambda: StreamBenchmark(n_elements=500_000, ntimes=2)
        vals = {cfg: run_metric(cfg, factory) for cfg in ALL_CONFIGS}
        for cfg in ALL_CONFIGS:
            assert vals[cfg] / vals["native"] > 0.985, cfg


class TestSelfishShape:
    @pytest.fixture(scope="class")
    def profiles(self):
        return run_selfish_profiles(duration_s=0.5, seed=21)

    def test_native_sparse_and_periodic(self, profiles):
        p = profiles["native"]
        assert p.summary["rate_hz"] <= 15
        assert p.interarrival_cv < 0.3

    def test_kitten_vm_similar_rate_higher_latency(self, profiles):
        native, kitten = profiles["native"], profiles["hafnium-kitten"]
        assert kitten.summary["rate_hz"] <= 4 * max(native.summary["rate_hz"], 1)
        assert (
            kitten.summary["mean_latency_us"] > native.summary["mean_latency_us"]
        )

    def test_linux_vm_frequent_and_random(self, profiles):
        kitten, linux = profiles["hafnium-kitten"], profiles["hafnium-linux"]
        assert linux.summary["rate_hz"] > 5 * kitten.summary["rate_hz"]
        assert linux.summary["max_latency_us"] > kitten.summary["max_latency_us"]


def _comb_share(profile, period_us):
    """Share of detour interarrival gaps within 10% of `period_us`."""
    gaps = np.diff(profile.times_us)
    return float(np.mean(np.abs(gaps - period_us) <= 0.1 * period_us))


class TestSelfishNoiseStructure:
    """The structure of each configuration's noise, not just its rate:
    timer-tick combs at the configured tick period, and the random
    component the Linux primary adds on top."""

    @pytest.fixture(scope="class")
    def profiles(self):
        return run_selfish_profiles(duration_s=1.0, seed=19)

    def test_native_and_kitten_are_periodic(self, profiles):
        kitten_tick_us = 1e6 / KITTEN_TICK_HZ
        assert _comb_share(profiles["native"], kitten_tick_us) >= 0.6
        # The Kitten-VM profile is two interleaved combs; the tick comb
        # still explains about half the gaps.
        assert _comb_share(profiles["hafnium-kitten"], kitten_tick_us) >= 0.4

    def test_linux_tick_comb_plus_random_component(self, profiles):
        """Linux noise decomposes into the 250 Hz tick comb plus a
        substantial random component (the competing threads)."""
        share = _comb_share(profiles["hafnium-linux"], 1e6 / LINUX_TICK_HZ)
        assert 0.5 < share < 0.9  # the random part breaks the comb
        # Long-tail latencies the periodic configs never show.
        assert profiles["hafnium-linux"].summary["max_latency_us"] > 10 * (
            profiles["hafnium-kitten"].summary["max_latency_us"]
        )

    def test_noise_power_ordering(self, profiles):
        stolen = {c: p.summary["stolen_fraction"] for c, p in profiles.items()}
        assert (
            stolen["native"] < stolen["hafnium-kitten"] < stolen["hafnium-linux"]
        )


class TestNpbShape:
    def test_lu_under_linux_is_the_outlier(self):
        lu = {cfg: run_metric(cfg, lambda: make_npb("lu")) for cfg in ALL_CONFIGS}
        ep = {cfg: run_metric(cfg, lambda: make_npb("ep")) for cfg in ALL_CONFIGS}
        lu_linux = lu["hafnium-linux"] / lu["native"]
        ep_linux = ep["hafnium-linux"] / ep["native"]
        # LU visibly degrades; EP does not (paper Figure 9/10).
        assert lu_linux < 0.98
        assert ep_linux > 0.99
        # Kitten scheduler stays near-native for both.
        assert lu["hafnium-kitten"] / lu["native"] > 0.99
        assert ep["hafnium-kitten"] / ep["native"] > 0.99


class TestSuperSecondaryOverhead:
    def test_login_vm_presence_does_not_wreck_compute(self):
        """The paper's architecture hosts a Login VM without losing the
        performance story (it idles on core 0)."""
        factory = lambda: RandomAccessBenchmark(
            table_bytes=16 * MiB, updates_per_entry=1.0
        )
        plain = run_metric("hafnium-kitten", factory)
        with_login = run_metric(
            "hafnium-kitten", factory, with_super_secondary=True
        )
        assert with_login / plain > 0.97
