"""Workload phase models: construction, metrics, completion on a node."""

import pytest

from repro.common.errors import SimulationError
from repro.common.units import MiB
from repro.core.configs import CONFIG_NATIVE, build_native_node
from repro.workloads import (
    HpcgBenchmark,
    NPB_SPECS,
    RandomAccessBenchmark,
    SelfishDetour,
    StreamBenchmark,
    make_npb,
)
from repro.workloads.base import WorkloadRun
from repro.workloads.stream import KERNELS, WORDS_MOVED


@pytest.fixture
def node():
    return build_native_node(seed=8)


class TestWorkloadProtocol:
    def test_metric_before_run_raises(self):
        w = StreamBenchmark()
        with pytest.raises(SimulationError):
            w.metric()

    def test_threads_built_once(self, node):
        w = StreamBenchmark(n_elements=50_000, ntimes=1)
        w.make_threads(node.engine)
        with pytest.raises(SimulationError):
            w.make_threads(node.engine)

    def test_threads_pinned_one_per_cpu(self, node):
        w = StreamBenchmark(n_elements=50_000, ntimes=1)
        threads = w.make_threads(node.engine)
        assert [t.cpu for t in threads] == [0, 1, 2, 3]
        assert all(t.aspace == "bench" for t in threads)


class TestStream:
    def test_byte_accounting(self):
        w = StreamBenchmark(n_elements=1_000_000, ntimes=2)
        # copy+scale move 2 words, add+triad 3: 10 words * 8 B * N * ntimes
        expected_mb = 10 * 8 * 1_000_000 * 2 / 1e6
        assert w.total_work() == pytest.approx(expected_mb)

    def test_runs_and_reports_bandwidth(self, node):
        w = StreamBenchmark(n_elements=200_000, ntimes=2)
        WorkloadRun(node, w)
        # 4 threads share the 2.2 GB/s bus.
        assert w.metric() == pytest.approx(2200, rel=0.05)
        extras = w.extra_metrics()
        assert set(extras) == {f"{k}_mbps" for k in KERNELS}

    def test_kernel_word_counts(self):
        assert WORDS_MOVED == {"copy": 2, "scale": 2, "add": 3, "triad": 3}


class TestRandomAccess:
    def test_gups_convention(self):
        w = RandomAccessBenchmark(table_bytes=64 * MiB)
        assert w.entries == 64 * MiB // 8
        assert w.total_updates == 4 * w.entries
        assert w.total_work() == pytest.approx(4 * w.entries / 1e9)

    def test_runs(self, node):
        w = RandomAccessBenchmark(table_bytes=8 * MiB, updates_per_entry=0.5)
        WorkloadRun(node, w)
        assert w.metric() > 0
        assert w.extra_metrics()["table_mib"] == 8


class TestHpcg:
    def test_flop_accounting(self):
        w = HpcgBenchmark(nx=16, iterations=10)
        assert w.rows == 16**3
        assert w.nnz == 27 * 16**3
        per_iter = w.flops_per_iteration()
        assert per_iter == 2 * w.nnz * 3 + 2 * w.rows * 5
        assert w.total_work() == pytest.approx(10 * per_iter / 1e9)

    def test_runs(self, node):
        w = HpcgBenchmark(nx=24, iterations=3)
        WorkloadRun(node, w)
        assert 0.05 < w.metric() < 5.0  # GFLOP/s in a plausible A53 band


class TestNpb:
    def test_paper_subset_and_full_suite(self):
        from repro.core.experiments import NPB_BENCHMARKS
        from repro.workloads.npb import PAPER_SUBSET

        assert PAPER_SUBSET == ("lu", "bt", "cg", "ep", "sp")
        assert set(NPB_SPECS) == set(PAPER_SUBSET)
        assert tuple(NPB_BENCHMARKS) == PAPER_SUBSET

    def test_make_npb_unknown(self):
        with pytest.raises(KeyError, match="unknown NPB"):
            make_npb("ua")

    def test_make_npb_case_insensitive(self):
        assert make_npb("LU").spec.name == "lu"

    def test_lu_is_sync_finest_grained(self):
        """LU's wavefront structure: the most barriers per iteration and
        the largest cache-resident tile — the properties behind its Linux
        sensitivity (Figure 10)."""
        lu = NPB_SPECS["lu"]
        assert lu.substeps == max(s.substeps for s in NPB_SPECS.values())
        assert lu.compute_footprint == max(
            s.compute_footprint for s in NPB_SPECS.values()
        )

    def test_ep_has_no_memory_phases(self):
        spec = NPB_SPECS["ep"]
        assert spec.seq_bytes == 0
        assert spec.rand_accesses == 0

    def test_runs_and_counts_barriers(self, node):
        w = make_npb("lu")
        WorkloadRun(node, w)
        assert w.metric() > 0
        extras = w.extra_metrics()
        assert extras["barrier_episodes"] == NPB_SPECS["lu"].niter * NPB_SPECS["lu"].substeps


class TestSelfish:
    def test_native_profile_is_periodic_ticks(self, node):
        w = SelfishDetour(duration_s=0.5)
        WorkloadRun(node, w)
        series = w.detour_series_us()
        s = w.noise_summary(series)
        # 10 Hz Kitten ticks -> ~5 detours in 0.5 s, tightly periodic.
        assert s["count"] == pytest.approx(5, abs=2)
        assert w.interarrival_cv(series) < 0.2

    def test_profile_builds_its_detour_arrays_once(self, monkeypatch):
        from repro.core.experiments import run_selfish_profile
        from repro.kernels.phases import SpinPhase

        built = []
        for name in ("detour_times_us", "detour_latencies_us"):
            def counting(phase, _orig=getattr(SpinPhase, name), _name=name):
                built.append(_name)
                return _orig(phase)

            monkeypatch.setattr(SpinPhase, name, counting)
        profile = run_selfish_profile(CONFIG_NATIVE, duration_s=0.3, seed=8)
        assert sorted(built) == ["detour_latencies_us", "detour_times_us"]
        assert profile.summary["count"] == len(profile.times_us) > 0

    def test_empty_summary_without_detours(self):
        w = SelfishDetour()
        w.phases = []
        from repro.kernels.phases import SpinPhase
        from repro.common.units import seconds, us

        w.phases.append(SpinPhase(seconds(1), us(1)))
        series = w.detour_series_us()
        assert w.noise_summary(series)["count"] == 0
        assert w.interarrival_cv(series) == 0.0
