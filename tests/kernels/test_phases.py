"""Phase pricing, slicing, and work conservation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.units import MiB, us
from repro.hw.perfmodel import MemEnv, PerfModel, TranslationInfo
from repro.hw.soc import PINE_A64
from repro.kernels.phases import (
    ComputePhase,
    MemoryPhase,
    PricingContext,
    SpinPhase,
)


def ctx(trans=None):
    return PricingContext(
        perf=PerfModel(PINE_A64),
        env=MemEnv(PINE_A64),
        base_key=("test",),
        trans=trans or TranslationInfo(),
        jitter=PricingContext.no_jitter(),
    )


class TestComputePhase:
    def test_full_duration(self):
        c = ctx()
        ops = PINE_A64.ipc * PINE_A64.freq_hz  # one second of work
        phase = ComputePhase(ops)
        dur = phase.arm(c, now=0)
        assert dur == pytest.approx(1e12, rel=1e-6)
        phase.advance(dur, now=dur)
        assert phase.done

    def test_partial_progress_conserved(self):
        c = ctx()
        phase = ComputePhase(1e9)
        dur = phase.arm(c, 0)
        phase.advance(dur // 4, now=dur // 4, interrupted=True)
        assert not phase.done
        assert phase.remaining_ops == pytest.approx(0.75e9, rel=0.01)
        # Re-arm prices only the remaining work.
        dur2 = phase.arm(c, dur // 4)
        assert dur2 == pytest.approx(0.75 * dur, rel=0.01)

    def test_slices_sum_to_total(self):
        c = ctx()
        phase = ComputePhase(1e8)
        total = 0
        now = 0
        while not phase.done:
            dur = phase.arm(c, now)
            step = min(dur, us(100))
            interrupted = step < dur
            now += step
            total += step
            phase.advance(step, now=now, interrupted=interrupted)
        expected = PerfModel(PINE_A64).compute_ps(1e8)
        assert total == pytest.approx(expected, rel=0.01)

    def test_footprint_warmup_charged_once_then_free(self):
        c = ctx()
        phase = ComputePhase(1e6, footprint_bytes=128 * 1024)
        dur_cold = phase.arm(c, 0)
        phase.advance(dur_cold, now=dur_cold)
        phase2 = ComputePhase(1e6, footprint_bytes=128 * 1024)
        dur_warm = phase2.arm(c, dur_cold)
        assert dur_warm < dur_cold  # second run reuses the warm tile

    def test_footprint_rewarm_after_pollution(self):
        c = ctx()
        p1 = ComputePhase(1e6, footprint_bytes=128 * 1024)
        p1.advance(p1.arm(c, 0), now=10)
        c.env.pollute("kthread")
        p2 = ComputePhase(1e6, footprint_bytes=128 * 1024)
        warm = ComputePhase(1e6)  # no footprint: baseline
        assert p2.arm(c, 20) > warm.arm(c, 20)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ComputePhase(0)
        with pytest.raises(ConfigurationError):
            ComputePhase(10, footprint_bytes=-1)

    def test_advance_before_arm_rejected(self):
        with pytest.raises(SimulationError):
            ComputePhase(10).advance(1, now=1)

    def test_arm_done_phase_rejected(self):
        c = ctx()
        p = ComputePhase(100)
        p.advance(p.arm(c, 0), now=1)
        with pytest.raises(SimulationError):
            p.arm(c, 2)


class TestMemoryPhase:
    def test_seq_is_bandwidth_bound(self):
        c = ctx()
        bytes_ = 220_000_000  # ~0.1 s at 2.2 GB/s
        phase = MemoryPhase("seq", working_set=32 * MiB, total_bytes=bytes_)
        dur = phase.arm(c, 0)
        implied_bw = bytes_ / (dur / 1e12)
        assert implied_bw == pytest.approx(PINE_A64.dram_bw_bytes_per_s, rel=0.02)

    def test_bw_fraction_scales_duration(self):
        c = ctx()
        full = MemoryPhase("seq", 32 * MiB, total_bytes=1e8).arm(c, 0)
        quarter = MemoryPhase(
            "seq", 32 * MiB, total_bytes=1e8, bw_fraction=0.25
        ).arm(c, 0)
        assert quarter == pytest.approx(4 * full, rel=0.01)

    def test_rand_two_stage_slower(self):
        virt = TranslationInfo(True, 2, 3, page_size=4096)
        t_native = MemoryPhase("rand", 64 * MiB, total_accesses=1e6).arm(ctx(), 0)
        t_virt = MemoryPhase("rand", 64 * MiB, total_accesses=1e6).arm(ctx(virt), 0)
        assert t_virt > t_native * 1.02

    def test_rand_warmup_after_pollution(self):
        c = ctx(TranslationInfo(True, 2, 3, page_size=4096))
        p1 = MemoryPhase("rand", 64 * MiB, total_accesses=1e5)
        p1.advance(p1.arm(c, 0), now=10)
        warm = MemoryPhase("rand", 64 * MiB, total_accesses=1e5).arm(c, 20)
        c.env.pollute("kthread")
        cold = MemoryPhase("rand", 64 * MiB, total_accesses=1e5).arm(c, 30)
        assert cold > warm

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MemoryPhase("diag", 1024, total_bytes=1)
        with pytest.raises(ConfigurationError):
            MemoryPhase("seq", 0, total_bytes=1)
        with pytest.raises(ConfigurationError):
            MemoryPhase("seq", 1024)  # missing total_bytes
        with pytest.raises(ConfigurationError):
            MemoryPhase("rand", 1024)  # missing total_accesses
        with pytest.raises(ConfigurationError):
            MemoryPhase("seq", 1024, total_bytes=1, bw_fraction=0)
        with pytest.raises(ConfigurationError):
            MemoryPhase("seq", 1024, total_bytes=1, bw_fraction=None)

    @given(
        st.floats(min_value=1e3, max_value=1e7),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_slicing_conserves_work(self, accesses, n_slices):
        c = ctx()
        phase = MemoryPhase("rand", 8 * MiB, total_accesses=accesses)
        whole = phase.arm(c, 0)
        # Slice the same work into n parts: durations sum ~ whole.
        c2 = ctx()
        p2 = MemoryPhase("rand", 8 * MiB, total_accesses=accesses)
        total, now = 0, 0
        for _ in range(100_000):
            if p2.done:
                break
            dur = p2.arm(c2, now)
            step = max(1, dur // n_slices)
            interrupted = step < dur
            now += step
            total += step
            p2.advance(step, now=now, interrupted=interrupted)
        assert p2.done
        assert total == pytest.approx(whole, rel=0.05)


class TestSpinPhase:
    def test_no_interruptions_no_detours(self):
        c = ctx()
        phase = SpinPhase(us(500), threshold_ps=us(1))
        dur = phase.arm(c, 0)
        assert dur == us(500)
        phase.advance(dur, now=dur)
        assert phase.done
        assert phase.detours == []

    def test_gap_above_threshold_recorded(self):
        c = ctx()
        phase = SpinPhase(us(500), threshold_ps=us(1))
        phase.arm(c, 0)
        phase.advance(us(100), now=us(100), interrupted=True)
        # Gap of 5 us before resuming.
        phase.arm(c, us(105))
        assert len(phase.detours) == 1
        t, lat = phase.detours[0]
        assert t == us(100)
        assert lat >= us(5)

    def test_gap_below_threshold_ignored(self):
        c = ctx()
        phase = SpinPhase(us(500), threshold_ps=us(10))
        phase.arm(c, 0)
        phase.advance(us(100), now=us(100), interrupted=True)
        phase.arm(c, us(100) + 500_000)  # 0.5 us gap < 10 us threshold
        assert phase.detours == []
        assert phase.total_gap_ps == 500_000

    def test_spin_time_excludes_gaps(self):
        c = ctx()
        phase = SpinPhase(us(100), threshold_ps=us(1))
        phase.arm(c, 0)
        phase.advance(us(60), now=us(60), interrupted=True)
        dur = phase.arm(c, us(200))  # long gap
        assert dur == us(40)  # only the unspun remainder

    def test_series_accessors(self):
        c = ctx()
        phase = SpinPhase(us(100), threshold_ps=us(1))
        phase.arm(c, 0)
        phase.advance(us(10), now=us(10), interrupted=True)
        phase.arm(c, us(20))
        times = phase.detour_times_us()
        lats = phase.detour_latencies_us()
        assert len(times) == len(lats) == 1
        assert times[0] == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SpinPhase(0, threshold_ps=1)
        with pytest.raises(ConfigurationError):
            SpinPhase(100, threshold_ps=0)
